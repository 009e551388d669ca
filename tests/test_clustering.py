"""Seeding, Lloyd clustering, brute-force optima, and bound constants."""

import hashlib
import inspect
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from tjdiv import clustering, generators, kernels
from tjdiv.centroids import (
    CentroidConfig, WeightedPointSet, jensen_centroid_cccp,
    total_jensen_centroid)
from tjdiv.clustering import (
    DEFAULT_EPS_GRID, SeedingConfig, brute_force_discrete_optimum,
    estimate_bound_constants, lloyd_cluster, potential, seed, seed_indices,
    seeding_bound_experiment)
from tjdiv.divergences import total_jensen
from tjdiv.errors import (
    CapabilityError, DomainError, InvariantError, ValidationError)
from tjdiv.generators import Domain, make_builtin
from tjdiv.kernels import min_divergence_assign, pairwise_total_jensen

SHANNON = make_builtin("shannon")


def test_config_validation():
    # k=2.5 once ended in a numpy TypeError, rng_seed=-1 in a ValueError
    for bad in ({"k": 0}, {"k": 2.5}, {"k": 2, "alpha": 1.0},
                {"k": 2, "alpha": np.nan}, {"k": 2, "rng_seed": -1}):
        with pytest.raises(ValidationError):
            SeedingConfig(**bad)


def test_seeding_is_deterministic_and_without_replacement():
    X = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    cfg = SeedingConfig(k=3, rng_seed=42)
    a = seed_indices(SHANNON, X, cfg)
    b = seed_indices(SHANNON, X, cfg)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 3
    assert np.all((a >= 0) & (a < 5))
    assert np.array_equal(seed(SHANNON, X, cfg), X[a])
    with pytest.raises(ValidationError):
        seed_indices(SHANNON, X[:2], cfg)


def test_first_pick_is_uniform():
    X = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    counts = np.zeros(5, dtype=int)
    n_trials = 100000
    for s in range(n_trials):
        counts[seed_indices(SHANNON, X, SeedingConfig(k=1, rng_seed=s))[0]] += 1
    sigma = math.sqrt(n_trials * 0.2 * 0.8)
    assert np.all(np.abs(counts - n_trials / 5) <= 3.0 * sigma)


def test_far_outlier_grabs_the_second_center():
    X = np.append(np.linspace(1.0, 2.0, 19), 1e4).reshape(-1, 1)
    n = len(X)
    # exact selection probability of the outlier as second center
    p_exact = 0.0
    for first in range(n - 1):
        tj = pairwise_total_jensen(SHANNON, 0.5, X,
                                   np.broadcast_to(X[first], X.shape))
        p_exact += (1.0 / n) * tj[n - 1] / tj.sum()
    assert p_exact > 0.92
    hits = sum(
        seed_indices(SHANNON, X, SeedingConfig(k=2, rng_seed=s))[1] == n - 1
        for s in range(2000))
    assert hits / 2000 > 0.9


def test_duplicate_points_fall_back_to_uniform_leftovers():
    X = np.array([1.0, 1.0, 1.0, 2.0]).reshape(-1, 1)
    for s in range(40):
        idx = seed_indices(SHANNON, X, SeedingConfig(k=3, rng_seed=s))
        assert len(set(idx.tolist())) == 3
        assert 3 in idx.tolist()  # the only point carrying divergence mass


def _reference_seed_indices(g, x, k, alpha, rng_seed):
    """k-means++ that re-assigns every point against all chosen centres
    at each draw, the O(n k^2) form of the running minimum."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    return _reference_draws(g, x, k, alpha, rng)


def _first_crossing(mind, r):
    """One weighted draw: the first index whose running sum exceeds
    r * total, or the last index with positive mass if rounding leaves
    r * total at or above the last running sum."""
    v = r * float(mind.sum())
    acc = 0.0
    for i, m in enumerate(mind.tolist()):
        acc += m
        if acc > v:
            return i
    return max(i for i, m in enumerate(mind.tolist()) if m > 0.0)


def _reference_draws(g, x, k, alpha, rng):
    n = len(x)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        cols = [pairwise_total_jensen(g, alpha, x, x[j:j + 1]) for j in chosen]
        mind = np.min(np.stack(cols, axis=1), axis=1)
        if float(mind.sum()) <= 0.0:
            rest = [i for i in range(n) if i not in chosen]
            chosen.append(int(rest[rng.integers(len(rest))]))
            continue
        chosen.append(_first_crossing(mind, rng.random()))
    return np.asarray(chosen, dtype=np.int64)


def _reference_batch(cols, k, trials, rng):
    """k-means++ for a batch of trials over cols[j, i] = tJ(x_i : x_j),
    one trial at a time, reading the one stream rng in the batched
    order: every first pick, then at each step one random() per trial
    with positive mass, then one integers() per trial without."""
    n = cols.shape[1]
    chosen = [[int(rng.integers(n))] for _ in range(trials)]
    for _ in range(1, k):
        minds = [cols[c].min(axis=0) for c in chosen]
        zero = [float(m.sum()) <= 0.0 for m in minds]
        for c, m, z in zip(chosen, minds, zero):
            if not z:
                c.append(_first_crossing(m, rng.random()))
        for c, z in zip(chosen, zero):
            if z:
                rest = [i for i in range(n) if i not in c]
                c.append(rest[rng.integers(len(rest))])
    return np.array(chosen, dtype=np.int64)


@pytest.mark.parametrize("name, dim", [
    ("shannon", 8), ("shannon", 16), ("burg", 2)])
def test_running_min_seeding_matches_the_reference(name, dim):
    g = make_builtin(name, dim)
    x = np.exp(np.random.default_rng(dim).normal(0.0, 1.0, size=(60, dim)))
    for k in range(1, 9):
        for s in (0, 7):
            cfg = SeedingConfig(k=k, alpha=0.3, rng_seed=s)
            assert np.array_equal(seed_indices(g, x, cfg),
                                  _reference_seed_indices(g, x, k, 0.3, s))


def test_running_min_seeding_matches_the_reference_on_duplicates():
    # after the 2.0 row is drawn every point left duplicates a centre,
    # so the remaining draws take the uniform total <= 0 branch
    X = np.array([1.0, 1.0, 2.0, 1.0, 2.0, 1.0]).reshape(-1, 1)
    for s in range(20):
        cfg = SeedingConfig(k=5, rng_seed=s)
        assert np.array_equal(seed_indices(SHANNON, X, cfg),
                              _reference_seed_indices(SHANNON, X, 5, 0.5, s))


def _synthetic_columns():
    # row z is all zeros: only the trials that draw z first take the
    # zero-mass branch, the rest of the batch draws by weight at the same
    # step. A negative entry, as near-coincident tJ can give, makes the
    # cumulative sums of row 5 non-monotone
    n, z = 8, 2
    cols = np.random.default_rng(11).uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(cols, 0.0)
    cols[z] = 0.0
    cols[5, 6] = -0.4
    return cols, z


@pytest.mark.parametrize("trials, k", [(1, 3), (60, 1), (60, 3), (60, 8)])
def test_batched_seeding_mixes_zero_mass_and_weighted_draws(trials, k):
    cols, z = _synthetic_columns()
    n = len(cols)
    idx, mind = clustering._seed_indices(
        cols.__getitem__, n, k, np.random.default_rng(4), trials)
    want = _reference_batch(cols, k, trials, np.random.default_rng(4))
    assert idx.shape == (trials, k)
    assert np.array_equal(idx, want)
    if k > 1:
        assert np.array_equal(mind, cols[idx[:, :-1]].min(axis=1))
    if trials > 1 and k > 1:
        assert 0 < int((idx[:, 0] == z).sum()) < trials


class _FixedRng:
    """Stands in for np.random.Generator: integers() returns the given
    first picks, random() always returns r."""

    def __init__(self, first, r):
        self.first, self.r = np.asarray(first), r

    def integers(self, n, size=None):
        return self.first

    def random(self, size=None):
        return np.full(size, self.r)


def test_draw_takes_the_first_crossing_on_a_non_monotone_row():
    cols, _ = _synthetic_columns()
    cums = np.cumsum(cols[5])
    # centre 5 first, then r * total inside the dip the -0.4 entry makes:
    # cums[3] < cums[6] < v < cums[4], so the running sum first exceeds v
    # at index 4, while a count of cums <= v would give 5, the centre
    v = 0.5 * (cums[6] + cums[4])
    assert cums[3] < cums[6] < v < cums[4]
    r = v / cols[5].sum()
    idx, _ = clustering._seed_indices(
        cols.__getitem__, len(cols), 2, _FixedRng([5], r))
    assert idx.tolist() == [[5, 4]]
    assert int((cums <= r * cols[5].sum()).sum()) == 5


def test_overshooting_draw_does_not_repeat_a_centre():
    # r = 1 - 2**-53 with a row whose sequential running sum ends at
    # least an ulp below its pairwise total: r * total is not below the
    # last running sum, and the last entry, the centre's own, is 0
    r = 1.0 - 2.0 ** -53
    rng = np.random.default_rng(8)
    for _ in range(1000):
        row = rng.uniform(0.0, 1.0, size=40)
        row[-1] = 0.0
        if r * row.sum() >= np.cumsum(row)[-1]:
            break
    else:
        raise AssertionError("no overshooting row found")
    n = len(row)
    idx, _ = clustering._seed_indices(
        lambda j: row, n, 2, _FixedRng([n - 1], r))
    assert idx.tolist() == [[n - 1, n - 2]]


def test_batched_draws_match_the_exact_pair_frequencies():
    from statistics import NormalDist
    Y = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    n, trials = len(Y), 40000
    cols = kernels.tj_table(SHANNON, 0.5, Y)
    idx, _ = clustering._seed_indices(
        cols.__getitem__, n, 2, np.random.default_rng(15), trials)
    normal = NormalDist()

    def family_wise_z(tests):
        # each of `tests` counts held to the level at which all of them
        # together false-alarm as rarely as one 4 sigma test
        return normal.inv_cdf(1.0 - (1.0 - normal.cdf(4.0)) / tests)

    first = np.bincount(idx[:, 0], minlength=n)
    sigma = math.sqrt(trials * (1.0 / n) * (1.0 - 1.0 / n))
    assert np.all(np.abs(first - trials / n) <= family_wise_z(n) * sigma)
    probs = np.zeros((n, n))  # P(first = i, second = j)
    for i in range(n):
        tj = pairwise_total_jensen(SHANNON, 0.5, Y,
                                   np.broadcast_to(Y[i], Y.shape))
        probs[i] = (1.0 / n) * tj / tj.sum()
    counts = np.zeros((n, n))
    np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
    assert np.all(counts[probs == 0.0] == 0)
    sigma = np.sqrt(trials * probs * (1.0 - probs))
    z = family_wise_z(int((probs > 0.0).sum()))
    assert np.all(np.abs(counts - trials * probs) <= z * sigma)


def test_seeding_evaluates_one_tj_column_per_new_center(monkeypatch):
    pairs = []
    block = kernels._tj_block

    def counting(g, alpha, xb, fxb, centers, fc):
        pairs.append(len(centers) * len(xb))
        return block(g, alpha, xb, fxb, centers, fc)

    monkeypatch.setattr(kernels, "_tj_block", counting)
    x = np.exp(np.random.default_rng(3).normal(size=(50, 2)))
    g = make_builtin("shannon", 2)
    for k in (1, 2, 8):
        pairs.clear()
        seed_indices(g, x, SeedingConfig(k=k, rng_seed=k))
        assert sum(pairs) == 50 * (k - 1)


def _counting_f(g):
    """g with an f that records each argument it is called on."""
    seen = []

    def f(x):
        seen.append(np.array(x))
        return g.f(x)

    return replace(g, f=f), seen


def _f_rows(seen):
    return sum(int(np.prod(a.shape[:-1])) for a in seen)


def test_seeding_evaluates_f_of_the_points_once():
    n = 40
    x = np.exp(np.random.default_rng(5).normal(size=(n, 2)))
    g, seen = _counting_f(make_builtin("shannon", 2))
    for k in (1, 2, 5):
        seen.clear()
        idx = seed_indices(g, x, SeedingConfig(k=k, rng_seed=k))
        # F(x) once, then per new centre the n midpoints, its own row's F
        # read from F(x); k = 1 draws one uniform index and evaluates
        # nothing
        assert _f_rows(seen) == (0 if k == 1 else n + (k - 1) * n)
        assert np.array_equal(
            idx, seed_indices(make_builtin("shannon", 2), x,
                              SeedingConfig(k=k, rng_seed=k)))


def test_centroids_evaluate_f_of_the_points_once():
    n = 60
    data = WeightedPointSet.make(
        np.exp(np.random.default_rng(8).normal(size=(n, 3))))
    plain = make_builtin("shannon", 3)
    g, seen = _counting_f(plain)
    res = total_jensen_centroid(g, data)
    # F(x) once, then per loss evaluation (one before the first stage,
    # one after each of S stages) the centre's row and n midpoints
    assert _f_rows(seen) == n + (res.iterations + 1) * (n + 1)
    assert np.array_equal(res.center,
                          total_jensen_centroid(plain, data).center)
    seen.clear()
    c, losses = jensen_centroid_cccp(g, 0.4, data, iters=7, trace_loss=True)
    assert len(losses) == 8 and _f_rows(seen) == n + 8 * (n + 1)
    assert losses == jensen_centroid_cccp(
        plain, 0.4, data, iters=7, trace_loss=True)[1]


def test_solved_stages_cut_grad_work_threefold():
    # 2000 x 16 points shaped like the centroid-wide benchmark set: 20
    # fixed steps per stage made 9 x 20 grad passes over the n points
    rng = np.random.default_rng(2)
    n = 2000
    x = rng.lognormal(0.5, 0.6, size=(n, 16))
    out = rng.choice(n, size=n // 50, replace=False)
    x[out] *= rng.uniform(20.0, 100.0, size=(len(out), 1))
    plain = make_builtin("shannon", 16)
    rows = []

    def grad(y):
        rows.append(int(np.prod(np.shape(y)[:-1])))
        return plain.grad(y)

    res = total_jensen_centroid(replace(plain, grad=grad),
                                WeightedPointSet.make(x))
    assert res.stop_reason == "rose" and len(res.stages) <= 9
    # n rows per CCCP evaluation, and per descent evaluation n midpoints
    # and the centre's row
    evals = res.descent.evals
    assert sum(rows) == n * sum(s.evals for s in res.stages) + (n + 1) * evals
    assert sum(rows) <= 9 * 20 * n / 3


def test_lloyd_evaluates_f_of_the_points_once():
    rng = np.random.default_rng(7)
    x = np.exp(np.concatenate([rng.normal(0.0, 0.1, size=(50, 2)),
                               rng.normal(2.0, 0.1, size=(50, 2))]))
    g, seen = _counting_f(make_builtin("shannon", 2))
    model = lloyd_cluster(g, x, SeedingConfig(k=2, rng_seed=3))
    assert model.rounds >= 2
    # each sweep's midpoints also have n rows, so count calls on x itself
    assert sum(a.shape == x.shape and np.array_equal(a, x)
               for a in seen) == 1
    plain = lloyd_cluster(make_builtin("shannon", 2), x,
                          SeedingConfig(k=2, rng_seed=3))
    assert np.array_equal(model.centers, plain.centers)
    assert model.potential == plain.potential


@pytest.mark.parametrize("name", ["shannon", "burg"])
@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
def test_seeded_potential_equals_the_sweep_bitwise(name, dim):
    # the `seed` command's potential: the running minimum plus the last
    # centre's column, where a k-centre sweep was made before
    g = make_builtin(name, dim)
    x = np.exp(np.random.default_rng(dim).normal(0.0, 1.0, size=(300, dim)))
    for k in (1, 2, 5):
        cfg = SeedingConfig(k=k, alpha=0.3, rng_seed=k)
        idx, pot = clustering._seed_with_potential(g, x, cfg)
        assert np.array_equal(idx, seed_indices(g, x, cfg))
        assert pot == potential(g, 0.3, x, x[idx])


def test_potential_definition():
    X = np.array([0.5, 1.0, 3.0, 5.0]).reshape(-1, 1)
    C = np.array([1.0, 4.0]).reshape(-1, 1)
    by_hand = sum(
        min(total_jensen(SHANNON, 0.5, [x], [c]).value for c in (1.0, 4.0))
        for x in X.ravel())
    assert potential(SHANNON, 0.5, X, C) == pytest.approx(by_hand, rel=1e-12)
    assert potential(SHANNON, 0.5, X, X) == 0.0
    assert potential(SHANNON, 0.5, [[2.0]], [[3.0]]) == pytest.approx(
        total_jensen(SHANNON, 0.5, [2.0], [3.0]).value, rel=1e-14)
    with pytest.raises(ValidationError):
        potential(SHANNON, 0.5, X, np.empty((0, 1)))


def test_potential_checks_centers():
    X = np.array([[1.0], [2.0]])
    # centres outside the domain once gave 3.66 (negative) and 0.0 (NaN)
    with pytest.raises(DomainError, match=r"\[-1.0\]"):
        potential(SHANNON, 0.5, X, [[-1.0]])
    with pytest.raises(DomainError):
        potential(SHANNON, 0.5, X, [[np.nan]])
    with pytest.raises(ValidationError, match="dimension 2"):
        potential(SHANNON, 0.5, X, [[1.0, 2.0]])


@pytest.mark.parametrize("name, dim", [
    ("shannon", 8), ("shannon", 16), ("bit", 12)])
def test_assignment_sweep_and_pairwise_kernel_agree_bitwise(name, dim):
    g = make_builtin(name, dim)
    rng = np.random.default_rng(dim)
    if name == "bit":
        x = rng.uniform(0.05, 0.95, size=(2000, dim))
    else:
        x = np.exp(rng.normal(0.0, 1.0, size=(2000, dim)))
    centers = x[rng.choice(len(x), size=5, replace=False)]
    # the sweep once built stride-0 centre views, whose d >= 8 row sums
    # came out in another order than the pairwise kernel's
    mind, idx = min_divergence_assign(g, 0.3, x, centers)
    assert np.array_equal(mind, pairwise_total_jensen(g, 0.3, x, centers[idx]))
    c = centers[0]
    view = np.broadcast_to(c, x.shape)
    assert np.array_equal(pairwise_total_jensen(g, 0.3, x, c[None, :]),
                          pairwise_total_jensen(g, 0.3, x, view))
    assert np.array_equal(kernels.pairwise_conformal(g, x, c[None, :]),
                          kernels.pairwise_conformal(g, x, view))


def test_lloyd_checks_its_sweeps_without_a_pairwise_pass(monkeypatch):
    g = make_builtin("shannon", 4)
    rng = np.random.default_rng(4)
    x = np.exp(rng.normal(0.0, 1.0, size=(300, 4)))
    # the held potential of every round comes from the centroid stages'
    # losses: the only kernel columns are the k - 1 seeding draws, and no
    # pairwise pass runs
    calls = {"tj_row": 0, "pairwise_total_jensen": 0}
    for name in calls:
        def counted(*args, _real=getattr(kernels, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(kernels, name, counted)
    model = lloyd_cluster(g, x, SeedingConfig(k=3, rng_seed=1, alpha=0.3),
                          max_rounds=6)
    assert model.rounds >= 3
    assert calls == {"tj_row": 2, "pairwise_total_jensen": 0}
    assert set(model.timings) == {"seed_s", "assign_s", "centroid_s"}
    assert all(t >= 0.0 for t in model.timings.values())


def test_kernel_positional_parameters_are_fixed():
    # perfbench/spans.py unpacks these positional arguments, so an added
    # argument (such as a precomputed F) must be keyword-only
    want = {
        min_divergence_assign: ["g", "alpha", "x", "centers"],
        kernels.cccp_steps: ["g", "alpha", "x", "w", "c0", "iters"],
        pairwise_total_jensen: ["g", "alpha", "p", "q"],
        kernels.pairwise_conformal: ["g", "p", "q"],
    }
    for fn, names in want.items():
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params
                if p.kind is p.POSITIONAL_OR_KEYWORD] == names
        assert all(p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
                   for p in params)


def test_precomputed_f_gives_the_same_bits():
    g = make_builtin("shannon", 16)
    x = np.exp(np.random.default_rng(2).normal(size=(200, 16)))
    fx = g.f(x)
    c = x[[3, 70, 150]]
    for got, want in zip(min_divergence_assign(g, 0.3, x, c, fx=fx),
                         min_divergence_assign(g, 0.3, x, c)):
        assert np.array_equal(got, want)
    assert np.array_equal(pairwise_total_jensen(g, 0.3, x, c[:1], fp=fx),
                          pairwise_total_jensen(g, 0.3, x, c[:1]))


def test_brute_force_small_cases():
    X = np.array([1.0, 2.0, 2.5, 6.0]).reshape(-1, 1)
    full = brute_force_discrete_optimum(SHANNON, 0.5, X, k=4)
    assert full.potential == 0.0
    one = brute_force_discrete_optimum(SHANNON, 0.5, X, k=1)
    scan = min(potential(SHANNON, 0.5, X, X[i:i + 1]) for i in range(4))
    assert one.potential == pytest.approx(scan, rel=1e-12)
    assert any(np.allclose(one.centers[0], X[i]) for i in range(4))
    for run in (lambda: brute_force_discrete_optimum(SHANNON, 0.5, X, k=5),
                lambda: seeding_bound_experiment(SHANNON, X,
                                                 SeedingConfig(k=5))):
        with pytest.raises(ValidationError, match="k=5 out of range for n=4"):
            run()
    with pytest.raises(ValidationError):
        brute_force_discrete_optimum(SHANNON, 0.5, np.ones((30, 1)) + \
                                     np.arange(30).reshape(-1, 1), k=15)


def test_subset_budget_bounds_the_divergence_table():
    # C(n, n) = 1 and C(n, n - 1) = C(n, 1) = n pass the subset budget,
    # but every k reads an n x n table, so n is capped at C(n, 2) <= 1e6
    # (n <= 1414), before any F row is computed
    x = np.linspace(1.0, 2.0, 1500).reshape(-1, 1)
    g, seen = _counting_f(SHANNON)
    for k in (1500, 1499, 1):
        with pytest.raises(ValidationError, match="table budget of 1e6"):
            brute_force_discrete_optimum(g, 0.5, x, k)
        with pytest.raises(ValidationError, match="table budget of 1e6"):
            seeding_bound_experiment(g, x, SeedingConfig(k=k))
    assert _f_rows(seen) == 0
    clustering._check_subsets(1414, 1414)
    with pytest.raises(ValidationError, match="combinatorial budget"):
        clustering._check_subsets(1500, 2)
    # the benchmark's bound experiment: 24 points, k = 3
    x = np.exp(np.random.default_rng(4).normal(0.0, 0.7, size=(24, 2)))
    _assert_reference_optimum(make_builtin("burg", 2), 0.5, x, 3)


def _reference_brute_force(g, alpha, x, k):
    """One assignment sweep per k-subset, the lowest subset winning ties:
    the form the matrix path replaces."""
    best = None
    for subset in combinations(range(len(x)), k):
        mind, idx = min_divergence_assign(g, alpha, x, x[list(subset)])
        pot = float(mind.sum())
        if best is None or pot < best[0]:
            best = (pot, subset, idx)
    return best


def _assert_reference_optimum(g, alpha, x, k):
    pot, subset, idx = _reference_brute_force(g, alpha, x, k)
    model = brute_force_discrete_optimum(g, alpha, x, k)
    assert model.potential == pot
    assert np.array_equal(model.centers, x[list(subset)])
    assert np.array_equal(model.assignments, idx)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name, dim", [
    ("shannon", 1), ("shannon", 2), ("shannon", 8), ("burg", 2)])
def test_matrix_optimum_matches_the_reference(name, dim, block, monkeypatch):
    if block is not None:
        # a few subsets per block, so the scan crosses block boundaries
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 12 * block)
    g = make_builtin(name, dim)
    x = np.exp(np.random.default_rng(dim).normal(0.0, 1.0, size=(12, dim)))
    for k in (1, 2, 3, 12):
        _assert_reference_optimum(g, 0.4, x, k)


@pytest.mark.parametrize("block", [None, 1, 4])
def test_matrix_optimum_ties_go_to_the_lowest_subset(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 8 * block)
    # rows 0/1, 2/3 and 4/5 are duplicates, so every best subset has an
    # exact twin that only its row indices tell apart
    X = np.array([1.0, 1.0, 2.0, 2.0, 9.0, 9.0, 1.5, 8.0]).reshape(-1, 1)
    cols = kernels.tj_table(SHANNON, 0.5, X)
    # at k = 8 the duplicate centres tie for their own rows' assignments
    for k in (1, 2, 3, 4, 8):
        _assert_reference_optimum(SHANNON, 0.5, X, k)
        subset = _reference_brute_force(SHANNON, 0.5, X, k)[1]
        assert tuple(clustering._optimum(cols, k)[1].tolist()) == subset
    three = kernels.tj_table(SHANNON, 0.5, X[:6])
    assert clustering._optimum(three, 3)[1].tolist() == [0, 2, 4]


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
@pytest.mark.parametrize("name", [
    "shannon", "burg", "bit", "squared-euclidean", "squared-mahalanobis"])
def test_blocked_table_matches_its_columns(name, dim, monkeypatch):
    rng = np.random.default_rng(dim)
    if name == "squared-mahalanobis":
        a = rng.normal(size=(dim, dim))
        g = make_builtin(name, dim, matrix=a @ a.T + dim * np.eye(dim))
        x = rng.normal(0.0, 2.0, size=(13, dim))
    else:
        g = make_builtin(name, dim)
        x = rng.uniform(0.05, 0.95, size=(13, dim))
    x = np.asfortranarray(np.vstack([x, x[:2]]))  # coincident pairs too
    n = len(x)
    fx = g.f(x)
    want = np.array([kernels.tj_row(g, 0.4, x, j, fx=fx)
                     for j in range(n)])
    # one block, then blocks of 4 centres (the last one short)
    assert np.array_equal(kernels.tj_table(g, 0.4, x), want)
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * n * dim * 4)
    counted, seen = _counting_f(g)
    assert np.array_equal(kernels.tj_table(counted, 0.4, x), want)
    # F of the points once, which both sides of every pair read, then
    # the n^2 midpoints
    assert _f_rows(seen) == n + n * n


@pytest.mark.parametrize("n, dim", [(5, 1), (9000, 16)])
@pytest.mark.parametrize("name", generators.BUILTIN_NAMES)
def test_seeding_column_is_the_tables_row_and_the_pairwise_column(
        name, n, dim):
    # 9000 rows at d = 16 span two 8192-row blocks
    rng = np.random.default_rng(n + dim)
    if name == "squared-mahalanobis":
        a = rng.normal(size=(dim, dim))
        g = make_builtin(name, dim, matrix=a @ a.T + dim * np.eye(dim))
    else:
        g = make_builtin(name, dim)
    if name.startswith("squared"):
        x = rng.normal(0.0, 2.0, size=(n, dim))
    elif name == "bit":
        x = rng.uniform(0.05, 0.95, size=(n, dim))
    else:
        x = np.exp(rng.normal(0.0, 1.0, size=(n, dim)))
    x[1] = x[0]  # a coincident pair, whose gap is set to exactly 0
    x = generators.as_points(x, g)
    fx = g.f(x)
    js = [0, 2, n - 1]
    if n * n <= 10 ** 4:
        rows = kernels.tj_table(g, 0.4, x)[js]
    else:
        # tj_table's own computation on these centres; at this size every
        # centre is a pass of its own, as in the whole table
        rows = kernels._tj_rows(g, 0.4, x, fx, x[js], fx[js])
    for j, row in zip(js, rows):
        col = kernels.tj_row(g, 0.4, x, j, fx=fx)
        assert np.array_equal(col, row)
        assert np.array_equal(col, kernels.tj_row(g, 0.4, x, j))
        assert np.array_equal(
            col, pairwise_total_jensen(g, 0.4, x, x[j:j + 1], fp=fx))
    assert kernels.tj_row(g, 0.4, x, 0, fx=fx)[1] == 0.0


def test_small_seedings_draw_the_recorded_indices():
    # the seed-draws benchmark's op for rng_seed 0..999: a digest of the
    # indices recorded at commit 04708ef, before the seeding column read
    # the table kernel
    y = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    idx = np.array([seed_indices(SHANNON, y, SeedingConfig(k=2, rng_seed=s))
                    for s in range(1000)], dtype=np.int64)
    assert hashlib.sha256(idx.tobytes()).hexdigest() == (
        "d690ba0d34a91cb313bcddd306368ef57daf522738c4348932f54de3174261f2")


def test_counts_reject_bools():
    # True once ran k = 1, rng_seed=False seed 0, max_rounds=False no round
    x = np.array([0.5, 1.0, 2.0, 4.0, 8.0]).reshape(-1, 1)
    for bad in ({"k": True}, {"k": np.True_}, {"k": 2, "rng_seed": False},
                {"k": 2, "rng_seed": np.False_}):
        with pytest.raises(ValidationError, match="must be an integer"):
            SeedingConfig(**bad)
    for rounds in (False, np.False_, True):
        with pytest.raises(ValidationError, match="^max_rounds must be an"):
            lloyd_cluster(SHANNON, x, SeedingConfig(k=2), max_rounds=rounds)


@pytest.mark.parametrize("block", [1, 3, 16, None])
def test_prefix_scan_finds_the_first_minimum(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 10 * block)
    # duplicate rows make exact ties between subsets
    X = np.array([1.0, 1.0, 2.0, 2.0, 9.0, 9.0, 1.5, 8.0, 8.0, 3.0])
    for n in range(2, 11):
        cols = kernels.tj_table(SHANNON, 0.5, X[:n].reshape(-1, 1))
        for k in range(1, n + 1):
            pots = [np.minimum.reduce(cols[list(S)]).sum()
                    for S in combinations(range(n), k)]
            first = int(np.argmin(pots))
            pot, subset = clustering._optimum(cols, k)
            assert pot == pots[first]
            assert tuple(subset.tolist()) == list(
                combinations(range(n), k))[first]


def test_prefix_scan_holds_a_few_blocks(monkeypatch):
    # k = 2 at n = 400: one prefix has 399 subsets, 50 blocks of 8 rows
    n = 400
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * n * 8)
    cols = np.random.default_rng(5).uniform(size=(n, n))
    tracemalloc.start()
    try:
        clustering._optimum(cols, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n * 8


def test_k1_experiment_holds_no_running_minima():
    # the trials' (trials, n) running-minimum block would be 16 MB here
    n, trials = 2000, 1000
    tracemalloc.start()
    try:
        idx, mind = clustering._seed_indices(
            None, n, 1, np.random.default_rng(3), trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trials * n * 8 / 20
    assert mind is None and idx.shape == (trials, 1)


def test_k1_trial_potentials_are_the_table_row_sums():
    n, trials = 1000, 1000
    x = np.exp(np.random.default_rng(2).normal(0.0, 1.0, size=(n, 1)))
    cfg = SeedingConfig(k=1, rng_seed=3)
    rep = seeding_bound_experiment(SHANNON, x, cfg, trials=trials)
    sums = kernels.tj_table(SHANNON, 0.5, x).sum(axis=1)
    idx, _ = clustering._seed_indices(
        None, n, 1, np.random.default_rng(3), trials)
    assert rep.mean_potential == float(sums[idx[:, 0]].mean())
    assert rep.opt_potential == float(sums.min())


def test_brute_force_separates_visible_clusters():
    X = np.array([1.0, 1.1, 1.2, 1.3, 9.0, 9.2, 9.4, 9.6]).reshape(-1, 1)
    model = brute_force_discrete_optimum(SHANNON, 0.5, X, k=2)
    left, right = model.assignments[:4], model.assignments[4:]
    assert len(set(left.tolist())) == 1
    assert len(set(right.tolist())) == 1
    assert left[0] != right[0]


def test_lloyd_on_separated_blobs():
    rng = np.random.default_rng(7)
    blob1 = rng.normal(1.0, 0.05, size=10)
    blob2 = rng.normal(5.0, 0.05, size=10)
    X = np.concatenate([blob1, blob2]).reshape(-1, 1)
    model = lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=11))
    a, b = model.assignments[:10], model.assignments[10:]
    assert len(set(a.tolist())) == 1 and len(set(b.tolist())) == 1
    assert a[0] != b[0]
    # reported potential and assignments reproduce from the centers alone
    mind, idx = min_divergence_assign(SHANNON, 0.5, X, model.centers)
    assert np.array_equal(idx, model.assignments)
    assert model.potential == pytest.approx(float(mind.sum()), rel=1e-12)
    assert model.converged and model.rounds < 100
    capped = lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=11),
                           max_rounds=1)
    assert capped.rounds == 1 and not capped.converged
    # max_rounds=-3 once returned after 0 rounds
    for bad in (-3, 2.0):
        with pytest.raises(ValidationError, match="max_rounds"):
            lloyd_cluster(SHANNON, X, SeedingConfig(k=2), max_rounds=bad)


def test_converged_lloyd_makes_one_sweep_per_round(monkeypatch):
    real = kernels.min_divergence_assign
    calls = []

    def counting(g, alpha, x, centers, **kw):
        calls.append(len(centers))
        return real(g, alpha, x, centers, **kw)

    monkeypatch.setattr(kernels, "min_divergence_assign", counting)
    rng = np.random.default_rng(7)
    X = np.exp(np.concatenate([rng.normal(0.0, 0.1, size=(50, 2)),
                               rng.normal(2.0, 0.1, size=(50, 2))]))
    g = make_builtin("shannon", 2)
    model = lloyd_cluster(g, X, SeedingConfig(k=2, rng_seed=3))
    assert model.converged and model.rounds >= 2
    # the converged round's sweep is the result; no sweep repeats it
    assert len(calls) == model.rounds
    mind, idx = real(g, 0.5, X, model.centers)
    assert np.array_equal(idx, model.assignments)
    assert model.potential == float(mind.sum())
    calls.clear()
    capped = lloyd_cluster(g, X, SeedingConfig(k=2, rng_seed=3), max_rounds=1)
    # stopped after moving the centres: one more sweep assigns to them
    assert not capped.converged and len(calls) == 2


def test_reassignment_raising_the_potential_is_an_error(monkeypatch):
    real = kernels.min_divergence_assign

    def inflated(g, alpha, x, centers, **kw):
        mind, idx = real(g, alpha, x, centers, **kw)
        return mind + 1.0, idx

    monkeypatch.setattr(kernels, "min_divergence_assign", inflated)
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(1.0, 0.05, size=10),
                        rng.normal(5.0, 0.05, size=10)]).reshape(-1, 1)
    with pytest.raises(InvariantError, match="round 2: re-assignment raised"):
        lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=11))


def test_last_sweep_is_checked(monkeypatch):
    # the sweep after the last centroid update once skipped the check
    real, calls = kernels.min_divergence_assign, []

    def second_inflated(g, alpha, x, centers, **kw):
        calls.append(1)
        mind, idx = real(g, alpha, x, centers, **kw)
        return (mind + 1.0 if len(calls) == 2 else mind), idx

    monkeypatch.setattr(kernels, "min_divergence_assign", second_inflated)
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(1.0, 0.05, size=10),
                        rng.normal(5.0, 0.05, size=10)]).reshape(-1, 1)
    with pytest.raises(InvariantError, match="round 2: re-assignment raised"):
        lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=11),
                      max_rounds=1)
    assert len(calls) == 2


def test_lloyd_rejects_a_second_alpha():
    # the centroid alpha was once replaced by the seeding alpha unread
    X = np.array([0.5, 1.0, 5.0, 6.0]).reshape(-1, 1)
    cfg = SeedingConfig(k=2, rng_seed=1, alpha=0.5)
    with pytest.raises(ValidationError, match=r"0\.3.*0\.5"):
        lloyd_cluster(SHANNON, X, cfg, centroid_cfg=CentroidConfig(alpha=0.3))
    same = lloyd_cluster(SHANNON, X, cfg, centroid_cfg=CentroidConfig())
    plain = lloyd_cluster(SHANNON, X, cfg)
    assert np.array_equal(same.centers, plain.centers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_rejected(bad):
    X = np.array([0.5, 1.0, 2.0, 4.0, bad, 8.0]).reshape(-1, 1)
    # built directly, so that make's own finiteness test is bypassed
    data = WeightedPointSet(points=X, weights=np.full(6, 1.0 / 6.0))
    for run in (lambda: seed_indices(SHANNON, X, SeedingConfig(k=2)),
                lambda: lloyd_cluster(SHANNON, X, SeedingConfig(k=2)),
                lambda: total_jensen_centroid(SHANNON, data)):
        with pytest.raises(DomainError) as exc:
            run()
        assert str(exc.value) == \
            f"point [{bad}] is outside shannon's domain [0.0, inf)"
        assert exc.value.row == 4


def test_lloyd_domain_checks_do_not_grow_with_n(monkeypatch):
    real = Domain.contains
    calls = []

    def counting(self, x, interior=False):
        calls.append(np.shape(x))
        return real(self, x, interior)

    monkeypatch.setattr(Domain, "contains", counting)
    seen = []
    for n in (200, 2000):
        rng = np.random.default_rng(5)
        X = np.concatenate([rng.lognormal(0.0, 0.1, n // 2),
                            rng.lognormal(2.0, 0.1, n // 2)]).reshape(-1, 1)
        calls.clear()
        model = lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=3))
        seen.append((len(calls), model.converged, model.rounds))
    assert seen[0] == seen[1]
    # one check of X, then one per round that moves the centroids (all
    # but the converged last round)
    assert seen[0][1] and seen[0][0] == seen[0][2]

    for draw in (seed, seed_indices):
        calls.clear()
        draw(SHANNON, X, SeedingConfig(k=2, rng_seed=3))
        assert len(calls) == 1


def test_lloyd_ignores_centroid_init():
    # every centroid starts at its cluster's barycenter, so the
    # barycenter check always applies
    zeros = np.array([0.0, 0.0, 0.0, 5.0, 6.0, 7.0]).reshape(-1, 1)
    with pytest.raises(DomainError, match=r"point \[0.0\] is outside "
                       r"the interior of shannon's domain"):
        lloyd_cluster(SHANNON, zeros, SeedingConfig(k=2, rng_seed=1),
                      centroid_cfg=None)


def test_lloyd_trivial_and_degenerate_inputs():
    X = np.array([1.0, 2.0, 4.0]).reshape(-1, 1)
    model = lloyd_cluster(SHANNON, X, SeedingConfig(k=3, rng_seed=0))
    assert model.potential == 0.0
    assert len(set(model.assignments.tolist())) == 3
    # all-duplicate data leaves a cluster empty every round; the repair
    # policy re-seeds it and the loop still terminates
    dup = np.ones((4, 1))
    model = lloyd_cluster(SHANNON, dup, SeedingConfig(k=2, rng_seed=1))
    assert model.potential == 0.0
    assert model.rounds <= 3


def test_bound_constants_euclidean_and_burg():
    ge = make_builtin("squared-euclidean")
    be = estimate_bound_constants(ge, np.array([[-3.0], [0.5], [3.0]]))
    assert be.k1_hat == 1.0
    gb = make_builtin("burg")
    bc = estimate_bound_constants(gb, np.linspace(1.0, 2.0, 9).reshape(-1, 1))
    # second derivative 1/x^2 spans [1/4, 1] on [1,2]
    assert bc.k1_hat == pytest.approx(4.0, rel=1e-12)
    # conformal extremes sit at the interval endpoints and bracket a
    # dense oracle of 1/sqrt(1 + 1/x^2)
    assert bc.rho_min == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert bc.rho_max == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)
    dense = 1.0 / np.sqrt(1.0 + np.linspace(1.0, 2.0, 2001) ** -2.0)
    assert np.all(dense >= bc.rho_min - 1e-12)
    assert np.all(dense <= bc.rho_max + 1e-12)
    assert 0.0 < bc.rho_min <= bc.rho_max <= 1.0
    assert bc.k2_hat >= 0.0


def test_bound_constants_report_singular_boundaries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log 0 and 1/0 stay inside
        bs = estimate_bound_constants(SHANNON, np.array([[0.0], [1.0]]))
    assert bs.boundary_excluded >= 1
    # phi'' = 1/x and phi' = log x are unbounded at the boundary row
    assert bs.k1_hat == math.inf and bs.k2_hat == math.inf
    # the closed forms read no sample, so there is no knob to set
    for bad in ({"samples": 1}, {"rng_seed": 0}):
        with pytest.raises(TypeError):
            estimate_bound_constants(SHANNON, np.array([[1.0]]), **bad)


def test_bound_constants_need_curvature_and_an_interior_row():
    g = make_builtin("shannon", 2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])  # each row on the boundary
    # a full Hessian alone is read at the interior rows, and there are none
    hess = replace(g, second_deriv=None, hessian=lambda r: np.eye(2))
    with pytest.raises(ValidationError, match="no data row is interior"):
        estimate_bound_constants(hess, x)
    flat = replace(g, second_deriv=None)
    with pytest.raises(CapabilityError, match="exposes no curvature"):
        estimate_bound_constants(flat, x + 1.0)


def _pair_slopes(g, x):
    """The squared chord slope of every pair of distinct rows of x."""
    i, j = np.triu_indices(len(x), 1)
    keep = np.any(x[i] != x[j], axis=1)
    return kernels.chord_factors(g, x[i[keep]], x[j[keep]])[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_k2_bounds_every_pair_slope_of_the_bound_experiment_data(seed):
    # the data of the bound-experiment benchmark: the 4096-point sample
    # read K2 = 3.75, 5.89 and 3.15 here, below the rows' own 10.33,
    # 11.85 and 7.58
    x = np.random.default_rng([seed, 4]).lognormal(0.0, 0.7, size=(24, 2))
    for name in ("burg", "shannon"):
        g = make_builtin(name, 2)
        k2 = estimate_bound_constants(g, x).k2_hat
        assert k2 >= _pair_slopes(g, x).max()


def _mp_range(fn, lo, hi):
    """(min, max) of fn on [lo, hi] at 40 digits: at the ends and at each
    root of fn' that changes sign between 200 grid points."""
    with mp.workdps(40):
        a, b = mp.mpf(lo), mp.mpf(hi)
        df = lambda t: mp.diff(fn, t)  # noqa: E731
        grid = [a + (b - a) * i / 200 for i in range(201)]
        ts = [a, b] + [mp.findroot(df, (u, v), solver="anderson")
                       for u, v in zip(grid, grid[1:]) if df(u) * df(v) < 0]
        vals = [fn(t) for t in ts]
        return float(min(vals)), float(max(vals))


@pytest.mark.parametrize("name, d1, d2, lo, hi", [
    ("shannon", mp.log, lambda t: 1 / t, 0.3, 2.5),
    ("burg", lambda t: -1 / t, lambda t: t ** -2, 0.4, 3.0),
    ("bit", lambda t: mp.log(t / (1 - t)), lambda t: 1 / (t * (1 - t)),
     0.2, 0.7),
    ("squared-euclidean", lambda t: t, lambda t: mp.mpf(1), -1.5, 0.8),
    ("squared-mahalanobis", lambda t: 2 * t, lambda t: mp.mpf(2), -0.5, 1.2),
])
def test_bound_constants_at_d1_are_the_closures_extremes(name, d1, d2, lo, hi):
    g = make_builtin(name, 1, 2.0 if name == "squared-mahalanobis" else None)
    x = np.array([[0.7 * lo + 0.3 * hi], [hi], [lo], [0.4 * lo + 0.6 * hi]])
    bc = estimate_bound_constants(g, x)
    k2 = _mp_range(lambda t: d1(t) ** 2, lo, hi)[1]
    rho = _mp_range(lambda t: 1 / mp.sqrt(1 + d1(t) ** 2), lo, hi)
    curv = _mp_range(d2, lo, hi)
    assert bc.k2_hat == pytest.approx(k2, rel=1e-12)
    assert (bc.rho_min, bc.rho_max) == pytest.approx(rho, rel=1e-12)
    assert bc.k1_hat == pytest.approx(curv[1] / curv[0], rel=1e-12)
    assert bc.boundary_excluded == 0


def test_conformal_range_without_an_inverse_gradient():
    # without grad_inverse no row sits at F's minimiser; phi' = log x
    # still changes sign on [0.5, 2], so the least |grad F| there is 0
    g = replace(SHANNON, grad_inverse=None)
    bc = estimate_bound_constants(g, np.array([[0.5], [2.0]]))
    assert bc.rho_max == 1.0
    assert bc.rho_min == pytest.approx(1.0 / math.sqrt(1.0 + math.log(2) ** 2),
                                       rel=1e-15)
    with pytest.raises(ValidationError, match="no interior points"):
        estimate_bound_constants(SHANNON, np.zeros((3, 1)))


def test_bit_curvature_is_least_at_one_half():
    bit = make_builtin("bit")
    # phi'' = 1/(x(1-x)) is largest at 0.2 and least, 4, at 1/2, which
    # lies inside the range
    bc = estimate_bound_constants(bit, np.array([[0.2], [0.7]]))
    assert bc.k1_hat == bit.second_deriv(np.array([0.2]))[0] / 4.0
    assert bc.k1_witness.tolist() == [0.2]
    # a range on one side of 1/2 reads its ends
    bc = estimate_bound_constants(bit, np.array([[0.6], [0.7]]))
    assert bc.k1_hat == pytest.approx((1 / 0.21) / (1 / 0.24), rel=1e-15)


def test_mahalanobis_k1_is_the_condition_number():
    q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])
    g = make_builtin("squared-mahalanobis", 3, q)
    x = np.random.default_rng(5).normal(0.0, 1.0, size=(30, 3))
    bc = estimate_bound_constants(g, x)
    assert bc.k1_hat == pytest.approx(np.linalg.cond(q), rel=1e-12)
    # |Qx|^2 is convex, so its largest value on the closure is at a row
    gx = x @ q
    assert bc.k2_hat == pytest.approx(float(np.max((gx * gx).sum(axis=1))),
                                      rel=1e-14)
    assert bc.k2_hat >= _pair_slopes(g, x).max()
    assert bc.rho_min == pytest.approx(1.0 / math.sqrt(1.0 + bc.k2_hat),
                                       rel=1e-15)


def test_bound_constants_of_an_overflowing_gradient():
    # |grad F|^2 = x^-2 overflows on burg here; rho_B is then 1/|grad F|,
    # as gradient_conformal gives it
    burg = make_builtin("burg")
    x = np.array([[1e-170], [1e-160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bc = estimate_bound_constants(burg, x)
    assert bc.k2_hat == math.inf
    assert bc.rho_min == pytest.approx(1e-170, rel=1e-15)
    assert bc.rho_max == pytest.approx(1e-160, rel=1e-15)
    assert bc.rho_min == kernels.gradient_conformal(burg, x[:1])[0]


def test_plugin_multiplier_arithmetic():
    bc = estimate_bound_constants(
        SHANNON, np.array([[0.5], [1.0], [2.0]]))
    for eps in (0.1, 0.5, 0.9):
        assert bc.u(eps) == pytest.approx(
            2.0 * (1.0 + bc.k2_hat) * bc.k1_hat ** 2 / eps, rel=1e-14)
        assert bc.u(eps) == pytest.approx(2.0 * bc.v(eps), rel=1e-14)
    for eps in (0.0, 1.0, -0.3):
        with pytest.raises(ValidationError):
            bc.u(eps)


def test_conformal_sandwich_in_the_closure():
    gb = make_builtin("burg")
    X = np.linspace(1.0, 2.0, 9).reshape(-1, 1)
    bc = estimate_bound_constants(gb, X)
    rng = np.random.default_rng(17)
    p = rng.uniform(1.0, 2.0, size=(2000, 1))
    q = rng.uniform(1.0, 2.0, size=(2000, 1))
    tj = pairwise_total_jensen(gb, 0.5, p, q)
    fj = (0.5 * gb.f(p) + 0.5 * gb.f(q) - gb.f(0.5 * (p + q))) / 0.25
    tol = 1e-12 * np.maximum(1.0, np.abs(fj))
    assert np.all(tj >= bc.rho_min * fj - tol)
    assert np.all(tj <= bc.rho_max * fj + tol)


def test_surrogate_triangle_and_symmetry_ratios_stay_finite():
    hull = np.array([0.5, 1.5, 3.0, 4.0]).reshape(-1, 1)
    rng = np.random.default_rng(23)
    lam = rng.dirichlet(np.ones(4), size=30000)
    pts = (lam @ hull).reshape(3, 10000, 1)
    p, q, r = pts[0], pts[1], pts[2]
    pr = pairwise_total_jensen(SHANNON, 0.5, p, r)
    pq = pairwise_total_jensen(SHANNON, 0.5, p, q)
    qr = pairwise_total_jensen(SHANNON, 0.5, q, r)
    keep = (pq + qr) > 0.0
    m_hat = float(np.max(pr[keep] / (pq + qr)[keep]))
    assert math.isfinite(m_hat) and m_hat > 0.0
    # swapping arguments can only change tJ by a bounded factor here
    qp = pairwise_total_jensen(SHANNON, 0.5, q, p)
    keep = qp > 0.0
    sup_ratio = float(np.max(pq[keep] / qp[keep]))
    assert math.isfinite(sup_ratio) and sup_ratio >= 1.0


def test_bound_experiment_trivial_and_small():
    X = np.array([1.0, 3.0, 9.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(SHANNON, X, SeedingConfig(k=3, rng_seed=0))
    assert rep.mean_potential == 0.0 and rep.opt_potential == 0.0
    assert rep.ratio == 0.0

    Y = np.array([0.4, 0.7, 1.1, 1.6, 2.3, 3.1, 4.0, 5.2, 6.5, 8.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(
        SHANNON, Y, SeedingConfig(k=2, rng_seed=9), trials=50)
    assert rep.ratio >= 1.0 - 1e-12
    assert rep.trials == 50 and rep.k == 2
    assert len(rep.curve) == len(DEFAULT_EPS_GRID)
    for row in rep.curve:
        want = 2.0 * row["u"] ** 2 * (1.0 + row["v"]) * (2.0 + math.log(2))
        assert row["multiplier"] == pytest.approx(want, rel=1e-12)
        assert row["satisfied"] == (rep.ratio <= row["multiplier"])


@pytest.mark.parametrize("name, dim, k", [
    ("burg", 2, 3), ("shannon", 1, 1), ("shannon", 8, 2), ("shannon", 2, 4)])
def test_bound_experiment_matches_per_trial_draws(name, dim, k):
    g = make_builtin(name, dim)
    x = np.exp(np.random.default_rng(k).normal(0.0, 0.7, size=(14, dim)))
    cfg = SeedingConfig(k=k, alpha=0.3, rng_seed=21)
    rep = seeding_bound_experiment(g, x, cfg, trials=40)
    cols = np.array([pairwise_total_jensen(g, 0.3, x, x[j:j + 1])
                     for j in range(len(x))])
    draws = _reference_batch(cols, k, 40, np.random.default_rng(21))
    pots = np.array([potential(g, 0.3, x, x[c]) for c in draws])
    assert rep.mean_potential == float(pots.mean())
    assert rep.opt_potential == _reference_brute_force(g, 0.3, x, k)[0]


@pytest.mark.parametrize("k", [1, 3])
def test_one_trial_experiment_draws_what_seed_draws(k):
    x = np.exp(np.random.default_rng(k).normal(0.0, 0.7, size=(14, 2)))
    g = make_builtin("burg", 2)
    for s in (0, 5, 9):
        cfg = SeedingConfig(k=k, alpha=0.3, rng_seed=s)
        rep = seeding_bound_experiment(g, x, cfg)
        _, pot = clustering._seed_with_potential(g, x, cfg)
        assert rep.mean_potential == pot


def test_bound_experiment_on_duplicates_takes_the_uniform_branch():
    # three distinct rows and k = 4: every trial's last draw has zero mass
    X = np.repeat(np.array([1.0, 2.0, 5.0]), 3).reshape(-1, 1)
    cfg = SeedingConfig(k=4, rng_seed=2)
    rep = seeding_bound_experiment(SHANNON, X, cfg, trials=30)
    assert rep.mean_potential == 0.0 and rep.opt_potential == 0.0


@pytest.mark.parametrize("k", [1, 3])
def test_bound_experiment_computes_each_column_once(k, monkeypatch):
    calls = []
    block = kernels._tj_block

    def counting(*args):
        calls.append(1)
        return block(*args)

    monkeypatch.setattr(kernels, "_tj_block", counting)
    x = np.exp(np.random.default_rng(4).normal(0.0, 0.7, size=(24, 2)))
    g = make_builtin("burg", 2)
    seeding_bound_experiment(
        g, x, SeedingConfig(k=k, rng_seed=1), trials=1000)
    # every k reads the one n x n table, built in one block here
    assert len(calls) == 1


@pytest.mark.parametrize("options, name", [
    ({"eps_grid": (2.0,)}, "eps"), ({"eps_grid": (0.5, np.nan)}, "eps"),
    ({"eps_grid": (0.0,)}, "eps"), ({"eps_grid": (1.0,)}, "eps"),
    ({"eps_grid": ("x",)}, "eps"), ({"trials": 0}, "trials"),
    ({"trials": 1.0}, "trials"), ({"trials": "2"}, "trials")])
def test_bound_experiment_checks_options_before_any_divergence(options, name):
    # eps_grid=(2.0,) once raised only after the matrix, the optimum scan
    # and every trial had run
    x = np.exp(np.random.default_rng(6).normal(0.0, 0.7, size=(60, 2)))
    g, seen = _counting_f(make_builtin("burg", 2))
    with pytest.raises(ValidationError, match=f"{name} must"):
        seeding_bound_experiment(
            g, x, SeedingConfig(k=3, rng_seed=1), **{"trials": 1000, **options})
    assert _f_rows(seen) == 0


def test_bound_holds_for_euclidean_at_unit_eps():
    ge = make_builtin("squared-euclidean")
    X = np.array([-2.0, -1.0, 0.0, 0.5, 1.5, 3.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(
        ge, X, SeedingConfig(k=2, rng_seed=13), trials=100)
    cc = rep.constants
    assert cc.k1_hat == 1.0
    # tightest limit of the plug-in family: u, v evaluated at eps -> 1
    u1 = 2.0 * (1.0 + cc.k2_hat)
    v1 = 1.0 + cc.k2_hat
    mult1 = 2.0 * u1 ** 2 * (1.0 + v1) * (2.0 + math.log(2))
    assert rep.ratio <= mult1


def test_lloyd_checks_its_points_once(monkeypatch):
    # each round's clusters went through WeightedPointSet.make, whose
    # as_points tested every row of x again
    checked, made = [], []
    real_points, real_make = generators.as_points, WeightedPointSet.make

    def counting_points(*args, **kw):
        checked.append(args)
        return real_points(*args, **kw)

    def counting_make(cls, *args, **kw):
        made.append(args)
        return real_make(*args, **kw)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("tjdiv")
                and getattr(mod, "as_points", None) is real_points):
            monkeypatch.setattr(mod, "as_points", counting_points)
    monkeypatch.setattr(WeightedPointSet, "make", classmethod(counting_make))
    rng = np.random.default_rng(7)
    x = np.exp(np.concatenate([rng.normal(0.0, 0.1, size=(50, 2)),
                               rng.normal(2.0, 0.1, size=(50, 2))]))
    model = lloyd_cluster(make_builtin("shannon", 2), x,
                          SeedingConfig(k=3, rng_seed=3))
    assert model.rounds >= 2
    assert len(checked) == 1 and made == []
