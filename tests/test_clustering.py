"""Seeding, Lloyd clustering, brute-force optima, and bound constants."""

import math

import numpy as np
import pytest

from tjdiv import kernels
from tjdiv.centroids import (
    CentroidConfig, WeightedPointSet, total_jensen_centroid)
from tjdiv.clustering import (
    DEFAULT_EPS_GRID, SeedingConfig, brute_force_discrete_optimum,
    estimate_bound_constants, lloyd_cluster, potential, seed, seed_indices,
    seeding_bound_experiment)
from tjdiv.divergences import total_jensen
from tjdiv.errors import DomainError, InvariantError, ValidationError
from tjdiv.generators import Domain, make_builtin
from tjdiv.kernels import min_divergence_assign, pairwise_total_jensen

SHANNON = make_builtin("shannon")


def test_config_validation():
    with pytest.raises(ValidationError):
        SeedingConfig(k=0)
    with pytest.raises(ValidationError):
        SeedingConfig(k=2, alpha=1.0)
    with pytest.raises(ValidationError):
        SeedingConfig(k=2, trials=0)


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


def test_brute_force_small_cases():
    X = np.array([1.0, 2.0, 2.5, 6.0]).reshape(-1, 1)
    full = brute_force_discrete_optimum(SHANNON, 0.5, X, k=4)
    assert full.potential == 0.0
    one = brute_force_discrete_optimum(SHANNON, 0.5, X, k=1)
    scan = min(potential(SHANNON, 0.5, X, X[i:i + 1]) for i in range(4))
    assert one.potential == pytest.approx(scan, rel=1e-12)
    assert any(np.allclose(one.centers[0], X[i]) for i in range(4))
    with pytest.raises(ValidationError):
        brute_force_discrete_optimum(SHANNON, 0.5, np.ones((30, 1)) + \
                                     np.arange(30).reshape(-1, 1), k=15)


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


def test_reassignment_raising_the_potential_is_an_error(monkeypatch):
    real = kernels.min_divergence_assign

    def inflated(g, alpha, x, centers):
        mind, idx = real(g, alpha, x, centers)
        return mind + 1.0, idx

    monkeypatch.setattr(kernels, "min_divergence_assign", inflated)
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(1.0, 0.05, size=10),
                        rng.normal(5.0, 0.05, size=10)]).reshape(-1, 1)
    with pytest.raises(InvariantError, match="round 2: re-assignment raised"):
        lloyd_cluster(SHANNON, X, SeedingConfig(k=2, rng_seed=11))


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
    # every centroid starts at its cluster's barycenter, whatever
    # centroid_cfg.init says, so the barycenter check always applies
    start = CentroidConfig(init=np.array([1.0]))
    zeros = np.array([0.0, 0.0, 0.0, 5.0, 6.0, 7.0]).reshape(-1, 1)
    for ccfg in (None, start):
        with pytest.raises(DomainError, match=r"point \[0.0\] is outside "
                           r"the interior of shannon's domain"):
            lloyd_cluster(SHANNON, zeros, SeedingConfig(k=2, rng_seed=1),
                          centroid_cfg=ccfg)
    edge = np.array([0.0, 1.0, 5.0, 6.0]).reshape(-1, 1)
    a = lloyd_cluster(SHANNON, edge, SeedingConfig(k=2, rng_seed=1))
    b = lloyd_cluster(SHANNON, edge, SeedingConfig(k=2, rng_seed=1),
                      centroid_cfg=start)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.assignments, b.assignments)


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
    bc = estimate_bound_constants(gb, np.linspace(1.0, 2.0, 9).reshape(-1, 1),
                                  samples=2048, rng_seed=3)
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
    bs = estimate_bound_constants(SHANNON, np.array([[0.0], [1.0]]),
                                  samples=256, rng_seed=0)
    assert bs.boundary_excluded >= 1
    assert math.isfinite(bs.k1_hat) and bs.k1_hat > 1.0
    with pytest.raises(ValidationError):
        estimate_bound_constants(SHANNON, np.array([[1.0]]), samples=1)


def test_plugin_multiplier_arithmetic():
    bc = estimate_bound_constants(
        SHANNON, np.array([[0.5], [1.0], [2.0]]), samples=512, rng_seed=5)
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
    bc = estimate_bound_constants(gb, X, samples=2048, rng_seed=3)
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
    rep = seeding_bound_experiment(SHANNON, X, SeedingConfig(k=3, rng_seed=0),
                                   samples=256)
    assert rep.mean_potential == 0.0 and rep.opt_potential == 0.0
    assert rep.ratio == 0.0

    Y = np.array([0.4, 0.7, 1.1, 1.6, 2.3, 3.1, 4.0, 5.2, 6.5, 8.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(
        SHANNON, Y, SeedingConfig(k=2, rng_seed=9, trials=50), samples=512)
    assert rep.ratio >= 1.0 - 1e-12
    assert rep.trials == 50 and rep.k == 2
    assert len(rep.curve) == len(DEFAULT_EPS_GRID)
    for row in rep.curve:
        want = 2.0 * row["u"] ** 2 * (1.0 + row["v"]) * (2.0 + math.log(2))
        assert row["multiplier"] == pytest.approx(want, rel=1e-12)
        assert row["satisfied"] == (rep.ratio <= row["multiplier"])


def test_bound_holds_for_euclidean_at_unit_eps():
    ge = make_builtin("squared-euclidean")
    X = np.array([-2.0, -1.0, 0.0, 0.5, 1.5, 3.0]).reshape(-1, 1)
    rep = seeding_bound_experiment(
        ge, X, SeedingConfig(k=2, rng_seed=13, trials=100), samples=512)
    cc = rep.constants
    assert cc.k1_hat == 1.0
    # tightest limit of the plug-in family: u, v evaluated at eps -> 1
    u1 = 2.0 * (1.0 + cc.k2_hat)
    v1 = 1.0 + cc.k2_hat
    mult1 = 2.0 * u1 ** 2 * (1.0 + v1) * (2.0 + math.log(2))
    assert rep.ratio <= mult1
