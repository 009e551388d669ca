"""Divergence-driven seeding, Lloyd clustering, and bound constants.

Seeding follows the k-means++ recipe with the scaled total Jensen
divergence as the distortion: first center uniform, every later center
drawn without replacement (by index) with probability proportional to
the divergence to the nearest chosen center. All randomness flows
through one np.random.default_rng(rng_seed) generator per call (PCG64).
One seeding routine draws every trial of an experiment from that one
generator, a step at a time over a (trials, n) block of running
minima (none at k = 1), so an experiment is reproducible from
(rng_seed, trials). A draw picks the first index whose cumulative
mass exceeds r * total, r uniform in [0, 1); this is numpy's
searchsorted(..., "right") on monotone rows, and is still defined where
near-coincident tJ values round below zero. Single seedings are a batch of one, and an
experiment of one trial draws the centres seed_indices draws.

On n points every divergence the brute-force optimum and the seeding
trials need is an entry of one n x n matrix, tJ_alpha(x_i : x_j), so
for every k it is built once (`kernels.tj_table`, the block kernel the
assignment sweep reduces) and read from then on, every entry with the
bits of its own one-centre column. The table budget caps that matrix at
C(n, 2) <= 1e6 pairs for every k. The optimum's scan reads the
k-subsets in lexicographic order, each (k-1)-prefix expanded with every
last index above it in one numpy step, a block of `kernels._BLOCK_BYTES`
at a time; at k = 1 each potential is one row's sum. Row j of the
table is the sweep's column for centre x_j, bit for bit, so the
optimum's assignments are the first minimum over its centres' rows, the
scan's tie rule. F(x) depends only on the points, so it is computed
once per point set and every column, sweep and centroid stage over
those points reads it; a seeding's column for x_j is the table's row j
computed alone (`kernels.tj_row`).

The approximation-bound constants K1 (curvature spread over the data's
convex closure) and K2 (its largest squared chord slope) are read in
closed form off the rows' coordinate ranges; the derived U and V keep a
free parameter eps in (0, 1) that no finite computation pins down, so
bound curves are reported over a grid instead of a single number.
"""

import math
import time
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import List, Optional

import numpy as np

from . import kernels
from .centroids import (
    CentroidConfig, WeightedPointSet, _total_jensen_centroid)
from .errors import CapabilityError, InvariantError, ValidationError
from .generators import (
    Generator, as_count, as_points, as_real, coordinate_sum, ensure_domain)


@dataclass(frozen=True)
class SeedingConfig:
    k: int
    alpha: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        as_count("k", self.k)
        as_real("alpha", self.alpha)
        as_count("rng_seed", self.rng_seed, lo=0)


@dataclass(frozen=True)
class ClusterModel:
    centers: np.ndarray      # (k, d)
    assignments: np.ndarray  # (n,) center indices, ties at lowest index
    potential: float
    rounds: int = 0
    # assignments stopped changing within max_rounds
    converged: bool = False
    # wall-clock seconds per stage, Lloyd only: seed_s (F(x) and the
    # seeding draws), assign_s (every sweep, its check and empty-cluster
    # repairs) and centroid_s (cluster gathers and centroid solves)
    timings: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the seeding guarantee over the data's convex closure,
    read off the rows' coordinate ranges [lo_j, hi_j]. For separable F
    (phi_j' increases), K2 = sum_j max(phi_j'(lo_j)^2, phi_j'(hi_j)^2)
    bounds every squared chord slope (mean value theorem), rho_min =
    1/sqrt(1 + K2) and rho_max (from phi_j'^2's least value on [lo_j,
    hi_j]) bound rho_B, all exact at d = 1, and K1 (phi'' at lo, hi and
    F's clipped minimiser) is exact for the builtins. With `hessian` only
    they are values at the rows, exact for squared-mahalanobis (K1 =
    cond(Q)) but for rho_max. A boundary row makes K1 and K2 inf and
    rho_min 0 (boundary_excluded counts them); witnesses attain K1, K2.

    u(eps) = 2 (1 + K2) K1^2 / eps and v(eps) = K1^2 (1 + K2) / eps stay
    parameterized: eps is an existential constant with no constructive
    value, so callers pick it (the CLI reports curves over a grid).
    """

    k1_hat: float
    k2_hat: float
    rho_min: float
    rho_max: float
    k1_witness: np.ndarray
    k2_witness: np.ndarray
    boundary_excluded: int = 0
    epsilon_note: str = field(
        default="U and V depend on a free eps in (0,1); use u(eps)/v(eps)")

    def u(self, eps: float) -> float:
        eps = as_real("eps", eps)
        return 2.0 * (1.0 + self.k2_hat) * self.k1_hat ** 2 / eps

    def v(self, eps: float) -> float:
        eps = as_real("eps", eps)
        return self.k1_hat ** 2 * (1.0 + self.k2_hat) / eps


@dataclass(frozen=True)
class ExperimentReport:
    mean_potential: float
    opt_potential: float
    ratio: float
    constants: BoundConstants
    curve: List[dict]
    trials: int
    k: int
    # wall-clock seconds per stage: table_s (the tJ table), scan_s (the
    # subset scan for the optimum), trials_s (the seeding draws and their
    # potentials) and constants_s (the bound constants and the curve)
    timings: dict = field(default_factory=dict, compare=False)


def _take(x, mask):
    """x[mask], mask a boolean row mask, as a column-major array in one
    copy (numpy's x[mask] is row-major)."""
    return x.T.compress(mask, axis=1).T


def _seed_indices(rows, n, k, rng, trials=1):
    """k-means++ draws over n points for `trials` trials, all a step at
    a time from the one generator rng. rows(j), j the (T,) newest
    centres, gives tJ(x_i : x_j[t]) as a (T, n) block, or as one (n,)
    column when T = 1. Returns ((T, k) indices, (T, n) min over all but
    the last centre); trial t's potential is np.minimum(mind[t], c).sum(),
    c the tJ column of its last centre. At k = 1 no block is made and
    the second item is None.

    rng is read in one order: the T first picks, then at each step one
    random() per row with positive mass, then one integers() per
    zero-mass row. A row with mass picks the first index whose
    cumulative mass exceeds r * total; if rounding leaves r * total at
    or above the last cumulative sum, it picks the last index with
    positive mass. Zero mass (every point left duplicates a centre)
    picks uniformly among the unchosen indices."""
    chosen = np.empty((trials, k), dtype=np.int64)
    # uniform base case; one trial takes the scalar call, which draws the
    # same index without numpy's array set-up
    chosen[:, 0] = rng.integers(n, size=trials if trials > 1 else None)
    # min over chosen centres; k = 1 reads none
    mind = np.full((trials, n), np.inf) if k > 1 else None
    for s in range(1, k):
        np.minimum(mind, rows(chosen[:, s - 1]), out=mind)
        # each contiguous row sums in the pairwise order of a 1-D sum
        totals = mind.sum(axis=1, keepdims=True)
        pos = totals[:, 0] > 0.0
        live, zero = slice(None), ()
        if np.count_nonzero(pos) < len(pos):  # a row has no mass left
            live, zero = pos.nonzero()[0], (~pos).nonzero()[0].tolist()
        m = mind[live]
        cross = m.cumsum(axis=1) > rng.random((len(m), 1)) * totals[live]
        pick = cross.argmax(axis=1)
        if not cross[:, -1].all():
            # rows whose r * total is not below any running sum
            over = ~cross.any(axis=1)
            pick[over] = n - 1 - (m[over, ::-1] > 0.0).argmax(axis=1)
        chosen[live, s] = pick
        for t in zero:
            rest = np.setdiff1d(np.arange(n), chosen[t, :s])
            chosen[t, s] = rest[rng.integers(len(rest))]
    return chosen, mind


def _seeded_indices(g, x, cfg: SeedingConfig, fx=None):
    # x is already checked by the public caller; fx = F(x), if known
    if x.shape[0] < cfg.k:
        raise ValidationError(f"need at least k={cfg.k} points, have {x.shape[0]}")
    if fx is None and cfg.k > 1:  # k = 1 draws once and reads no column
        fx = g.f(x)
    rng = np.random.default_rng(cfg.rng_seed)
    idx, mind = _seed_indices(
        lambda j: kernels.tj_row(g, cfg.alpha, x, j[0], fx=fx),
        x.shape[0], cfg.k, rng)
    return idx[0], None if mind is None else mind[0]


def seed_indices(g: Generator, data, cfg: SeedingConfig) -> np.ndarray:
    """Row indices of the chosen centers, deterministic in cfg.rng_seed."""
    return _seeded_indices(g, as_points(data, g), cfg)[0]


def seed(g: Generator, data, cfg: SeedingConfig) -> np.ndarray:
    """The chosen center points themselves, shape (k, d)."""
    x = as_points(data, g)
    return x[_seeded_indices(g, x, cfg)[0]]


def _seed_with_potential(g: Generator, x, cfg: SeedingConfig):
    """(seed_indices, their potential) on rows x that the caller has
    checked against g's closed domain: one kernel column more than the
    draws, not a k-centre sweep."""
    fx = g.f(x)
    idx, mind = _seeded_indices(g, x, cfg, fx)
    last = kernels.tj_row(g, cfg.alpha, x, idx[-1], fx=fx)
    if mind is not None:
        last = np.minimum(mind, last)
    return idx, float(last.sum())


def potential(g: Generator, alpha, data, centers) -> float:
    """sum_x min_c tJ_alpha(x : c) over the given center set."""
    x = as_points(data, g)
    c = as_points(centers, g)
    mind, _ = kernels.min_divergence_assign(g, alpha, x, c)
    return float(mind.sum())


def _check_subsets(n: int, k: int):
    if as_count("k", k) > n:
        raise ValidationError(f"k={k} out of range for n={n}")
    if math.comb(n, k) > 10 ** 6:
        raise ValidationError(
            f"C({n},{k}) exceeds the combinatorial budget of 1e6")
    if math.comb(n, 2) > 10 ** 6:
        # every k reads the n x n tJ table: C(n, 2) bounds its size, and
        # with it the k = 1 and k = n - 1 scans, where C(n, k) = n does not
        raise ValidationError(
            f"k={k} needs the {n}x{n} divergence table, and its "
            f"C({n},2) pairs exceed the table budget of 1e6")


def _optimum(cols, k):
    """(potential, subset) of the k-subset S minimising
    sum_i min_{j in S} cols[j, i], with cols from kernels.tj_table. Subsets
    come in lexicographic order and the first minimum wins: each
    (k-1)-prefix P of combinations(range(n - 1), k - 1), in its order,
    followed by every last index above P[-1], in increasing order. That
    is the order of combinations(range(n), k). A block of prefixes is
    read at a time, and its subsets are scanned a block at a time, so
    memory does not grow with C(n, k) or with n - k. At k = 1 each
    subset is one centre, and its potential that centre's row sum."""
    n = cols.shape[1]
    if k == 1:
        pots = cols.sum(axis=1)
        j = int(np.argmin(pots))
        return float(pots[j]), np.array([j])
    rows = max(1, kernels._BLOCK_BYTES // (8 * n))
    prefixes = combinations(range(n - 1), k - 1)
    best = None
    while True:
        P = np.fromiter(chain.from_iterable(islice(prefixes, rows)),
                        dtype=np.int64).reshape(-1, k - 1)
        if not len(P):
            break
        pre = cols[P[:, 0]]  # each prefix's minima
        for r in range(1, k - 1):
            np.minimum(pre, cols[P[:, r]], out=pre)
        # subset s belongs to prefix owner[s] and ends in last[s]: prefix
        # p takes the last indices P[p, -1] + 1, ..., n - 1 in turn
        lasts = n - 1 - P[:, -1]
        first = np.cumsum(lasts) - lasts  # each prefix's first subset
        owner = np.repeat(np.arange(len(P)), lasts)
        last = np.arange(len(owner)) + (P[:, -1] + 1 - first)[owner]
        for s0 in range(0, len(owner), rows):
            mind = pre[owner[s0:s0 + rows]]
            np.minimum(mind, cols[last[s0:s0 + rows]], out=mind)
            # each subset's n minima summed as one contiguous row, in the
            # pairwise order of a 1-D sum
            pots = mind.sum(axis=1)
            b = int(np.argmin(pots))
            if best is None or pots[b] < best[0]:
                best = (float(pots[b]),
                        np.append(P[owner[s0 + b]], last[s0 + b]))
    return best


def brute_force_discrete_optimum(g: Generator, alpha, data, k: int) -> ClusterModel:
    """Exact minimizer of the potential over all k-subsets of the data."""
    x = as_points(data, g)
    _check_subsets(x.shape[0], k)
    cols = kernels.tj_table(g, alpha, x)
    pot, subset = _optimum(cols, k)
    # row j is centre x_j's sweep column, and argmin's first minimum is
    # the scan's tie rule
    return ClusterModel(centers=x[subset],
                        assignments=cols[subset].argmin(axis=0),
                        potential=pot, rounds=0)


def lloyd_cluster(g: Generator, data, cfg: SeedingConfig,
                  centroid_cfg: Optional[CentroidConfig] = None,
                  max_rounds: int = 100) -> ClusterModel:
    """Alternating assignment / centroid update from a seeded start.

    Every sweep, the one after the last centroid update included, runs
    the same checked code: the assignment can only lower the potential
    (else InvariantError), and an empty cluster is re-seeded on the
    farthest point. The last sweep never declares convergence, so
    `rounds <= max_rounds`. The centroid update uses the two-stage total
    Jensen centroid and is heuristic, so the potential across full
    rounds is not required to fall. `data` is checked once here, and
    F(data) computed once; seeding, every sweep and each round's
    clusters use rows of both. The potential the points had under their
    previous clusters' new centres, which the check compares the sweep
    against, is the sum of the centroid stages' own losses at those
    centres: no kernel pass beyond the sweep it checks. `centroid_cfg`'s
    alpha must equal `cfg.alpha`. Each centroid starts at its cluster's
    barycenter.
    """
    max_rounds = as_count("max_rounds", max_rounds, lo=0)
    if centroid_cfg is not None and centroid_cfg.alpha != cfg.alpha:
        raise ValidationError(f"centroid alpha {centroid_cfg.alpha!r} "
                              f"differs from seeding alpha {cfg.alpha!r}")
    x = as_points(data, g)
    t0 = time.perf_counter()
    fx = g.f(x)
    # a copy that no one else holds: repairs and rounds update it in place
    centers = x[_seeded_indices(g, x, cfg, fx)[0]]
    timings = {"seed_s": time.perf_counter() - t0,
               "assign_s": 0.0, "centroid_s": 0.0}
    ccfg = centroid_cfg or CentroidConfig(alpha=cfg.alpha)
    prev_idx = None
    held = None  # the points' potential under their clusters' new centres
    converged = False
    for sweep in range(max_rounds + 1):
        t0 = time.perf_counter()
        mind, idx = kernels.min_divergence_assign(
            g, cfg.alpha, x, centers, fx=fx)
        if held is not None:
            new_pot = float(mind.sum())
            # re-assignment under fixed centers never increases the potential
            if new_pot > held + 1e-12 * max(1.0, abs(held)):
                raise InvariantError(
                    f"round {sweep + 1}: re-assignment raised the potential "
                    f"from {held!r} to {new_pot!r}")
        for j in range(cfg.k):
            if not np.any(idx == j):
                centers[j] = x[int(np.argmax(mind))]
                mind, idx = kernels.min_divergence_assign(
                    g, cfg.alpha, x, centers, fx=fx)
        t1 = time.perf_counter()
        timings["assign_s"] += t1 - t0
        if sweep == max_rounds:  # the sweep after the last update
            break
        if prev_idx is not None and np.array_equal(idx, prev_idx):
            converged = True
            break
        # a cluster left empty by the repair (its re-seeded center
        # duplicates another center) keeps its center
        members = {j: idx == j for j in range(cfg.k)}
        # rows of the checked x, under the uniform weights make would give
        clusters = {j: WeightedPointSet(_take(x, m), np.full(c, 1.0 / c))
                    for j, m in members.items() if (c := m.sum())}
        # each centroid starts at its cluster's barycenter; all of them
        # are checked in one call
        starts = np.array([m.weights @ m.points for m in clusters.values()])
        ensure_domain(g, starts, interior=True)
        held = 0.0
        for (j, cluster), start in zip(clusters.items(), starts):
            res = _total_jensen_centroid(
                g, cluster, ccfg, start, fx[members[j]])
            centers[j] = res.center
            # the loss is a mean over the cluster, and res.center is
            # where it was lowest
            held += len(cluster.weights) * min(res.loss_trace)
        prev_idx = idx
        timings["centroid_s"] += time.perf_counter() - t1
    return ClusterModel(centers=centers, assignments=idx,
                        potential=float(mind.sum()),
                        rounds=sweep + converged, converged=converged,
                        timings=timings)


def estimate_bound_constants(g: Generator, data) -> BoundConstants:
    """BoundConstants of the data; `hessian` is called once on the stacked
    interior rows, and a (d, d) result is read as every row's."""
    x = as_points(data, g)
    inside = g.domain.rows_inside(x, interior=True)
    excluded = len(x) - int(np.count_nonzero(inside))
    lo, hi = x.min(axis=0), x.max(axis=0)
    # a coordinate that every row has at one boundary value
    if (~g.domain.rows_inside(lo[:, None], interior=True) & (lo == hi)).any():
        raise ValidationError("no interior points in the convex closure")
    box = np.stack([lo, hi, lo])
    with np.errstate(all="ignore"):  # log 0 or 1/0 at a boundary end
        if g.second_deriv is not None and g.grad_inverse is not None:
            # F's minimiser clipped into [lo, hi]; fmin and fmax drop NaN
            m = g.grad_inverse(np.zeros_like(lo))
            box[2] = np.fmax(lo, np.fmin(m, hi))
        if g.second_deriv is not None:
            gr, d2 = g.grad(box), g.second_deriv(box)
            a = np.abs(gr)
            # the largest |phi_j'| on [lo_j, hi_j], and the least: 0 where
            # phi_j' changes sign there
            ext = np.stack([a[:2].max(axis=0), np.where(
                (gr[0] < 0.0) & (gr[1] > 0.0), 0.0, a.min(axis=0))])
            s = coordinate_sum(ext * ext)
            # rho_B as gradient_conformal forms it, 1/|.| where s overflows
            rho_min, rho_max = np.where(s < math.inf, 1.0 / np.sqrt(1.0 + s),
                                        1.0 / np.hypot.reduce(ext, axis=1))
            k2_hat, k2_wit = float(s[0]), np.where(a[0] >= a[1], lo, hi)
            k1_hat = float(d2.max() / d2.min())
            k1_wit = box[np.argmax(d2.max(axis=1))]
        elif g.hessian is not None:
            rows = _take(x, inside)
            if not len(rows):
                raise ValidationError("no data row is interior")
            s2 = coordinate_sum(g.grad(rows) ** 2)
            eig = np.linalg.eigvalsh(g.hessian(rows)).reshape(-1, len(lo))
            i, j = int(np.argmax(s2)), int(np.argmax(eig[:, -1]))
            k2_hat, k2_wit = float(s2[i]), rows[i]
            k1_hat, k1_wit = float(eig[j, -1] / eig[:, 0].min()), rows[j]
            rho = kernels.gradient_conformal(g, rows)
            rho_min, rho_max = rho.min(), rho.max()
        else:
            raise CapabilityError(f"{g.name} exposes no curvature information")
    if excluded:
        k1_hat, k2_hat, rho_min = math.inf, math.inf, 0.0
    return BoundConstants(k1_hat, k2_hat, float(rho_min), float(rho_max),
                          k1_wit, k2_wit, excluded)


DEFAULT_EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def seeding_bound_experiment(g: Generator, data, cfg: SeedingConfig,
                             eps_grid=DEFAULT_EPS_GRID,
                             trials: int = 1) -> ExperimentReport:
    """Mean seeding potential over `trials` k-means++ seedings vs the
    brute-force discrete optimum, with the plug-in multiplier
    2 U^2 (1+V) (2 + log k) tabulated over eps_grid. The trials are
    drawn in turn from one generator seeded by cfg.rng_seed, so the
    mean depends on (rng_seed, trials), and one trial draws what
    seed_indices draws."""
    # every option is checked before the first divergence is computed
    trials = as_count("trials", trials)
    eps_grid = [as_real("eps", eps) for eps in eps_grid]
    x = as_points(data, g)
    n, k = x.shape[0], cfg.k
    _check_subsets(n, k)
    rng = np.random.default_rng(cfg.rng_seed)
    t0 = time.perf_counter()
    cols = kernels.tj_table(g, cfg.alpha, x)
    t1 = time.perf_counter()
    opt_pot = _optimum(cols, k)[0]
    t2 = time.perf_counter()
    idx, mind = _seed_indices(cols.__getitem__, n, k, rng, trials)
    if mind is None:  # k = 1: a trial's potential is its centre's row sum
        pots = cols.sum(axis=1)[idx[:, 0]]
    else:
        pots = np.minimum(mind, cols[idx[:, -1]]).sum(axis=1)
    mean_pot = float(pots.mean())
    if opt_pot > 0.0:
        ratio = mean_pot / opt_pot
    else:
        ratio = 0.0 if mean_pot == 0.0 else math.inf
    t3 = time.perf_counter()
    constants = estimate_bound_constants(g, x)
    curve = []
    for eps in eps_grid:
        u = constants.u(eps)
        v = constants.v(eps)
        mult = 2.0 * u * u * (1.0 + v) * (2.0 + math.log(cfg.k))
        curve.append({
            "eps": eps, "u": u, "v": v, "multiplier": mult,
            "satisfied": bool(math.isfinite(mult) and ratio <= mult)})
    timings = {"table_s": t1 - t0, "scan_s": t2 - t1, "trials_s": t3 - t2,
               "constants_s": time.perf_counter() - t3}
    return ExperimentReport(
        mean_potential=mean_pot, opt_potential=opt_pot, ratio=ratio,
        constants=constants, curve=curve, trials=trials, k=cfg.k,
        timings=timings)
