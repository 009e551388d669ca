"""Divergence-driven seeding, Lloyd clustering, and bound constants.

Seeding follows the k-means++ recipe with the scaled total Jensen
divergence as the distortion: first center uniform, every later center
drawn without replacement (by index) with probability proportional to
the divergence to the nearest chosen center. All randomness flows
through PCG64; multi-trial experiments split streams with
SeedSequence.spawn so trial t is reproducible in isolation.

The approximation-bound constants K1 (Hessian eigenvalue spread over
the closure) and K2 (squared chord slope) are estimated by sampling the
data's convex closure; the derived U and V keep a free parameter
eps in (0, 1) that no finite computation pins down, so bound curves are
reported over a grid instead of a single number.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import List, Optional

import numpy as np

from . import kernels
from .centroids import (
    CentroidConfig, WeightedPointSet, _total_jensen_centroid)
from .errors import CapabilityError, InvariantError, ValidationError
from .generators import Generator, as_points, ensure_domain, hessian_at


@dataclass(frozen=True)
class SeedingConfig:
    k: int
    alpha: float = 0.5
    rng_seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")


@dataclass(frozen=True)
class ClusterModel:
    centers: np.ndarray      # (k, d)
    assignments: np.ndarray  # (n,) center indices, ties at lowest index
    potential: float
    rounds: int = 0
    # assignments stopped changing within max_rounds
    converged: bool = False


@dataclass(frozen=True)
class BoundConstants:
    """Empirical constants behind the seeding guarantee.

    u(eps) = 2 (1 + K2) K1^2 / eps and v(eps) = K1^2 (1 + K2) / eps stay
    parameterized: eps is an existential constant with no constructive
    value, so callers pick it (the CLI reports curves over a grid).
    """

    k1_hat: float
    k2_hat: float
    rho_min: float
    rho_max: float
    k1_witness: np.ndarray
    k2_witness: tuple
    boundary_excluded: int = 0
    epsilon_note: str = field(
        default="U and V depend on a free eps in (0,1); use u(eps)/v(eps)")

    def _check_eps(self, eps: float) -> float:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps must lie in (0,1), got {eps}")
        return eps

    def u(self, eps: float) -> float:
        eps = self._check_eps(eps)
        return 2.0 * (1.0 + self.k2_hat) * self.k1_hat ** 2 / eps

    def v(self, eps: float) -> float:
        eps = self._check_eps(eps)
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


def _streams(seed: int, n: int):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def _seed_indices(g, x, k, alpha, rng) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]  # uniform base case
    while len(chosen) < k:
        mind, _ = kernels.min_divergence_assign(g, alpha, x, x[chosen])
        total = float(mind.sum())
        if total <= 0.0:
            # all remaining mass zero (duplicates of chosen); uniform
            # over the not-yet-chosen indices
            rest = [i for i in range(n) if i not in chosen]
            chosen.append(int(rest[rng.integers(len(rest))]))
            continue
        r = rng.random() * total
        i = int(np.searchsorted(np.cumsum(mind), r, side="right"))
        chosen.append(min(i, n - 1))
    return np.asarray(chosen, dtype=np.int64)


def _seeded_indices(g, x, cfg: SeedingConfig) -> np.ndarray:
    # x is already checked by the public caller
    if x.shape[0] < cfg.k:
        raise ValidationError(f"need at least k={cfg.k} points, have {x.shape[0]}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))
    return _seed_indices(g, x, cfg.k, cfg.alpha, rng)


def seed_indices(g: Generator, data, cfg: SeedingConfig) -> np.ndarray:
    """Row indices of the chosen centers, deterministic in cfg.rng_seed."""
    return _seeded_indices(g, as_points(data, g), cfg)


def seed(g: Generator, data, cfg: SeedingConfig) -> np.ndarray:
    """The chosen center points themselves, shape (k, d)."""
    x = as_points(data, g)
    return x[_seeded_indices(g, x, cfg)]


def potential(g: Generator, alpha, data, centers) -> float:
    """sum_x min_c tJ_alpha(x : c) over the given center set."""
    x = as_points(data, g)
    c = as_points(centers, g)
    mind, _ = kernels.min_divergence_assign(g, alpha, x, c)
    return float(mind.sum())


def brute_force_discrete_optimum(g: Generator, alpha, data, k: int) -> ClusterModel:
    """Exact minimizer of the potential over all k-subsets of the data."""
    x = as_points(data, g)
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValidationError(f"k={k} out of range for n={n}")
    if math.comb(n, k) > 10 ** 6:
        raise ValidationError(
            f"C({n},{k}) exceeds the combinatorial budget of 1e6")
    best = None
    for subset in combinations(range(n), k):
        mind, idx = kernels.min_divergence_assign(g, alpha, x, x[list(subset)])
        pot = float(mind.sum())
        if best is None or pot < best[0]:
            best = (pot, subset, idx)
    pot, subset, idx = best
    return ClusterModel(centers=x[list(subset)], assignments=idx,
                        potential=pot, rounds=0)


def lloyd_cluster(g: Generator, data, cfg: SeedingConfig,
                  centroid_cfg: Optional[CentroidConfig] = None,
                  max_rounds: int = 100) -> ClusterModel:
    """Alternating assignment / centroid update from a seeded start.

    The assignment step can only lower the potential (checked, raising
    InvariantError); the centroid update uses the two-stage total Jensen
    centroid and is heuristic, so the potential across full rounds is
    not required to fall. Empty clusters are re-seeded on the farthest
    point. `data` is checked once here; seeding and each round's
    clusters use rows of it without checking them again.
    """
    x = as_points(data, g)
    centers = x[_seeded_indices(g, x, cfg)]
    ccfg = centroid_cfg or CentroidConfig(alpha=cfg.alpha)
    ccfg = replace(ccfg, alpha=cfg.alpha, init=None)
    prev_idx = None
    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        mind, idx = kernels.min_divergence_assign(g, cfg.alpha, x, centers)
        if prev_idx is not None:
            held = kernels.pairwise_total_jensen(
                g, cfg.alpha, x, centers[prev_idx])
            old_pot = float(held.sum())
            new_pot = float(mind.sum())
            # re-assignment under fixed centers never increases the potential
            if new_pot > old_pot + 1e-12 * max(1.0, abs(old_pot)):
                raise InvariantError(
                    f"round {rounds}: re-assignment raised the potential "
                    f"from {old_pot!r} to {new_pot!r}")
        for j in range(cfg.k):
            if not np.any(idx == j):
                centers = centers.copy()
                centers[j] = x[int(np.argmax(mind))]
                mind, idx = kernels.min_divergence_assign(
                    g, cfg.alpha, x, centers)
        if prev_idx is not None and np.array_equal(idx, prev_idx):
            converged = True
            break
        # a cluster left empty by the repair (its re-seeded center
        # duplicates another center) keeps its center
        clusters = {j: WeightedPointSet.make(x[idx == j])
                    for j in range(cfg.k) if np.any(idx == j)}
        # each centroid starts at its cluster's barycenter (ccfg.init is
        # None); all of them are checked in one call
        starts = np.array([m.weights @ m.points for m in clusters.values()])
        ensure_domain(g, starts, interior=True)
        new_centers = centers.copy()
        for (j, members), start in zip(clusters.items(), starts):
            new_centers[j] = _total_jensen_centroid(
                g, members, ccfg, start).center
        centers = new_centers
        prev_idx = idx
    mind, idx = kernels.min_divergence_assign(g, cfg.alpha, x, centers)
    return ClusterModel(centers=centers, assignments=idx,
                        potential=float(mind.sum()), rounds=rounds,
                        converged=converged)


def estimate_bound_constants(g: Generator, data, samples: int = 4096,
                             rng_seed: int = 0) -> BoundConstants:
    """Sample the data's convex closure for K1, K2, and the conformal
    extremes. Estimates that blow up near a domain boundary are reported
    with their witness rather than raised."""
    x = as_points(data, g)
    n = x.shape[0]
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    lam = rng.dirichlet(np.ones(n), size=samples)
    pts = np.vstack([x, lam @ x])

    interior = g.domain.rows_inside(pts, interior=True)
    excluded = int((~interior).sum())
    ipts = pts[interior]
    if len(ipts) == 0:
        raise ValidationError("no interior points in the convex closure")

    # K1 bounds the curvature spread across the whole closure: the ratio
    # of the largest Hessian eigenvalue anywhere to the smallest anywhere
    # (a single point's condition number is 1 for every scalar generator
    # and would say nothing about it)
    if g.separable and g.second_deriv is not None:
        ss = np.atleast_2d(g.second_deriv(ipts))
        k1_i = int(np.argmax(ss.max(axis=-1)))
        k1_hat = float(ss.max() / ss.min())
        k1_wit = ipts[k1_i]
    elif g.hessian is not None:
        sub = ipts[:min(len(ipts), 512)]
        eigs = np.array([np.linalg.eigvalsh(hessian_at(g, row)) for row in sub])
        k1_i = int(np.argmax(eigs[:, -1]))
        k1_hat = float(eigs[:, -1].max() / eigs[:, 0].min())
        k1_wit = sub[k1_i]
    else:
        raise CapabilityError(f"{g.name} exposes no curvature information")

    # K2: squared chord slope over sampled pairs
    ii = rng.integers(0, len(pts), size=samples)
    jj = rng.integers(0, len(pts), size=samples)
    keep = ii != jj
    a, b = pts[ii[keep]], pts[jj[keep]]
    dd = ((a - b) ** 2).sum(axis=-1)
    keep2 = dd > 0.0
    df = (np.atleast_1d(g.f(a)) - np.atleast_1d(g.f(b)))[keep2]
    s2 = df * df / dd[keep2]
    k2_i = int(np.argmax(s2))
    k2_hat = float(s2[k2_i])
    k2_wit = (a[keep2][k2_i], b[keep2][k2_i])

    grads = np.atleast_2d(g.grad(ipts))
    rho = 1.0 / np.sqrt(1.0 + (grads ** 2).sum(axis=-1))
    return BoundConstants(
        k1_hat=k1_hat, k2_hat=k2_hat,
        rho_min=float(rho.min()), rho_max=float(rho.max()),
        k1_witness=k1_wit, k2_witness=k2_wit,
        boundary_excluded=excluded)


DEFAULT_EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def seeding_bound_experiment(g: Generator, data, cfg: SeedingConfig,
                             eps_grid=DEFAULT_EPS_GRID,
                             samples: int = 4096) -> ExperimentReport:
    """Mean seeding potential over cfg.trials independent streams vs the
    brute-force discrete optimum, with the plug-in multiplier
    2 U^2 (1+V) (2 + log k) tabulated over eps_grid."""
    x = as_points(data, g)
    opt = brute_force_discrete_optimum(g, cfg.alpha, x, cfg.k)
    pots = np.empty(cfg.trials)
    for t, rng in enumerate(_streams(cfg.rng_seed, cfg.trials)):
        idx = _seed_indices(g, x, cfg.k, cfg.alpha, rng)
        mind, _ = kernels.min_divergence_assign(g, cfg.alpha, x, x[idx])
        pots[t] = mind.sum()
    mean_pot = float(pots.mean())
    if opt.potential > 0.0:
        ratio = mean_pot / opt.potential
    else:
        ratio = 0.0 if mean_pot == 0.0 else math.inf
    constants = estimate_bound_constants(g, x, samples, rng_seed=cfg.rng_seed)
    curve = []
    for eps in eps_grid:
        u = constants.u(eps)
        v = constants.v(eps)
        mult = 2.0 * u * u * (1.0 + v) * (2.0 + math.log(cfg.k))
        curve.append({
            "eps": float(eps), "u": u, "v": v, "multiplier": mult,
            "satisfied": bool(math.isfinite(mult) and ratio <= mult)})
    return ExperimentReport(
        mean_potential=mean_pot, opt_potential=opt.potential, ratio=ratio,
        constants=constants, curve=curve, trials=cfg.trials, k=cfg.k)
