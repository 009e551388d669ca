"""Centroids under the Jensen and total Jensen losses.

The plain Jensen centroid is a fixed-point iteration
c <- (grad F)^(-1)(sum_i w_i grad F(a c + (1-a) p_i)), whose inner loss
is provably non-increasing. The total Jensen centroid alternates two
stages: renormalize the weights by the chord conformal factors at the
current center, then run k fixed-point steps with those weights frozen.
The outer loop is NOT monotone in the total loss (the frozen factors
drop its density term), so termination uses an improvement threshold
plus a consecutive-increase guard that falls back to the best center
seen. Callers must not assume the outer trace decreases.
"""

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import kernels
from .errors import CapabilityError, DomainError, ValidationError
from .generators import Generator, as_points, ensure_domain


@dataclass(frozen=True)
class WeightedPointSet:
    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), nonnegative, sums to 1

    @classmethod
    def make(cls, points, weights: Optional[Sequence[float]] = None):
        pts = as_points(points)
        if weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (pts.shape[0],):
                raise ValidationError(
                    f"{pts.shape[0]} points but weight shape {w.shape}")
            if np.any(w < 0.0) or not np.all(np.isfinite(w)):
                raise ValidationError("weights must be finite and nonnegative")
            total = w.sum()
            if total <= 0.0:
                raise ValidationError("weights must not all be zero")
            w = w / total
        return cls(points=pts, weights=w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CentroidConfig:
    alpha: float = 0.5
    inner_cccp_iters: int = 20
    outer_tol: float = 1e-10
    outer_max_iters: int = 1000
    init: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.outer_tol <= 0.0:
            raise ValidationError("outer_tol must be positive")
        if self.inner_cccp_iters < 1 or self.outer_max_iters < 1:
            raise ValidationError("iteration counts must be >= 1")


@dataclass(frozen=True)
class CentroidResult:
    center: np.ndarray
    loss_trace: List[float]
    stage_weights_trace: List[np.ndarray]
    converged: bool
    iterations: int
    clamp_events: int = field(default=0)


def _check_inputs(g: Generator, data: WeightedPointSet):
    if data.dim != g.dim:
        raise ValidationError(
            f"data dimension {data.dim} does not match generator {g.dim}")
    if not g.has_grad_inverse:
        raise CapabilityError(
            f"{g.name} has no inverse gradient; fixed-point updates need one")
    ensure_domain(g, data.points)


def _barycenter(g: Generator, data: WeightedPointSet) -> np.ndarray:
    c = data.weights @ data.points
    ensure_domain(g, c, interior=True)
    return c


def jensen_centroid_cccp(g: Generator, alpha, data: WeightedPointSet,
                         weights_override=None, iters: int = 20,
                         trace_loss: bool = False):
    """Fixed-count fixed-point iteration from the barycenter.

    With trace_loss=True also returns the inner loss sum_i w_i J_a(p_i:c)
    before the first step and after each step (length iters + 1).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0,1), got {alpha}")
    _check_inputs(g, data)
    w = data.weights
    if weights_override is not None:
        w = np.asarray(weights_override, dtype=np.float64)
        if w.shape != (data.n,) or np.any(w < 0.0):
            raise ValidationError("override weights malformed")
        w = w / w.sum()
    c = _barycenter(g, data)
    if not trace_loss:
        return kernels.cccp_steps(g, alpha, data.points, w, c, iters)
    losses = [_jensen_loss(g, alpha, data.points, w, c)]
    for _ in range(int(iters)):
        c = kernels.cccp_steps(g, alpha, data.points, w, c, 1)
        losses.append(_jensen_loss(g, alpha, data.points, w, c))
    return c, losses


def _jensen_loss(g, alpha, pts, w, c):
    fa = alpha * g.f(pts) + (1.0 - alpha) * g.f(c) \
        - g.f(alpha * pts + (1.0 - alpha) * c)
    return float(w @ fa) / (alpha * (1.0 - alpha))


def total_loss(g: Generator, alpha, data: WeightedPointSet, c) -> float:
    """L(c; w) = sum_i w_i tJ_a(p_i : c) with the original weights."""
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    vals = kernels.pairwise_total_jensen(
        g, alpha, data.points, np.broadcast_to(c, data.points.shape))
    return float(data.weights @ vals)


def total_jensen_centroid(g: Generator, data: WeightedPointSet,
                          cfg: CentroidConfig = CentroidConfig()) -> CentroidResult:
    """Two-stage loop: conformal weight renormalization, then k frozen
    fixed-point steps. Non-convergence is reported, never raised."""
    _check_inputs(g, data)
    if cfg.init is not None:
        c = np.atleast_1d(np.asarray(cfg.init, dtype=np.float64))
        ensure_domain(g, c, interior=True)
    else:
        c = _barycenter(g, data)
    return _total_jensen_centroid(g, data, cfg, c)


def _total_jensen_centroid(g: Generator, data: WeightedPointSet,
                           cfg: CentroidConfig, c: np.ndarray) -> CentroidResult:
    """total_jensen_centroid from the start c, with no input checks: the
    caller has checked data.points against g's domain and c against its
    interior (lloyd_cluster does so once for all of a round's clusters)."""
    alpha = cfg.alpha
    loss_prev = total_loss(g, alpha, data, c)
    loss_trace = [loss_prev]
    weights_trace: List[np.ndarray] = []
    best_loss, best_c = loss_prev, c
    converged = False
    increases = 0
    t = 0
    for t in range(1, cfg.outer_max_iters + 1):
        rho = kernels.pairwise_conformal(
            g, data.points, np.broadcast_to(c, data.points.shape))
        wt = data.weights * rho
        wt = wt / wt.sum()
        weights_trace.append(wt)
        c = kernels.cccp_steps(
            g, alpha, data.points, wt, c, cfg.inner_cccp_iters)
        loss = total_loss(g, alpha, data, c)
        loss_trace.append(loss)
        if loss < best_loss:
            best_loss, best_c = loss, c
        if abs(loss_prev - loss) < cfg.outer_tol:
            converged = True
            break
        increases = increases + 1 if loss > loss_prev else 0
        if increases >= 5:
            break  # oscillating; keep the best center seen
        loss_prev = loss

    return CentroidResult(
        center=best_c, loss_trace=loss_trace,
        stage_weights_trace=weights_trace,
        converged=converged, iterations=t)


def left_sided_centroid(g: Generator, data: WeightedPointSet,
                        cfg: CentroidConfig = CentroidConfig()) -> CentroidResult:
    """Left-sided total Jensen centroid: the right-sided one at 1 - alpha."""
    return total_jensen_centroid(g, data, replace(cfg, alpha=1.0 - cfg.alpha))
