"""Centroids under the Jensen and total Jensen losses.

The plain Jensen centroid is the CCCP fixed-point iteration
c <- (grad F)^(-1)(sum_i w_i grad F(a p_i + (1-a) c)), whose inner loss
is provably non-increasing at every step. The total Jensen centroid
alternates two stages: renormalize the weights by the chord conformal
factors at the current center, then solve the frozen-weight CCCP
problem to tolerance (`kernels.cccp_steps`: Anderson-accelerated, with
`inner_cccp_iters` map evaluations as the cap), recording for each
stage its evaluations, stop and accepted extrapolations. The outer loop
is NOT monotone in the total loss (the frozen factors drop its density
term), so termination uses an improvement threshold plus a
consecutive-increase guard that falls back to the best center seen,
and the result names which of the two, or outer_max_iters, ended it.
Callers must not assume the outer trace decreases.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import kernels
from .errors import CapabilityError, ValidationError
from .generators import (
    Generator, as_count, as_point, as_points, as_real, ensure_domain)


@dataclass(frozen=True)
class WeightedPointSet:
    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), nonnegative, sums to 1

    @classmethod
    def make(cls, points, weights: Optional[Sequence[float]] = None):
        """Checked points with weights scaled to sum to 1 (uniform for
        None)."""
        pts = as_points(points)
        n = len(pts)
        w = np.ones(n) if weights is None else np.asarray(weights, np.float64)
        if w.shape != (n,):
            raise ValidationError(f"{n} points but weight shape {w.shape}")
        if not (np.all(np.isfinite(w)) and np.all(w >= 0.0) and w.any()):
            raise ValidationError(
                "weights must be finite, nonnegative and not all zero")
        with np.errstate(over="ignore"):
            if w.sum() == math.inf:  # finite weights whose sum overflows
                w = w / w.max()
        return cls(points=pts, weights=w / w.sum())

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

    def __post_init__(self):
        as_real("alpha", self.alpha)
        as_count("inner_cccp_iters", self.inner_cccp_iters)
        as_real("outer_tol", self.outer_tol, hi=math.inf)
        as_count("outer_max_iters", self.outer_max_iters)


@dataclass(frozen=True)
class CentroidResult:
    center: np.ndarray
    loss_trace: List[float]
    converged: bool
    iterations: int
    # "converged" (outer_tol met), "oscillation" (5 increases in a row)
    # or "max_iters" (outer_max_iters stages ran)
    stop_reason: str
    stages: List[kernels.StageSolve]  # one per stage, in order


def _check_inputs(g: Generator, data: WeightedPointSet):
    if data.dim != g.dim:
        raise ValidationError(
            f"data dimension {data.dim} does not match generator {g.dim}")
    if g.grad_inverse is None:
        raise CapabilityError(
            f"{g.name} has no inverse gradient; fixed-point updates need one")
    ensure_domain(g, data.points)


def _barycenter(g: Generator, data: WeightedPointSet) -> np.ndarray:
    c = data.weights @ data.points
    ensure_domain(g, c, interior=True)
    return c


def jensen_centroid_cccp(g: Generator, alpha, data: WeightedPointSet,
                         iters: int = 20, trace_loss: bool = False):
    """`iters` plain CCCP steps from the barycenter, under the point
    weights of data: no extrapolation, so the inner loss falls at every
    step.

    With trace_loss=True also returns the inner loss sum_i w_i J_a(p_i:c)
    before the first step and after each step (length iters + 1); the
    centre is the same either way.
    """
    alpha = as_real("alpha", alpha)
    iters = as_count("iters", iters, lo=0)
    _check_inputs(g, data)
    w = data.weights
    c = _barycenter(g, data)
    fx = g.f(data.points) if trace_loss else None
    losses = []
    for _ in range(iters):
        if trace_loss:
            losses.append(
                kernels.jensen_loss(g, alpha, data.points, w, c, fx=fx))
        c = kernels.cccp_steps(g, alpha, data.points, w, c, 1).center
    if not trace_loss:
        return c
    losses.append(kernels.jensen_loss(g, alpha, data.points, w, c, fx=fx))
    return c, losses


def total_loss(g: Generator, alpha, data: WeightedPointSet, c) -> float:
    """L(c; w) = sum_i w_i tJ_a(p_i : c) with the original weights, the
    points and c in g's domain."""
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if c.ndim != 1:
        raise ValidationError(f"a center is one point, got shape {c.shape}")
    return float(data.weights @ kernels.pairwise_total_jensen(
        g, alpha, as_points(data.points, g), as_points(c[None, :], g)))


def total_jensen_centroid(g: Generator, data: WeightedPointSet,
                          cfg: CentroidConfig = CentroidConfig(),
                          init=None) -> CentroidResult:
    """Two-stage loop: conformal weight renormalization, then a
    frozen-weight CCCP stage solved to tolerance, from `init` (a point in
    the interior of g's domain) or else the barycenter. Non-convergence
    is reported (stop_reason), never raised."""
    _check_inputs(g, data)
    if init is not None:
        c = as_point(init, g.dim)
        ensure_domain(g, c, interior=True)
    else:
        c = _barycenter(g, data)
    return _total_jensen_centroid(g, data, cfg, c, g.f(data.points))


def _total_jensen_centroid(g: Generator, data: WeightedPointSet,
                           cfg: CentroidConfig, start: np.ndarray,
                           fx: np.ndarray) -> CentroidResult:
    """total_jensen_centroid from `start`, with no input checks: the
    caller has checked data.points against g's domain and start against its
    interior (lloyd_cluster does so once for all of a round's clusters).
    fx = F(data.points), which every stage reads."""
    def loss_and_rho(c):  # the loss at c and the next stage's rho_J at c
        vals, rho = kernels.total_jensen_and_conformal(
            g, cfg.alpha, data.points, c[None, :], fp=fx)
        return float(data.weights @ vals), rho

    c = start
    loss_prev, rho = loss_and_rho(c)
    loss_trace = [loss_prev]
    stages: List[kernels.StageSolve] = []
    stop_reason = "max_iters"
    increases = 0
    for _ in range(cfg.outer_max_iters):
        wt = data.weights * rho
        stages.append(kernels.cccp_steps(
            g, cfg.alpha, data.points, wt / wt.sum(), c, cfg.inner_cccp_iters))
        c = stages[-1].center
        loss, rho = loss_and_rho(c)
        loss_trace.append(loss)
        if abs(loss_prev - loss) < cfg.outer_tol:
            stop_reason = "converged"
            break
        increases = increases + 1 if loss > loss_prev else 0
        if increases >= 5:
            stop_reason = "oscillation"
            break
        loss_prev = loss

    # the first least loss: min keeps the first of equal keys, and a NaN
    # never replaces the least so far; entry 0 is the start's
    best = min(range(len(loss_trace)), key=loss_trace.__getitem__)
    return CentroidResult(
        center=stages[best - 1].center if best else start,
        loss_trace=loss_trace,
        converged=stop_reason == "converged", iterations=len(stages),
        stop_reason=stop_reason, stages=stages)


def left_sided_centroid(g: Generator, data: WeightedPointSet,
                        cfg: CentroidConfig = CentroidConfig(),
                        init=None) -> CentroidResult:
    """Left-sided total Jensen centroid: the right-sided one at 1 - alpha."""
    return total_jensen_centroid(
        g, data, replace(cfg, alpha=1.0 - cfg.alpha), init)
