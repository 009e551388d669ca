"""Centroids under the Jensen and total Jensen losses.

The plain Jensen centroid is the CCCP fixed-point iteration
c <- (grad F)^(-1)(sum_i w_i grad F(a p_i + (1-a) c)), whose inner loss
is provably non-increasing at every step. The total Jensen centroid
minimises L(c) = sum_i w_i tJ_a(p_i : c) in two phases. Its stages
renormalize the weights by the chord conformal factors at the current
center, then solve the frozen-weight CCCP problem to tolerance
(`kernels.cccp_steps`: Anderson-accelerated, with `inner_cccp_iters`
map evaluations as the cap). The frozen factors drop L's density term,
so the stages are not monotone in L and their fixed point is not
stationary for it: they stop once a stage changes L by at most
outer_tol of it ("converged"), raises it ("rose") or outer_max_iters
have run. From the first least stage iterate (the start included), a
monotone L-BFGS descent on L then runs to a relative gradient
tolerance, unless the stages hit their cap. The result records each
stage and the descent: evaluations, stop and accepted steps.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import kernels
from .errors import CapabilityError, ValidationError
from .generators import (
    Generator, as_count, as_point, as_points, as_real, ensure_domain,
    hessian_at)


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
    loss_trace: List[float]  # the start's, each stage's, each step's
    converged: bool  # the descent met kernels.DESCENT_TOL
    iterations: int  # loss evaluations: one per stage and descent eval
    stop_reason: str  # of the stages: "converged", "rose" or "max_iters"
    stages: List[kernels.StageSolve]  # one per stage, in order
    descent: Optional[kernels.StageSolve]  # "tol", "cap", "flat"; or None
    grad_inf: Optional[float]  # |grad L|_inf |center|_inf / L, or None


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
    """Stages of conformal weight renormalization, each then a
    frozen-weight CCCP stage solved to tolerance, and a descent on the
    loss, from `init` (a point in the interior of g's domain) or else the
    barycenter. Non-convergence is reported, never raised."""
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
    loss, rho = loss_and_rho(c)
    loss_trace = [loss]
    stages: List[kernels.StageSolve] = []
    stop_reason = "max_iters"
    for _ in range(cfg.outer_max_iters):
        wt = data.weights * rho
        stages.append(kernels.cccp_steps(
            g, cfg.alpha, data.points, wt / wt.sum(), c, cfg.inner_cccp_iters))
        c = stages[-1].center
        prev, (loss, rho) = loss, loss_and_rho(c)
        loss_trace.append(loss)
        if abs(prev - loss) <= cfg.outer_tol * abs(prev) or loss > prev:
            stop_reason = "rose" if loss > prev else "converged"
            break

    # the first least loss: min keeps the first of equal keys, and a NaN
    # never replaces the least so far; entry 0 is the start's
    best = min(range(len(loss_trace)), key=loss_trace.__getitem__)
    c = stages[best - 1].center if best else start
    descent = grad_inf = None
    if stop_reason != "max_iters":
        c, steps, grad_inf, descent = _descend(g, cfg, data, fx, c)
        loss_trace += steps
    return CentroidResult(
        center=c, loss_trace=loss_trace,
        converged=descent is not None and descent.stop == "tol",
        iterations=len(stages) + (descent.evals if descent else 0),
        stop_reason=stop_reason, stages=stages, descent=descent,
        grad_inf=grad_inf)


_LBFGS_MEMORY = 5
_ARMIJO = 1e-4  # the fraction of the predicted decrease a step must keep


def _descend(g: Generator, cfg: CentroidConfig, data: WeightedPointSet,
             fx: np.ndarray, c: np.ndarray):
    """Monotone L-BFGS descent on L from c, with Armijo backtracking
    (Nocedal & Wright 2006, alg. 7.4, 3.1), in at most inner_cccp_iters
    (L, grad L) evaluations, the first at c. It stops at a relative
    gradient |grad L|_inf |c|_inf / L of kernels.DESCENT_TOL ("tol"), at
    the cap, or when a step's predicted decrease is below L's rounding
    ("flat"). H0 is F's inverse Hessian at c (else L / |grad L|^2), and
    a step out of the domain's interior is halved unevaluated. Returns
    (centre, accepted losses, relative gradient, StageSolve)."""
    def evaluate(c):
        return kernels.total_jensen_loss_grad(
            g, cfg.alpha, data.points, data.weights, c, fx=fx)

    def relative():
        top = float(np.abs(grad).max() * np.abs(c).max())
        return top / abs(loss) if loss else (math.inf if top else 0.0)

    loss, grad = evaluate(c)
    try:
        h = np.linalg.inv(hessian_at(g, c))
    except CapabilityError:
        h = np.eye(g.dim) * (loss / gg if (gg := grad @ grad) else 1.0)
    evals, losses, mem = 1, [], []  # mem: (s, y, 1 / s'y) oldest first
    stop = "cap"
    while not (rel := relative()) <= kernels.DESCENT_TOL:  # NaN goes on
        d = -_two_loop(grad, mem, h)
        if not (gd := grad @ d) < 0.0:  # not a descent direction
            mem.clear()
            gd = grad @ (d := -h @ grad)
        t, cand = 2.0, None
        while evals < cfg.inner_cccp_iters and cand is None:
            t *= 0.5
            if not -t * gd > 4.0 * np.finfo(float).eps * abs(loss):
                stop = "flat"
                break
            trial = c + t * d
            if g.domain.rows_inside(trial, interior=True):  # NaN is not
                new_loss, new_grad = evaluate(trial)
                evals += 1
                if new_loss < loss and new_loss <= loss + _ARMIJO * t * gd:
                    cand = trial
        if cand is None:
            break
        s, y = cand - c, new_grad - grad
        if (sy := s @ y) > 0.0:  # keeps the inverse positive definite
            mem = mem[1 - _LBFGS_MEMORY:] + [(s, y, 1.0 / sy)]
        c, loss, grad = cand, new_loss, new_grad
        losses.append(loss)
    else:
        stop = "tol"
    return c, losses, rel, kernels.StageSolve(c, evals, stop, len(losses))


def _two_loop(grad, mem, h):
    """L-BFGS's H grad, from h scaled by s'y / y'hy of the last pair."""
    q, alphas = grad.copy(), []
    for s, y, r in reversed(mem):
        alphas.append(r * (s @ q))
        q -= alphas[-1] * y
    q = h @ q
    if mem:
        s, y, r = mem[-1]
        q /= r * (y @ h @ y)
    for (s, y, r), a in zip(mem, reversed(alphas)):
        q += (a - r * (y @ q)) * s
    return q


def left_sided_centroid(g: Generator, data: WeightedPointSet,
                        cfg: CentroidConfig = CentroidConfig(),
                        init=None) -> CentroidResult:
    """Left-sided total Jensen centroid: the right-sided one at 1 - alpha."""
    return total_jensen_centroid(
        g, data, replace(cfg, alpha=1.0 - cfg.alpha), init)
