"""The divergence hierarchy built on a convex generator.

Definitions, with Delta = p - q and Delta_F = F(p) - F(q) throughout:

    J'_a(p:q) = a F(p) + (1-a) F(q) - F(a p + (1-a) q)     (raw gap)
    J_a       = J'_a / (a (1-a)), with exact one-sided
                tangent-gap branches at a = 0 and a = 1
    B(p:q)    = F(p) - F(q) - <Delta, grad F(q)>
    tB        = rho_B(q) B(p:q),  rho_B(q) = 1/sqrt(1+|grad F(q)|^2)
    tJ_a      = rho_J(p,q) J_a,   rho_J = 1/sqrt(1 + Delta_F^2/<Delta,Delta>)

rho_J depends only on squares, so it is symmetric in (p, q) and
indifferent to the sign convention. At a in {0, 1} the total family
keeps the chord factor rho_J (it does NOT become tB).

alpha lies in [0, 1] (the raw gap: (0, 1)), else ValidationError. Each
function checks each of its points once, through `generators`, then
reads J'_a, B, the chord slope, rho_J and rho_B from `kernels` on
(1, d) rows: a value is the kernel entry's float, except that a Jensen
or Bregman value (raw, scaled or total) whose rounding falls below 0
reads 0, as every such gap is >= 0 for convex F. NaN passes through;
a Bregman gap that overflows float64 raises ValidationError.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapabilityError, DomainError, SearchError, ValidationError
from .generators import (
    Generator, as_pair, as_point, as_real, as_spd, ensure_domain, make_builtin)

KINDS = (
    "jensen-raw", "jensen-scaled", "bregman", "total-bregman",
    "total-jensen", "jensen-shannon", "total-jensen-shannon", "kl-gaussian")


@dataclass(frozen=True)
class ConformalFactors:
    """Chord data for a pair (p, q): Delta, Delta_F, s^2, rho_J."""

    delta: np.ndarray
    delta_f: float
    slope_sq: float
    rho_j: float


@dataclass(frozen=True)
class DivergenceValue:
    kind: str
    value: float

    def __float__(self) -> float:
        return self.value


def _alpha_ok(alpha, raw=False) -> float:
    alpha = as_real("alpha", alpha, closed=True)
    if raw and alpha in (0.0, 1.0):
        raise ValidationError(
            "alpha in {0,1} has a zero raw gap; use the scaled family")
    return alpha


def rho_b(g: Generator, q) -> float:
    """Gradient conformal factor 1/sqrt(1 + |grad F(q)|^2)."""
    q = as_point(q, g.dim)
    ensure_domain(g, q, interior=True)
    return float(kernels.gradient_conformal(g, q[None])[0])


def conformal_factors(g: Generator, p, q) -> ConformalFactors:
    p, q = as_pair(g, p, q)
    if np.array_equal(p, q):
        raise DomainError("conformal factors are undefined at p = q (0/0)")
    df, s2, rho = kernels.chord_factors(g, p[None], q[None])
    return ConformalFactors(p - q, float(df[0]), float(s2[0]), float(rho[0]))


def jensen_raw(g: Generator, alpha, p, q) -> DivergenceValue:
    """Unscaled Jensen gap; alpha in {0,1} is rejected (gap degenerates)."""
    alpha = _alpha_ok(alpha, raw=True)
    p, q = as_pair(g, p, q)
    gap = kernels.jensen_gap_and_conformal(g, alpha, p[None], q[None])[0]
    return DivergenceValue("jensen-raw", max(float(gap[0]), 0.0))


def _bregman(g, p, q) -> float:
    """B(p:q) of a checked pair, q interior, read as 0 below 0. A gap
    that overflows raises: burg's grad F(q) = -1/q is -inf at a
    subnormal q, where B would read inf (NaN where p_i = q_i) and tB
    0 * inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = float(kernels.bregman_gap(g, p[None], q[None])[0])
        if math.isinf(gap) or (
                math.isnan(gap) and not np.isfinite(g.grad(q)).all()):
            raise ValidationError(
                f"B(p:q) overflows float64: grad F at {q.tolist()} or F "
                f"lies beyond the float64 range")
    return max(gap, 0.0)


def bregman(g: Generator, p, q) -> DivergenceValue:
    p, q = as_pair(g, p, q, interior_q=True)
    return DivergenceValue("bregman", _bregman(g, p, q))


def jensen_scaled(g: Generator, alpha, p, q) -> DivergenceValue:
    alpha = _alpha_ok(alpha)
    if alpha == 0.0:
        return DivergenceValue("jensen-scaled", bregman(g, p, q).value)
    if alpha == 1.0:
        return DivergenceValue("jensen-scaled", bregman(g, q, p).value)
    raw = jensen_raw(g, alpha, p, q).value
    return DivergenceValue("jensen-scaled", raw / (alpha * (1.0 - alpha)))


def total_bregman(g: Generator, p, q) -> DivergenceValue:
    p, q = as_pair(g, p, q, interior_q=True)
    gap = _bregman(g, p, q)  # first: it raises where grad F(q) overflows
    rho = float(kernels.gradient_conformal(g, q[None])[0])
    return DivergenceValue("total-bregman", rho * gap)


def total_jensen(g: Generator, alpha, p, q, scaled: bool = True) -> DivergenceValue:
    """rho_J(p,q) * J_a(p:q); pass scaled=False for rho_J * J'_a.

    p = q returns 0. At alpha = 0 (1) the scaled family returns rho_J *
    B(p:q) (B(q:p)), as the limits do; q (p) must be interior, p = q too.
    """
    alpha = _alpha_ok(alpha, raw=not scaled)
    if alpha == 1.0:  # rho_J is symmetric, bit for bit
        p, q, alpha = q, p, 0.0
    p, q = as_pair(g, p, q, interior_q=alpha == 0.0)
    p1, q1 = p[None], q[None]
    if alpha == 0.0:
        value = kernels.pairwise_conformal(g, p1, q1) * _bregman(g, p, q)
    elif scaled:
        value = kernels.total_jensen_and_conformal(g, alpha, p1, q1)[0]
    else:
        gap, rho = kernels.jensen_gap_and_conformal(g, alpha, p1, q1)
        value = rho * gap
    return DivergenceValue("total-jensen", max(float(value[0]), 0.0))


def stolarsky_epsilon(g: Generator, p, q, tol: float = 1e-12) -> float:
    """The point where grad F equals the chord slope Delta_F/Delta.

    Scalar generators only. Uses the closed form (grad F)^(-1)(slope)
    when an inverse gradient exists, else a dichotomic search (the
    derivative of a strictly convex F is increasing, so the bracket
    [min(p,q), max(p,q)] always holds a sign change).
    """
    if g.dim != 1:
        raise CapabilityError(
            "the chord-slope point is defined for scalar generators only")
    p, q = as_pair(g, p, q)
    if np.array_equal(p, q):
        raise DomainError("p = q leaves the chord slope undefined")
    slope = float((g.f(p) - g.f(q)) / (p[0] - q[0]))
    if g.grad_inverse is not None:
        return float(np.asarray(g.grad_inverse(np.array([slope])))[0])
    lo, hi = float(min(p[0], q[0])), float(max(p[0], q[0]))

    def resid(x):
        return float(np.asarray(g.grad(np.array([x])))[0]) - slope

    if resid(lo) > 0.0 or resid(hi) < 0.0:
        raise SearchError("no sign change in the chord bracket")
    return bisect(resid, lo, hi, tol)


def bisect(resid, lo: float, hi: float, tol: float) -> float:
    """The root of resid in [lo, hi], where resid < 0 left of the root
    and > 0 right of it: the first midpoint with |resid| <= tol, or the
    last one before the bracket stops shrinking."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rm = resid(mid)
        if abs(rm) <= tol or mid in (lo, hi):
            return mid
        if rm < 0.0:
            lo = mid
        else:
            hi = mid
    raise SearchError(
        f"bisection did not reach tolerance {tol} in 200 steps")


def _js_sum(a, b):
    # sum_i a_i * log(2 a_i / (a_i + b_i)) with 0 log 0 = 0
    out = 0.0
    for ai, bi in zip(a.tolist(), b.tolist()):
        if ai > 0.0:
            out += ai * math.log(2.0 * ai / (ai + bi))
    return out


def _js_and_rho(p, q):
    """(JS, rho_J under shannon, F(x) = sum x log x - x) of a pair
    checked once in shannon's domain; JS 0 and rho_J 1 where p = q."""
    g = make_builtin("shannon", as_point(p).size)
    p, q = as_pair(g, p, q)
    rho = float(kernels.pairwise_conformal(g, p[None], q[None])[0])
    return 0.5 * _js_sum(p, q) + 0.5 * _js_sum(q, p), rho


def jensen_shannon(p, q) -> DivergenceValue:
    return DivergenceValue("jensen-shannon", _js_and_rho(p, q)[0])


def total_jensen_shannon(p, q) -> DivergenceValue:
    """rho_J * JS with the chord factor taken from F(x) = sum x log x - x."""
    js, rho = _js_and_rho(p, q)
    return DivergenceValue("total-jensen-shannon", rho * js)


def kl_gaussian(mu1, sigma1, mu2, sigma2) -> DivergenceValue:
    """KL between two Gaussians; invariant under shared rigid motions."""
    mu1 = as_point(mu1)
    mu2 = as_point(mu2)
    d = mu1.shape[0]
    if mu2.shape[0] != d:
        raise ValidationError("the means differ in dimension")
    s1 = as_spd("covariance", sigma1, d)
    s2 = as_spd("covariance", sigma2, d)
    dm = mu1 - mu2
    tr = float(np.trace(np.linalg.solve(s2, s1)))
    quad = float(dm @ np.linalg.solve(s2, dm))
    _, ld1 = np.linalg.slogdet(s1)
    _, ld2 = np.linalg.slogdet(s2)
    value = 0.5 * (tr + quad - (ld1 - ld2) - d)
    return DivergenceValue("kl-gaussian", float(value))
