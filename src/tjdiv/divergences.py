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
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError
from .generators import Generator, as_point, ensure_domain, make_builtin

KINDS = (
    "jensen-raw", "jensen-scaled", "bregman", "total-bregman",
    "total-jensen", "jensen-shannon", "total-jensen-shannon", "kl-gaussian")


@dataclass(frozen=True)
class ConformalFactors:
    """Chord data for a pair (p, q): Delta, Delta_F, s^2, rho_J.

    rho_b_at evaluates the gradient-based factor rho_B at any interior
    point of the same generator's domain.
    """

    generator: Generator
    delta: np.ndarray
    delta_f: float
    slope_sq: float
    rho_j: float

    def rho_b_at(self, point) -> float:
        return rho_b(self.generator, point)


@dataclass(frozen=True)
class DivergenceValue:
    kind: str
    value: float
    factors: Optional[ConformalFactors] = None

    def __float__(self) -> float:
        return self.value


def _alpha_ok(alpha) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    return alpha


def _pair(g, p, q, interior_q=False):
    p = as_point(p, g.dim)
    q = as_point(q, g.dim)
    ensure_domain(g, p)
    ensure_domain(g, q, interior=interior_q)
    return p, q


def rho_b(g: Generator, q) -> float:
    """Gradient conformal factor 1/sqrt(1 + |grad F(q)|^2)."""
    q = as_point(q, g.dim)
    ensure_domain(g, q, interior=True)
    gr = np.asarray(g.grad(q), dtype=np.float64)
    return float(1.0 / math.sqrt(1.0 + float(gr @ gr)))


def conformal_factors(g: Generator, p, q) -> ConformalFactors:
    p, q = _pair(g, p, q)
    if np.array_equal(p, q):
        raise DomainError("conformal factors are undefined at p = q (0/0)")
    delta = p - q
    delta_f = float(g.f(p) - g.f(q))
    dd = float(delta @ delta)
    slope_sq = delta_f * delta_f / dd
    return ConformalFactors(
        generator=g, delta=delta, delta_f=delta_f, slope_sq=slope_sq,
        rho_j=1.0 / math.sqrt(1.0 + slope_sq))


def jensen_raw(g: Generator, alpha, p, q) -> DivergenceValue:
    """Unscaled Jensen gap; alpha in {0,1} is rejected (gap degenerates)."""
    alpha = _alpha_ok(alpha)
    if alpha in (0.0, 1.0):
        raise ValidationError(
            "alpha in {0,1} has a zero raw gap; use the scaled family")
    p, q = _pair(g, p, q)
    if np.array_equal(p, q):
        return DivergenceValue("jensen-raw", 0.0)
    mix = alpha * p + (1.0 - alpha) * q
    ensure_domain(g, mix)  # can exit the domain when alpha is outside [0,1]
    value = float(alpha * g.f(p) + (1.0 - alpha) * g.f(q) - g.f(mix))
    return DivergenceValue("jensen-raw", value)


def bregman(g: Generator, p, q) -> DivergenceValue:
    p, q = _pair(g, p, q, interior_q=True)
    if np.array_equal(p, q):
        return DivergenceValue("bregman", 0.0)
    gq = np.asarray(g.grad(q), dtype=np.float64)
    value = float(g.f(p) - g.f(q) - (p - q) @ gq)
    return DivergenceValue("bregman", value)


def jensen_scaled(g: Generator, alpha, p, q) -> DivergenceValue:
    alpha = _alpha_ok(alpha)
    if alpha == 0.0:
        return DivergenceValue("jensen-scaled", bregman(g, p, q).value)
    if alpha == 1.0:
        return DivergenceValue("jensen-scaled", bregman(g, q, p).value)
    raw = jensen_raw(g, alpha, p, q).value
    return DivergenceValue("jensen-scaled", raw / (alpha * (1.0 - alpha)))


def total_bregman(g: Generator, p, q) -> DivergenceValue:
    p, q = _pair(g, p, q, interior_q=True)
    b = bregman(g, p, q).value
    factors = None
    if not np.array_equal(p, q):
        factors = conformal_factors(g, p, q)
    return DivergenceValue("total-bregman", rho_b(g, q) * b, factors)


def total_jensen(g: Generator, alpha, p, q, scaled: bool = True) -> DivergenceValue:
    """rho_J(p,q) * J_a(p:q); pass scaled=False for rho_J * J'_a.

    p = q returns 0 without touching the undefined chord factor. At
    alpha in {0,1} the scaled family returns rho_J * B (keeping the
    chord factor, which is what the limits actually give).
    """
    alpha = _alpha_ok(alpha)
    p, q = _pair(g, p, q)
    if np.array_equal(p, q):
        return DivergenceValue("total-jensen", 0.0)
    factors = conformal_factors(g, p, q)
    if alpha in (0.0, 1.0):
        if not scaled:
            raise ValidationError(
                "alpha in {0,1} has a zero raw gap; use the scaled family")
        b = bregman(g, p, q).value if alpha == 0.0 else bregman(g, q, p).value
        return DivergenceValue("total-jensen", factors.rho_j * b, factors)
    inner = (jensen_scaled if scaled else jensen_raw)(g, alpha, p, q).value
    return DivergenceValue("total-jensen", factors.rho_j * inner, factors)


def stolarsky_epsilon(g: Generator, p, q, tol: float = 1e-12) -> float:
    """The point where grad F equals the chord slope Delta_F/Delta.

    Scalar generators only. Uses the closed form (grad F)^(-1)(slope)
    when an inverse gradient exists, else a dichotomic search (the
    derivative of a strictly convex F is increasing, so the bracket
    [min(p,q), max(p,q)] always holds a sign change).
    """
    from .errors import CapabilityError, SearchError

    if g.dim != 1:
        raise CapabilityError(
            "the chord-slope point is defined for scalar generators only")
    p, q = _pair(g, p, q)
    if np.array_equal(p, q):
        raise DomainError("p = q leaves the chord slope undefined")
    slope = float((g.f(p) - g.f(q)) / (p[0] - q[0]))
    if g.grad_inverse is not None:
        return float(np.asarray(g.grad_inverse(np.array([slope])))[0])
    lo, hi = float(min(p[0], q[0])), float(max(p[0], q[0]))

    def resid(x):
        return float(np.asarray(g.grad(np.array([x])))[0]) - slope

    rlo, rhi = resid(lo), resid(hi)
    if rlo > 0.0 or rhi < 0.0:
        raise SearchError("no sign change in the chord bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rm = resid(mid)
        if abs(rm) <= tol:
            return mid
        if rm < 0.0:
            lo = mid
        else:
            hi = mid
    raise SearchError(
        f"dichotomic search did not reach tolerance {tol} in 200 steps")


def _js_sum(a, b):
    # sum_i a_i * log(2 a_i / (a_i + b_i)) with 0 log 0 = 0
    out = 0.0
    for ai, bi in zip(a, b):
        if ai > 0.0:
            out += ai * math.log(2.0 * ai / (ai + bi))
    return out


def jensen_shannon(p, q) -> DivergenceValue:
    p = as_point(p)
    q = as_point(q)
    if p.shape != q.shape:
        raise ValidationError("p and q must have the same dimension")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValidationError("jensen-shannon needs nonnegative components")
    value = 0.5 * _js_sum(p, q) + 0.5 * _js_sum(q, p)
    return DivergenceValue("jensen-shannon", value)


def total_jensen_shannon(p, q) -> DivergenceValue:
    """rho_J * JS with the chord factor taken from F(x) = sum x log x - x."""
    p = as_point(p)
    q = as_point(q)
    js = jensen_shannon(p, q).value
    if np.array_equal(p, q):
        return DivergenceValue("total-jensen-shannon", 0.0)
    rho = conformal_factors(make_builtin("shannon", p.size), p, q).rho_j
    return DivergenceValue("total-jensen-shannon", rho * js)


def kl_gaussian(mu1, sigma1, mu2, sigma2) -> DivergenceValue:
    """KL between two Gaussians; invariant under shared rigid motions."""
    mu1 = as_point(mu1)
    mu2 = as_point(mu2)
    s1 = np.atleast_2d(np.asarray(sigma1, dtype=np.float64))
    s2 = np.atleast_2d(np.asarray(sigma2, dtype=np.float64))
    d = mu1.shape[0]
    if mu2.shape[0] != d or s1.shape != (d, d) or s2.shape != (d, d):
        raise ValidationError("dimension mismatch between means/covariances")
    for s in (s1, s2):
        if not np.allclose(s, s.T, atol=1e-10):
            raise ValidationError("covariance must be symmetric")
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            raise ValidationError("covariance must be positive-definite")
    dm = mu1 - mu2
    tr = float(np.trace(np.linalg.solve(s2, s1)))
    quad = float(dm @ np.linalg.solve(s2, dm))
    _, ld1 = np.linalg.slogdet(s1)
    _, ld2 = np.linalg.slogdet(s2)
    value = 0.5 * (tr + quad - (ld1 - ld2) - d)
    return DivergenceValue("kl-gaussian", float(value))
