"""Influence of an outlier on the symmetric Jensen centroid.

For a scalar generator, planting mass eps at an outlier y next to an
inlier p moves the alpha=1/2 centroid to first order by eps * z(y) with

    z(y) = 2 (f'((p+y)/2) - f'(p)) / f''(p).

Bounded z means a robust centroid (burg: |z| -> 2p), unbounded z means
not robust (shannon: z grows like 2p log y). The empirical harness
recomputes the centroid with the outlier actually present and compares.
The total-variant chord factor rho_J(p, y) is swept alongside since it
is the quantity that tames the outlier's weight in the total loss.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapabilityError, ValidationError
from .generators import Generator, as_count, as_point, as_real, ensure_domain


@dataclass(frozen=True)
class InfluenceResult:
    z_analytic: float
    z_empirical: float
    x_tilde: float       # perturbed centroid
    epsilon: float


@dataclass(frozen=True)
class SweepReport:
    ys: np.ndarray
    z_values: np.ndarray
    rho_values: np.ndarray
    sup_abs_z: float
    classification: str  # "bounded-flat" or "unbounded-trending"
    tail_rho_log: float  # rho_J(p, y_last) * log(y_last)


def _scalar_gen(g: Generator):
    if g.dim != 1:
        raise CapabilityError("influence analysis is scalar-generator only")
    if g.second_deriv is None:
        raise CapabilityError(f"{g.name} exposes no second derivative")


def _z(g, p, ys):
    """z(y) for each row of ys (m, 1), at a checked interior p of shape (1,)."""
    num = g.grad(0.5 * (p + ys))[:, 0] - g.grad(p)[0]
    return 2.0 * num / g.second_deriv(p)[0]


def influence_analytic(g: Generator, p, y) -> float:
    _scalar_gen(g)
    p = as_point(p, 1)
    y = as_point(y, 1)
    ensure_domain(g, p, interior=True)
    ensure_domain(g, y)
    ensure_domain(g, 0.5 * (p + y), interior=True)
    return float(_z(g, p, y[None, :])[0])


def influence_empirical(g: Generator, p, y, epsilon: float) -> InfluenceResult:
    """Centroid shift per unit outlier mass, measured by actually
    computing the alpha=1/2 centroid of {(p, 1/(1+eps)), (y, eps/(1+eps))}."""
    epsilon = as_real("epsilon", epsilon, hi=0.5)
    z_a = influence_analytic(g, p, y)
    return _centroid_shift(g, float(np.atleast_1d(p)[0]),
                           float(np.atleast_1d(y)[0]), epsilon, z_a)


def _centroid_shift(g, p0, y, epsilon, z_a) -> InfluenceResult:
    """influence_empirical on a checked pair p0, y, epsilon, z_a = z(y)."""
    x = np.array([[p0], [y]])
    w = np.array([1.0 / (1.0 + epsilon), epsilon / (1.0 + epsilon)])
    w /= w.sum()  # as WeightedPointSet.make normalises
    # solved to CCCP_TOL: the first-order comparison needs the exact
    # minimizer, not a budgeted approximation
    c = kernels.cccp_steps(g, 0.5, x, w, w @ x, 500).center
    x_tilde = float(c[0])
    return InfluenceResult(
        z_analytic=z_a, z_empirical=(x_tilde - p0) / epsilon,
        x_tilde=x_tilde, epsilon=epsilon)


def boundedness_sweep(g: Generator, p, y_max: float,
                      per_decade: int = 40) -> SweepReport:
    """|z(y)| over a geometric grid up to y_max, plus the chord factor
    decay rho_J(p, y). Classification compares the first and last decade
    of |z|: a bounded influence flattens, an unbounded one keeps growing."""
    _scalar_gen(g)
    per_decade = as_count("per_decade", per_decade)
    p = as_point(p, 1)
    ensure_domain(g, p, interior=True)
    p0 = float(p[0])
    y0 = 2.0 * abs(p0) if p0 != 0.0 else 1.0
    if not y0 < g.domain.hi:
        raise ValidationError(
            f"the sweep starts at y = {y0}, which leaves no y_max in "
            f"{g.name}'s domain {g.domain.describe()}")
    y_max = float(y_max)
    if y_max <= y0:
        raise ValidationError(f"y_max must exceed {y0}")
    if not g.domain.contains(np.array([y_max])):
        raise ValidationError(
            f"y_max {y_max} is outside {g.name}'s domain "
            f"{g.domain.describe()}")
    decades = math.log10(y_max / y0)
    n = max(2, int(math.ceil(per_decade * decades)) + 1)
    ys = np.geomspace(y0, y_max, n)
    ensure_domain(g, ys[:, None])
    ensure_domain(g, 0.5 * (p + ys[:, None]), interior=True)
    zs = _z(g, p, ys[:, None])
    rhos = kernels.pairwise_conformal(g, p[None, :], ys[:, None])

    azs = np.abs(zs)
    first = azs[ys <= y0 * 10.0]
    last = azs[ys >= y_max / 10.0]
    growth = float(last.max() / max(first.max(), 1e-300))
    classification = "unbounded-trending" if growth > 2.0 else "bounded-flat"
    return SweepReport(
        ys=ys, z_values=zs, rho_values=rhos,
        sup_abs_z=float(azs.max()),
        classification=classification,
        tail_rho_log=float(rhos[-1] * math.log(ys[-1])))
