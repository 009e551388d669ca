"""Epigraph cross-section geometry.

Everything here lives in the 2D vertical plane through (p, F(p)) and
(q, F(q)): abscissa along the chord ground direction (arc length |Delta|
for multivariate inputs), ordinate the generator value. The orthogonal
projection of the graph point ((pq)_a, F((pq)_a)) onto the chord yields
the unscaled total Jensen value as a plain Euclidean distance, which
makes this module an independent oracle for the conformal-factor
formula: no rho_J expression appears anywhere below.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .divergences import bisect
from .errors import DomainError
from .generators import Generator, as_pair, as_real


@dataclass(frozen=True)
class ProjectionResult:
    """Foot of the orthogonal projection onto the chord.

    beta is the chord parameter of the foot (beta=0 at q, beta=1 at p);
    it may fall outside [0, 1] for strongly curved generators. foot is
    the pair (beta*p + (1-beta)*q, beta*F(p) + (1-beta)*F(q)); distance
    is the unscaled total Jensen value.
    """

    beta: float
    foot: Tuple[np.ndarray, float]
    distance: float


def _chord(g, p, q):
    """(p, q, Delta, <Delta,Delta>, F(p), F(q)) of a checked pair p != q."""
    p, q = as_pair(g, p, q)
    if np.array_equal(p, q):
        raise DomainError("the chord degenerates at p = q")
    delta = p - q
    return p, q, delta, float(delta @ delta), float(g.f(p)), float(g.f(q))


def _chord_data(g, alpha, p, q):
    """_chord's tuple with alpha and F((pq)_alpha) spliced in:
    (p, q, alpha, Delta, <Delta,Delta>, F(p), F(q), F((pq)_alpha))."""
    p, q, delta, dd, fp, fq = _chord(g, p, q)
    alpha = as_real("alpha", alpha)
    fmix = float(g.f(alpha * p + (1.0 - alpha) * q))
    return p, q, alpha, delta, dd, fp, fq, fmix


def _foot(p, q, alpha, delta, dd, fp, fq, fmix) -> ProjectionResult:
    """The projection of the graph point onto the chord of _chord_data."""
    df = fp - fq
    beta = (df * (fmix - fq) + alpha * dd) / (dd + df * df)
    foot_pt = beta * p + (1.0 - beta) * q
    foot_val = beta * fp + (1.0 - beta) * fq
    ground = (alpha - beta) * delta
    distance = math.hypot(math.sqrt(float(ground @ ground)), fmix - foot_val)
    return ProjectionResult(beta=float(beta), foot=(foot_pt, float(foot_val)),
                            distance=float(distance))


def project_beta(g: Generator, alpha, p, q) -> ProjectionResult:
    return _foot(*_chord_data(g, alpha, p, q))


def geometric_oracle_tj(g: Generator, alpha, p, q, rotation: float = 0.0) -> float:
    """Unscaled total Jensen value as a raw 2D point-to-line distance.

    Computed with nothing but Euclidean geometry in the cross-section;
    `rotation` spins the three section points by an angle first, which
    cannot change the answer (the testable form of rotation invariance).
    """
    _, _, alpha, _, dd, fp, fq, fmix = _chord_data(g, alpha, p, q)
    width = math.sqrt(dd)
    pts = np.array([
        [0.0, fq],            # chord end at q
        [width, fp],          # chord end at p
        [alpha * width, fmix],  # graph point
    ])
    if rotation != 0.0:
        ca, sa = math.cos(rotation), math.sin(rotation)
        pts = pts @ np.array([[ca, sa], [-sa, ca]])
    chord = pts[1] - pts[0]
    rel = pts[2] - pts[0]
    cross = chord[0] * rel[1] - chord[1] * rel[0]
    return abs(float(cross)) / math.sqrt(float(chord @ chord))


def pythagoras_residual(g: Generator, alpha, p, q) -> float:
    """Relative residual of l^2 + tJ'^2 = J'^2 at the projection foot."""
    chord = _chord_data(g, alpha, p, q)
    res = _foot(*chord)
    _, _, alpha, _, dd, fp, fq, fmix = chord
    df = fp - fq
    jr = alpha * fp + (1.0 - alpha) * fq - fmix  # J', in kernels' order
    leg = abs(alpha - res.beta) * math.sqrt(dd + df * df)
    lhs = leg * leg + res.distance * res.distance
    rhs = jr * jr
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def second_kind_tj(g: Generator, beta: float, p, q, tol: float = 1e-12) -> float:
    """Distance-to-graph variant: drop a perpendicular from the chord
    point at parameter beta onto the generator's graph, and return its
    length scaled by 1/(beta(1-beta)).

    The foot is the intersection on the arc between q and p: its
    parameter alpha solves h(alpha) = Delta_F*F(q + alpha*Delta) +
    alpha*<Delta,Delta> - a = 0, and h(0) = -beta(|Delta|^2 + Delta_F^2)
    < 0 < h(1) = (1-beta)(|Delta|^2 + Delta_F^2). h is convex or concave
    (as Delta_F's sign), so [0, 1], a segment of the domain, holds its
    one root there, found by bisection (no closed form in general).
    """
    beta = as_real("beta", beta)
    p, q, delta, dd, fp, fq = _chord(g, p, q)
    df = fp - fq
    a = beta * (dd + df * df) + df * fq

    def resid(al):
        return df * float(g.f(q + al * delta)) + al * dd - a

    alpha = bisect(resid, 0.0, 1.0, tol)
    fmix = float(g.f(q + alpha * delta))
    chord_val = beta * fp + (1.0 - beta) * fq
    dist = math.hypot((alpha - beta) * math.sqrt(dd), fmix - chord_val)
    return dist / (beta * (1.0 - beta))
