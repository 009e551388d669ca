"""Cross-section geometry: projections, the 2D oracle, second-kind feet."""

import math

import numpy as np
import pytest
from scipy.special import lambertw

from tjdiv.divergences import conformal_factors, jensen_raw, total_jensen
from tjdiv.errors import DomainError, ValidationError
from tjdiv.generators import make_builtin
from tjdiv.geometry import (
    geometric_oracle_tj, project_beta, pythagoras_residual, second_kind_tj)

GENS = {
    "shannon": (0.1, 5.0),
    "burg": (0.1, 5.0),
    "bit": (0.05, 0.95),
    "squared-euclidean": (-4.0, 4.0),
}


def _random_case(rng, name, dim=1):
    # keep chords at least 5% of the box long: the identities below are
    # exact, but their floating-point residuals blow past tolerance once
    # the chord gap drops near eps * |F|
    lo, hi = GENS[name]
    g = make_builtin(name, dim)
    while True:
        p = rng.uniform(lo, hi, size=dim)
        q = rng.uniform(lo, hi, size=dim)
        if np.linalg.norm(p - q) > 0.05 * (hi - lo):
            return g, p, q, rng.uniform(0.05, 0.95)


def test_projection_exhibit_half_square():
    g = make_builtin("squared-euclidean")
    res = project_beta(g, 0.4, [0.0], [1.0])
    # hand geometry: chord from (0, 0.5) to (1, 0), graph point (0.6, 0.18)
    assert res.beta == pytest.approx(0.448, abs=1e-15)
    assert float(res.foot[0][0]) == pytest.approx(0.552, abs=1e-15)
    assert res.foot[1] == pytest.approx(0.276, abs=1e-15)
    assert res.distance == pytest.approx(0.1073312629199899, abs=1e-15)


def test_projection_distance_equals_scaled_jensen():
    rng = np.random.default_rng(61)
    for name in GENS:
        for _ in range(50):
            g, p, q, a = _random_case(rng, name)
            res = project_beta(g, a, p, q)
            expect = (conformal_factors(g, p, q).rho_j
                      * jensen_raw(g, a, p, q).value)
            assert res.distance == pytest.approx(expect, rel=1e-11, abs=1e-14)


def test_geometric_oracle_matches_conformal_formula():
    rng = np.random.default_rng(67)
    for name in GENS:
        for dim in (1, 3):
            for _ in range(40):
                g, p, q, a = _random_case(rng, name, dim)
                oracle = geometric_oracle_tj(g, a, p, q)
                formula = total_jensen(g, a, p, q, scaled=False).value
                assert oracle == pytest.approx(formula, rel=1e-9, abs=1e-13)


def test_geometric_oracle_rotation_invariant():
    rng = np.random.default_rng(71)
    for _ in range(100):
        g, p, q, a = _random_case(rng, "shannon")
        base = geometric_oracle_tj(g, a, p, q)
        spun = geometric_oracle_tj(g, a, p, q, rotation=rng.uniform(0, 2 * math.pi))
        assert spun == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_pythagorean_identity_random():
    rng = np.random.default_rng(73)
    for name in GENS:
        for _ in range(50):
            g, p, q, a = _random_case(rng, name)
            assert pythagoras_residual(g, a, p, q) < 1e-10


def test_foot_parameter_identity():
    # alpha - beta = (Delta_F / (Delta^2 + Delta_F^2)) * J'_alpha
    rng = np.random.default_rng(79)
    for name in GENS:
        for _ in range(50):
            g, p, q, a = _random_case(rng, name)
            res = project_beta(g, a, p, q)
            delta = p - q
            dd = float(delta @ delta)
            df = float(g.f(p) - g.f(q))
            rhs = df / (dd + df * df) * jensen_raw(g, a, p, q).value
            assert (a - res.beta) == pytest.approx(rhs, abs=1e-12)


def test_foot_can_leave_the_chord_segment():
    g = make_builtin("shannon")
    res = project_beta(g, 1e-5, [3.0], [1e-12])
    assert res.beta < 0.0
    assert res.beta == pytest.approx(-1.2438194835576318e-06, rel=1e-6)
    assert pythagoras_residual(g, 1e-5, [3.0], [1e-12]) < 1e-10
    # the swapped chord with mirrored skew pushes the foot past 1
    mirrored = project_beta(g, 1.0 - 1e-5, [1e-12], [3.0])
    assert mirrored.beta > 1.0
    assert mirrored.beta == pytest.approx(1.0 - res.beta, abs=1e-12)


def test_projection_rejects_degenerate_chord():
    g = make_builtin("burg")
    with pytest.raises(DomainError):
        project_beta(g, 0.5, [2.0], [2.0])
    with pytest.raises(ValidationError):
        project_beta(g, 0.0, [1.0], [2.0])
    with pytest.raises(ValidationError):
        project_beta(g, 1.0, [1.0], [2.0])


def test_second_kind_half_square_closed_form():
    # for F = x^2/2 the foot parameter alpha solves the quadratic
    # (df dd / 2) alpha^2 + (df q dlt + dd) alpha - beta (dd + df^2) = 0,
    # whose root in [0, 1] is the foot on the arc; on the chord p=0, q=1
    # it reads alpha^2 - 6 alpha + 5 beta = 0. On (2, -1) the other root,
    # alpha ~ -1.31, lies off the arc: a search started left of 0 once
    # returned it (48.44 at beta = 1/2 against 3.716 for the swap)
    g = make_builtin("squared-euclidean")
    for p, q in ((0.0, 1.0), (2.0, -1.0), (-1.0, 2.0)):
        dlt, df = p - q, 0.5 * (p * p - q * q)
        dd = dlt * dlt
        for beta in (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9):
            a2, a1, a0 = 0.5 * df * dd, df * q * dlt + dd, -beta * (dd + df * df)
            alpha = next(r.real for r in np.roots([a2, a1, a0])
                         if 0.0 <= r.real <= 1.0)
            u = q + alpha * dlt
            chord_val = beta * 0.5 * p * p + (1.0 - beta) * 0.5 * q * q
            expect = math.hypot((alpha - beta) * abs(dlt),
                                0.5 * u * u - chord_val) / (beta * (1.0 - beta))
            got = second_kind_tj(g, beta, [p], [q])
            assert got == pytest.approx(expect, rel=1e-9)
    # at beta = 1/2 the chord point is the midpoint either way round
    assert second_kind_tj(g, 0.5, [2.0], [-1.0]) == pytest.approx(
        second_kind_tj(g, 0.5, [-1.0], [2.0]), rel=1e-12)
    assert second_kind_tj(g, 0.5, [2.0], [-1.0]) == pytest.approx(
        3.716130, rel=1e-6)


def test_second_kind_burg_closed_form_via_lambert_w():
    g = make_builtin("burg")
    p, q = 2.0, 0.5
    dlt = p - q
    dd = dlt * dlt
    fp, fq = -math.log(p), -math.log(q)
    df = fp - fq
    for beta in (0.25, 0.4, 0.5, 0.6, 0.75):
        a = beta * (dd + df * df) + df * fq
        # dlt*u - df*log u = a + q*dlt, solved by a Lambert W branch
        arg = -(dlt / df) * math.exp(-(a + q * dlt) / df)
        roots = []
        for branch in (0, -1):
            w = lambertw(arg, branch)
            if abs(w.imag) < 1e-12:
                u = -w.real / (dlt / df)
                if u > 0.0:
                    alpha = (u - q) / dlt
                    resid = df * (-math.log(u)) + alpha * dd - a
                    if abs(resid) < 1e-9:
                        roots.append(alpha)
        assert roots, "the transcendental foot equation lost its real root"
        alpha = roots[0]
        u = q + alpha * dlt
        chord_val = beta * fp + (1.0 - beta) * fq
        expect = math.hypot((alpha - beta) * abs(dlt),
                            -math.log(u) - chord_val) / (beta * (1.0 - beta))
        assert second_kind_tj(g, beta, [p], [q]) == pytest.approx(expect, rel=1e-9)


def test_second_kind_validates_beta():
    g = make_builtin("shannon")
    for beta in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValidationError):
            second_kind_tj(g, beta, [1.0], [2.0])
    with pytest.raises(DomainError):
        second_kind_tj(g, 0.5, [2.0], [2.0])


def test_second_kind_runs_inside_bounded_domains():
    g = make_builtin("bit")
    v = second_kind_tj(g, 0.5, [0.2], [0.8])
    assert v > 0.0
    assert math.isfinite(v)
