"""Influence functions: closed forms, empirical agreement, outlier sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjdiv.errors import CapabilityError, DomainError, ValidationError
from tjdiv.generators import make_builtin
from tjdiv.robustness import (boundedness_sweep, influence_analytic,
                              influence_empirical)


@settings(max_examples=60)
@given(p=st.floats(0.05, 20.0), y=st.floats(0.05, 50.0))
def test_shannon_influence_closed_form(p, y):
    g = make_builtin("shannon")
    z = influence_analytic(g, p, y)
    assert z == pytest.approx(2.0 * p * math.log((p + y) / (2.0 * p)),
                              abs=1e-12, rel=1e-12)


def test_burg_influence_closed_form():
    g = make_builtin("burg")
    rng = np.random.default_rng(19)
    for _ in range(300):
        p = rng.uniform(0.05, 10.0)
        y = rng.uniform(0.05, 40.0)
        z = influence_analytic(g, p, y)
        want = 2.0 * p * (y - p) / (y + p)
        assert abs(z - want) <= 1e-12 * max(1.0, abs(want))


def test_no_outlier_no_influence():
    for name in ("shannon", "burg", "bit"):
        g = make_builtin(name)
        p = 0.4 if name == "bit" else 1.3
        assert influence_analytic(g, p, p) == 0.0


def test_empirical_matches_analytic_at_small_mass():
    g = make_builtin("shannon")
    res = influence_empirical(g, 1.0, 3.0, 1e-4)
    assert res.z_analytic == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert res.z_empirical == pytest.approx(res.z_analytic, abs=1e-2)
    assert res.x_tilde == pytest.approx(1.0 + 1e-4 * res.z_analytic, abs=1e-5)


def test_empirical_error_shrinks_linearly_with_mass():
    # first-order error is O(eps): a decade of eps moves it by roughly
    # a decade, and certainly within a factor five of that
    for name in ("shannon", "burg"):
        g = make_builtin(name)
        z = influence_analytic(g, 1.0, 5.0)
        e3 = abs(influence_empirical(g, 1.0, 5.0, 1e-3).z_empirical - z)
        e4 = abs(influence_empirical(g, 1.0, 5.0, 1e-4).z_empirical - z)
        assert 2.0 < e3 / e4 < 50.0


def test_burg_empirical_stays_bounded_at_extreme_outlier():
    g = make_builtin("burg")
    res = influence_empirical(g, 1.0, 1e6, 1e-4)
    assert abs(res.z_empirical) < 2.01


def test_burg_sweep_is_bounded_flat():
    g = make_builtin("burg")
    rep = boundedness_sweep(g, 1.0, 1e9)
    assert rep.classification == "bounded-flat"
    assert rep.sup_abs_z <= 2.0 + 1e-3
    assert rep.sup_abs_z > 1.99
    # the cap scales with the inlier: sup |z| -> 2p
    rep3 = boundedness_sweep(g, 3.0, 1e9)
    assert rep3.sup_abs_z <= 6.0 + 1e-3
    assert rep3.sup_abs_z > 5.9


def test_shannon_sweep_keeps_growing():
    g = make_builtin("shannon")
    rep = boundedness_sweep(g, 1.0, 1e9)
    assert rep.classification == "unbounded-trending"
    assert np.all(np.diff(rep.z_values) > 0.0)
    z = lambda y: influence_analytic(g, 1.0, y)
    assert z(1e9) / z(1e3) > 3.0
    assert z(1e9) / z(1e2) > 5.0


def test_chord_factor_decays_like_inverse_log():
    g = make_builtin("shannon")
    rep = boundedness_sweep(g, 1.0, 1e6)
    assert 0.5 <= rep.tail_rho_log <= 2.0
    assert rep.rho_values[-1] < rep.rho_values[0]
    assert rep.ys.shape == rep.z_values.shape == rep.rho_values.shape


@pytest.mark.parametrize("name, p, y_max", [
    ("shannon", 1.0, 1e6), ("burg", 0.7, 1e9), ("bit", 0.05, 0.95)])
def test_sweep_z_equals_influence_analytic_bitwise(name, p, y_max):
    g = make_builtin(name)
    rep = boundedness_sweep(g, p, y_max)
    one_by_one = [influence_analytic(g, p, y) for y in rep.ys]
    assert rep.z_values.tolist() == one_by_one


def test_epsilon_band_is_enforced():
    g = make_builtin("shannon")
    for eps in (0.0, 0.5, 0.7, -1e-3, np.nan, np.inf):
        with pytest.raises(ValidationError):
            influence_empirical(g, 1.0, 3.0, eps)


def test_sweep_range_validation():
    g = make_builtin("shannon")
    with pytest.raises(ValidationError):
        boundedness_sweep(g, 1.0, 2.0)  # not beyond y0 = 2p
    with pytest.raises(ValidationError):
        boundedness_sweep(make_builtin("bit"), 0.3, 2.0)  # outside [0,1]
    # per_decade=-3 once gave a 2-point grid
    for bad in (-3, 0, 2.5):
        with pytest.raises(ValidationError, match="per_decade"):
            boundedness_sweep(g, 1.0, 100.0, per_decade=bad)


@pytest.mark.parametrize("p", [0.5, 0.6, 0.99])
def test_sweep_that_no_y_max_fits_is_one_error(p):
    # on bit the sweep starts at 2p >= 1: each y_max was told either to
    # exceed 2p or that it lies outside [0, 1]
    g = make_builtin("bit")
    for y_max in (0.9, 1.0, 1.5, 2.5):
        with pytest.raises(ValidationError, match=(
                rf"^the sweep starts at y = {2 * p}, which leaves "
                r"no y_max in bit's domain \[0\.0, 1\.0\]$")):
            boundedness_sweep(g, p, y_max)


def test_one_dimensional_mahalanobis_keeps_its_second_derivative():
    # q is the 1 x 1 Hessian, so the scalar influence analysis applies
    g = make_builtin("squared-mahalanobis", 1, matrix=2.0)
    assert np.array_equal(g.second_deriv(np.array([[0.5], [-3.0]])),
                          [[2.0], [2.0]])
    rep = boundedness_sweep(g, 1.0, 1e6)
    # z(y) = y - p: the quadratic's influence is unbounded
    assert np.allclose(rep.z_values, rep.ys - 1.0, rtol=1e-12)
    assert rep.classification == "unbounded-trending"


def test_scalar_only_and_second_derivative_required():
    with pytest.raises(CapabilityError):
        influence_analytic(make_builtin("squared-euclidean", 2),
                           np.zeros(2), np.ones(2))
    g = replace(make_builtin("shannon"), second_deriv=None)
    with pytest.raises(CapabilityError):
        influence_analytic(g, 1.0, 2.0)


def test_sweep_checks_p_before_its_range():
    # p = -1 on bit was reported as a sweep start that leaves no y_max
    with pytest.raises(DomainError, match=r"^point \[-1.0\] is outside "
                       r"the interior of bit's domain \[0.0, 1.0\]$"):
        boundedness_sweep(make_builtin("bit"), -1.0, 0.9)
