"""Generator construction, domains, derivatives, affine composition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tjdiv.errors import DomainError, ValidationError
from tjdiv.generators import (
    BUILTIN_NAMES, affine_postcompose, affine_precompose, as_point,
    ensure_domain, hessian_at, make_builtin)

POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
UNIT_OPEN = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


def fd_grad(g, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (g.f(x + e) - g.f(x - e)) / (2.0 * h)
    return out


@given(x=POSITIVE)
def test_shannon_grad_matches_finite_difference(x):
    g = make_builtin("shannon")
    fd = fd_grad(g, [x])
    assert abs(float(g.grad(np.array([x]))[0]) - fd[0]) < 1e-5 * max(1.0, abs(fd[0]))


@given(x=POSITIVE)
def test_burg_grad_matches_finite_difference(x):
    g = make_builtin("burg")
    fd = fd_grad(g, [x], h=1e-7 * max(1.0, x))
    assert abs(float(g.grad(np.array([x]))[0]) - fd[0]) < 1e-4 * max(1.0, abs(fd[0]))


@given(x=st.floats(min_value=0.05, max_value=0.95))
def test_bit_grad_matches_finite_difference(x):
    g = make_builtin("bit")
    fd = fd_grad(g, [x])
    assert abs(float(g.grad(np.array([x]))[0]) - fd[0]) < 1e-5


@pytest.mark.parametrize("name,x", [
    ("shannon", 2.7), ("burg", 0.4), ("bit", 0.37), ("squared-euclidean", -3.0)])
def test_grad_inverse_roundtrip(name, x):
    g = make_builtin(name)
    y = g.grad(np.array([x]))
    back = g.grad_inverse(y)
    assert abs(float(back[0]) - x) < 1e-9


@given(x=POSITIVE)
def test_shannon_grad_inverse_roundtrip_property(x):
    g = make_builtin("shannon")
    back = g.grad_inverse(g.grad(np.array([x])))
    assert abs(float(back[0]) - x) < 1e-9 * max(1.0, x)


def test_shannon_value_at_one_and_zero():
    g = make_builtin("shannon")
    # x log x - x at 1 is -1; the 0 log 0 = 0 convention makes F(0) = 0
    assert float(g.f(np.array([1.0]))) == pytest.approx(-1.0, abs=1e-15)
    assert float(g.f(np.array([0.0]))) == 0.0


def test_bit_vanishes_at_both_corners():
    g = make_builtin("bit")
    assert float(g.f(np.array([0.0]))) == 0.0
    assert float(g.f(np.array([1.0]))) == 0.0


def test_separable_values_sum_over_coordinates():
    g1 = make_builtin("shannon", 1)
    g3 = make_builtin("shannon", 3)
    x = np.array([0.7, 1.9, 4.2])
    parts = sum(float(g1.f(np.array([v]))) for v in x)
    assert float(g3.f(x)) == pytest.approx(parts, rel=1e-15)


def test_domain_edges():
    sh = make_builtin("shannon")
    assert ensure_domain(sh, np.array([0.0])) is None  # evaluable edge
    with pytest.raises(DomainError):
        ensure_domain(sh, np.array([0.0]), interior=True)
    with pytest.raises(DomainError):
        ensure_domain(sh, np.array([-1e-9]))
    bg = make_builtin("burg")
    with pytest.raises(DomainError):
        ensure_domain(bg, np.array([0.0]))  # open at 0, even for eval
    bit = make_builtin("bit")
    ensure_domain(bit, np.array([1.0]))
    with pytest.raises(DomainError):
        ensure_domain(bit, np.array([1.0 + 1e-12]))


def _inside_reference(dom, v, interior):
    lo_ok = v > dom.lo or (dom.eval_closed_lo and not interior and v == dom.lo)
    hi_ok = v < dom.hi or (dom.eval_closed_hi and not interior and v == dom.hi)
    return lo_ok and hi_ok


@pytest.mark.parametrize("interior", [False, True])
def test_stack_check_matches_a_row_by_row_loop(interior):
    rng = np.random.default_rng(0)
    values = [0.0, 1.0, 0.3, 0.7, 2.0, -0.1, 1.1, np.nan]
    for name in ("shannon", "burg", "bit"):
        g = make_builtin(name, 3)
        for _ in range(100):
            x = rng.choice(values, size=(rng.integers(1, 6), 3),
                           p=[0.1, 0.1, 0.35, 0.35, 0.03, 0.03, 0.02, 0.02])
            bad = [i for i, row in enumerate(x)
                   if not all(_inside_reference(g.domain, v, interior)
                              for v in row)]
            if not bad:
                assert ensure_domain(g, x, interior) is None
                continue
            with pytest.raises(DomainError) as stacked:
                ensure_domain(g, x, interior)
            with pytest.raises(DomainError) as single:
                ensure_domain(g, x[bad[0]], interior)
            assert stacked.value.row == bad[0]
            assert str(stacked.value) == str(single.value)


def test_as_point_shapes():
    assert as_point(2.5, 1).shape == (1,)
    assert as_point([1.0, 2.0], 2).shape == (2,)
    with pytest.raises(ValidationError):
        as_point([1.0, 2.0], 3)
    with pytest.raises(ValidationError):
        as_point([[1.0], [2.0]], 2)
    with pytest.raises(ValidationError):
        as_point([np.nan], 1)


def test_make_builtin_validation():
    with pytest.raises(ValidationError):
        make_builtin("hellinger")
    with pytest.raises(ValidationError):
        make_builtin("shannon", 0)
    with pytest.raises(ValidationError):
        make_builtin("shannon", 2, matrix=np.eye(2))
    with pytest.raises(ValidationError):
        make_builtin("squared-mahalanobis", 2)
    with pytest.raises(ValidationError):
        make_builtin("squared-mahalanobis", 2, matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValidationError):
        make_builtin("squared-mahalanobis", 2, matrix=-np.eye(2))
    assert set(BUILTIN_NAMES) == {
        "shannon", "burg", "bit", "squared-mahalanobis", "squared-euclidean"}


def test_quadratic_value_and_grad():
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = make_builtin("squared-mahalanobis", 2, matrix=q)
    x = np.array([1.5, -2.0])
    assert float(g.f(x)) == pytest.approx(0.5 * x @ q @ x, rel=1e-14)
    assert np.allclose(g.grad(x), q @ x, rtol=1e-14)
    assert np.allclose(g.grad_inverse(q @ x), x, rtol=1e-12)
    assert np.allclose(hessian_at(g, x), q)


def test_euclidean_is_identity_quadratic():
    g = make_builtin("squared-euclidean", 2)
    x = np.array([3.0, -4.0])
    assert float(g.f(x)) == pytest.approx(12.5)


def test_separable_hessian_at():
    g = make_builtin("burg", 2)
    x = np.array([0.5, 2.0])
    assert np.allclose(hessian_at(g, x), np.diag([4.0, 0.25]), rtol=1e-14)


def test_affine_precompose_values_and_grads():
    rng = np.random.default_rng(11)
    g = make_builtin("shannon")
    a, b = 2.0, -0.7
    ga = affine_precompose(g, a, b)
    for _ in range(25):
        x = float(rng.uniform(0.05, 3.0))
        assert float(ga.f(np.array([x]))) == pytest.approx(
            float(g.f(np.array([a * x]))) + b, rel=1e-14)
        assert float(ga.grad(np.array([x]))[0]) == pytest.approx(
            a * float(g.grad(np.array([a * x]))[0]), rel=1e-14)
        y = ga.grad(np.array([x]))
        assert float(ga.grad_inverse(y)[0]) == pytest.approx(x, rel=1e-11)


def test_affine_precompose_negative_scale_flips_domain():
    g = make_builtin("shannon")  # domain [0, inf), closed evaluable edge at 0
    gn = affine_precompose(g, -1.0)
    ensure_domain(gn, np.array([-2.0]))
    ensure_domain(gn, np.array([0.0]))
    with pytest.raises(DomainError):
        ensure_domain(gn, np.array([0.5]))
    assert float(gn.f(np.array([-2.0]))) == pytest.approx(
        float(g.f(np.array([2.0]))), rel=1e-15)


def test_affine_postcompose_scales():
    g = make_builtin("burg")
    gp = affine_postcompose(g, 3.0, c=1.0)
    x = np.array([0.8])
    assert float(gp.f(x)) == pytest.approx(3.0 * float(g.f(x)) + 1.0, rel=1e-14)
    assert float(gp.grad(x)[0]) == pytest.approx(3.0 * float(g.grad(x)[0]), rel=1e-14)
    assert float(gp.grad_inverse(gp.grad(x))[0]) == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(ValidationError):
        affine_postcompose(g, 0.0)
    with pytest.raises(ValidationError):
        affine_postcompose(g, -2.0)


def test_precompose_rejects_zero_scale():
    with pytest.raises(ValidationError):
        affine_precompose(make_builtin("burg"), 0.0)


@given(x=UNIT_OPEN)
def test_bit_grad_inverse_is_logistic(x):
    g = make_builtin("bit")
    y = float(g.grad(np.array([x]))[0])
    assert float(g.grad_inverse(np.array([y]))[0]) == pytest.approx(
        1.0 / (1.0 + math.exp(-y)), rel=1e-12)
