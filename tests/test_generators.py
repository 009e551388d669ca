"""Generator construction, domains, derivatives, affine composition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tjdiv.errors import CapabilityError, DomainError, ValidationError
from tjdiv.generators import (
    BUILTIN_NAMES, Domain, Generator, _xlogx, affine_postcompose,
    affine_precompose, as_count, as_point, as_points, as_real, as_spd,
    coordinate_sum, ensure_domain, hessian_at, make_builtin)

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


def test_points_are_checked_finite_where_the_domain_lets_infinity_in():
    # a user domain closed at its infinite ends holds +-inf, so only the
    # finiteness pass keeps them out; a builtin's box already does
    closed = Domain(-math.inf, math.inf, eval_closed_lo=True,
                    eval_closed_hi=True)
    g = Generator(name="cosh", dim=2, domain=closed,
                  f=lambda x: coordinate_sum(np.cosh(x)), grad=np.sinh)
    assert not closed.excludes_inf
    assert as_points([[1.0, 2.0]], g).shape == (1, 2)
    for bad in (np.inf, -np.inf, np.nan):
        x = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValidationError, match="NaN or Inf"):
            as_points(x, g)
        for name in BUILTIN_NAMES:
            builtin = make_builtin(name, 2, matrix=np.eye(2) if name
                                   == "squared-mahalanobis" else None)
            assert builtin.domain.excludes_inf
            with pytest.raises(DomainError,
                               match=r"^point \[0\.75, (inf|nan)\]") as err:
                as_points(np.abs(x) / 4.0, builtin)
            assert err.value.row == 1
    half = Domain(0.0, math.inf, eval_closed_hi=True)
    assert not half.excludes_inf
    assert Domain(0.0, math.inf, eval_closed_lo=True).excludes_inf


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
    with pytest.raises(ValidationError, match="NaN or Inf"):  # once accepted
        make_builtin("squared-mahalanobis", 2, matrix=np.diag([np.inf, 1.0]))
    with pytest.raises(ValidationError, match="dimension must be an integer"):
        make_builtin("shannon", 2.0)
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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 4, 16])
def test_euclidean_equals_identity_mahalanobis_bit_for_bit(dim, order):
    ge = make_builtin("squared-euclidean", dim)
    gm = make_builtin("squared-mahalanobis", dim, matrix=np.eye(dim))
    x = np.asarray(np.random.default_rng(dim).normal(0.0, 3.0, (50, dim)),
                   order=order)
    for part in ("f", "grad", "grad_inverse"):
        got = getattr(ge, part)(x)
        assert np.array_equal(got, getattr(gm, part)(x)), part
        if part != "f":  # the identity's copies keep the input's layout
            assert got.flags.f_contiguous == x.flags.f_contiguous, part
    # the Hessian's diagonal, at every row
    diag = np.diagonal(gm.hessian(x[0]))
    assert np.array_equal(ge.second_deriv(x), np.broadcast_to(diag, x.shape))
    assert np.array_equal(hessian_at(ge, x[0]), hessian_at(gm, x[0]))


def test_separable_hessian_at():
    g = make_builtin("burg", 2)
    x = np.array([0.5, 2.0])
    assert np.allclose(hessian_at(g, x), np.diag([4.0, 0.25]), rtol=1e-14)


def test_hessian_at_without_curvature_is_a_capability_error():
    # a generator with neither hessian nor second_deriv once gave a
    # DomainError, where estimate_bound_constants gives a CapabilityError
    cosh = Generator(
        name="cosh", dim=2, domain=Domain(-math.inf, math.inf),
        f=lambda x: np.cosh(x).sum(axis=-1), grad=np.sinh)
    with pytest.raises(CapabilityError, match="no Hessian"):
        hessian_at(cosh, np.array([0.5, -1.0]))


def _pre_forms(g, a, b):
    return dict(f=lambda x: g.f(a * x) + b,
                grad=lambda x: a * g.grad(a * x),
                grad_inverse=lambda y: g.grad_inverse(y / a) / a,
                second_deriv=lambda x: (a * a) * g.second_deriv(a * x),
                hessian=lambda x: (a * a) * g.hessian(a * x))


def _post_forms(g, lam, c):
    return dict(f=lambda x: lam * g.f(x) + c,
                grad=lambda x: lam * g.grad(x),
                grad_inverse=lambda y: g.grad_inverse(y / lam),
                second_deriv=lambda x: lam * g.second_deriv(x),
                hessian=lambda x: lam * g.hessian(x))


def _affine_cases():
    """(id, G, g, G's callables in closed form over g's, points inside
    G's domain) for each affine map of each builtin."""
    q = np.array([[2.0, 0.3], [0.3, 1.0]])
    u = {"shannon": [[0.3, 2.0], [1.5, 0.01], [7.0, 4.0]],
         "burg": [[0.3, 2.0], [1.5, 0.01], [7.0, 4.0]],
         "bit": [[0.3, 0.9], [0.5, 0.01], [0.7, 0.2]],
         "squared-mahalanobis": [[0.3, -2.0], [-1.5, 0.0], [7.0, 4.0]]}
    for name, pts in u.items():
        g = make_builtin(name, 2, matrix=q if "maha" in name else None)
        pts = np.array(pts)
        for a, b in ((2.5, 0.3), (-1.5, -0.2)):
            yield (f"{name}-pre-a={a}", affine_precompose(g, a, b), g,
                   _pre_forms(g, a, b), pts / a)
        yield (f"{name}-post", affine_postcompose(g, 3.0, 1.25), g,
               _post_forms(g, 3.0, 1.25), pts)
        # the outer map's forms, over the inner map's closed forms
        inner = _pre_forms(g, -0.7, 0.5)
        yield (f"{name}-post-of-pre", affine_postcompose(
                   affine_precompose(g, -0.7, 0.5), 3.0, 1.25), g,
               _post_forms(Generator(name, 2, None, **inner), 3.0, 1.25),
               pts / -0.7)


@pytest.mark.parametrize("case", list(_affine_cases()), ids=lambda c: c[0])
def test_affine_maps_equal_their_closed_forms_bit_for_bit(case):
    _, ga, g, forms, x = case
    ensure_domain(ga, x, interior=True)
    args = {"f": x, "grad": x, "grad_inverse": ga.grad(x),
            "second_deriv": x, "hessian": x[0]}
    for part, form in forms.items():
        if getattr(g, part) is None:  # a callable g lacks stays None
            assert getattr(ga, part) is None, part
            continue
        got = np.asarray(getattr(ga, part)(args[part]))
        assert np.array_equal(got, form(args[part])), part
    assert ga.dim == g.dim


def test_negated_domain_ends_have_no_negative_zero():
    # -0.0 once reached the domain and every DomainError naming it
    dom = affine_precompose(make_builtin("shannon"), -2.0).domain
    assert dom.describe() == "(-inf, 0.0]" and not np.signbit(dom.hi)
    dom = affine_precompose(make_builtin("bit"), -1.0).domain
    assert dom.describe() == "[-1.0, 0.0]" and not np.signbit(dom.hi)
    with pytest.raises(DomainError, match=r"\(-inf, 0\.0\)"):
        ensure_domain(affine_precompose(make_builtin("burg"), -1.0),
                      np.array([0.5]))


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


def _masked_xlogx(x):
    """The masked gather/scatter form of x log x that _xlogx replaced."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    m = x > 0.0
    out[m] = x[m] * np.log(x[m])
    return out


@pytest.mark.parametrize("name", ["shannon", "bit"])
def test_entropy_generators_keep_their_bits(name):
    if name == "shannon":
        old_f = lambda x: (_masked_xlogx(x) - x).sum(axis=-1)
        edges = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300]
        rand = np.exp(np.random.default_rng(1).normal(0.0, 3.0, (20000, 4)))
    else:
        old_f = lambda x: (_masked_xlogx(x) + _masked_xlogx(1.0 - x)).sum(
            axis=-1)
        edges = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0]  # 1.0: bit's endpoint
        rand = np.random.default_rng(1).random((20000, 4))
    g = make_builtin(name)
    x = np.array(edges).reshape(-1, 1)
    # compared as bit patterns, so the sign of a zero counts
    assert np.array_equal(g.f(x).view(np.uint64), old_f(x).view(np.uint64))
    g4 = make_builtin(name, 4)
    assert np.array_equal(g4.f(rand).view(np.uint64),
                          old_f(rand).view(np.uint64))


def _where_xlogx(x):
    """x log x as x * log(where(x > 0, x, 1)), with a fresh array for
    each step; _xlogx runs the same steps in one buffer."""
    x = np.asarray(x, dtype=np.float64)
    return x * np.log(np.where(x > 0.0, x, 1.0))


@pytest.mark.parametrize("order", ["C", "F"])
def test_one_buffer_xlogx_keeps_its_bits(order):
    rng = np.random.default_rng(3)
    # exact zeros at shannon's closed end, and 0 and 1 at bit's (1 - x
    # is 0 there too), among random interior values
    x = np.concatenate([np.exp(rng.normal(0.0, 3.0, size=(500, 4))),
                        rng.random((500, 4))])
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.05] = 1.0
    x[:4] = [[0.0, -0.0, 5e-324, 1e-300]] * 4
    x = np.array(x, order=order)
    for arr in (x, 1.0 - x):
        assert np.array_equal(_xlogx(arr).view(np.uint64),
                              _where_xlogx(arr).view(np.uint64))
    assert _xlogx(x).flags[f"{order}_CONTIGUOUS"]


def test_xlogx_sign_of_zero_does_not_reach_f():
    # x * log(1) keeps the sign of -0.0, where the masked form wrote +0.0
    assert np.signbit(_xlogx(np.array([-0.0])))[0]
    assert not np.signbit(_masked_xlogx(np.array([-0.0])))[0]
    for name in ("shannon", "bit"):
        v = make_builtin(name).f(np.array([[-0.0]]))
        assert v[0] == 0.0 and not np.signbit(v[0])


def test_affine_maps_reject_non_finite_and_degenerate_parameters():
    # a NaN scale or offset once gave a generator whose divergences are NaN
    g = make_builtin("shannon")
    for a, b in ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)):
        with pytest.raises(ValidationError):
            affine_precompose(g, a, b)
    for lam, c in ((0.0, 0.0), (-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0),
                   (1.0, -np.inf)):
        with pytest.raises(ValidationError):
            affine_postcompose(g, lam, c)


def test_shared_checkers_accept_in_range_values_and_nothing_else():
    assert as_real("alpha", 0.25) == 0.25
    assert as_real("alpha", np.float32(0.5)) == 0.5
    assert as_real("alpha", 1.0, closed=True) == 1.0
    assert as_real("tol", 1e300, hi=math.inf) == 1e300
    for x, kw in ((0.0, {}), (1.0, {}), (np.nan, {}), (np.nan, {"closed": True}),
                  (-np.inf, {"closed": True}), (np.inf, {"hi": math.inf}),
                  (0.5, {"hi": 0.5}), ("half", {}), (None, {})):
        with pytest.raises(ValidationError, match="^x must"):
            as_real("x", x, **kw)
    assert as_count("k", 3) == 3 and as_count("k", np.int64(3)) == 3
    assert as_count("rounds", 0, lo=0) == 0
    for n, lo in ((0, 1), (-1, 0), (1, 2), (2.0, 1), (2.5, 1), (np.nan, 1),
                  ("3", 1), (None, 1)):
        with pytest.raises(ValidationError, match="^k must"):
            as_count("k", n, lo=lo)
    assert as_spd("m", 2.0, 1).tolist() == [[2.0]]
    for m in (np.eye(3), [[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
              [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0]], "eye"):
        with pytest.raises(ValidationError, match="^m "):
            as_spd("m", m, 2)


def test_mahalanobis_gradient_is_the_gradient_of_f():
    # a matrix symmetric only to rounding was kept as given, so grad
    # (x @ q) read -0.6000108 where a central difference of F reads
    # -0.6000054
    q = np.array([[2.0, 1.0], [1.000009, 2.0]])
    g = make_builtin("squared-mahalanobis", 2, q)
    x, h = np.array([0.3, -1.2]), 1e-5
    for j, e in enumerate(np.eye(2) * h):
        fd = (g.f(x + e) - g.f(x - e)) / (2.0 * h)
        assert abs(g.grad(x)[j] - fd) <= 1e-9
    sym = np.array([[2.0, 0.3], [0.3, 1.0]])  # exact input keeps its bits
    assert np.array_equal(as_spd("m", sym, 2), sym)
