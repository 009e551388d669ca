"""Divergence family: closed forms, hierarchy identities, limits."""

import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tjdiv import kernels
from tjdiv.divergences import (
    bregman, conformal_factors, jensen_raw, jensen_scaled, jensen_shannon,
    kl_gaussian, rho_b, stolarsky_epsilon, total_bregman, total_jensen,
    total_jensen_shannon)
from tjdiv.errors import (
    CapabilityError, DomainError, SearchError, ValidationError)
from tjdiv.generators import BUILTIN_NAMES, affine_postcompose, make_builtin

E = math.e


def test_jensen_raw_half_square_midpoint():
    g = make_builtin("squared-euclidean")
    assert jensen_raw(g, 0.5, [0.0], [1.0]).value == pytest.approx(0.125, abs=1e-15)


def test_jensen_scaled_half_square():
    g = make_builtin("squared-euclidean")
    assert jensen_scaled(g, 0.5, [0.0], [1.0]).value == pytest.approx(0.5, abs=1e-15)


def test_bregman_closed_forms():
    sq = make_builtin("squared-euclidean", 2)
    p, q = np.array([1.5, -1.0]), np.array([0.5, 2.0])
    assert bregman(sq, p, q).value == pytest.approx(
        0.5 * float((p - q) @ (p - q)), rel=1e-14)
    bg = make_builtin("burg")
    assert bregman(bg, [2.0], [1.0]).value == pytest.approx(
        -math.log(2.0) + 1.0, rel=1e-14)
    sh = make_builtin("shannon")
    assert bregman(sh, [2.0], [1.0]).value == pytest.approx(
        2.0 * math.log(2.0) - 1.0, rel=1e-14)


def test_bregman_boundary_argument_rejected():
    sh = make_builtin("shannon")
    bregman(sh, [0.0], [1.0])  # boundary p is fine, only q needs a gradient
    with pytest.raises(DomainError):
        bregman(sh, [1.0], [0.0])


def test_jensen_raw_rejects_limit_alphas():
    g = make_builtin("shannon")
    for a in (0.0, 1.0):
        with pytest.raises(ValidationError):
            jensen_raw(g, a, [2.0], [1.0])


@pytest.mark.parametrize("fn", [jensen_raw, jensen_scaled, total_jensen])
@pytest.mark.parametrize("alpha", [-0.5, 1.5, math.nan, math.inf])
def test_alpha_outside_unit_interval_rejected(fn, alpha):
    # outside [0, 1] the gap can be negative: -0.1056 at -0.5, (0.5, 1)
    g = make_builtin("shannon")
    with pytest.raises(ValidationError, match=r"alpha must lie in \[0,1\]"):
        fn(g, alpha, [0.5], [1.0])


def test_jensen_scaled_bregman_limit_branches():
    g = make_builtin("shannon")
    p, q = [2.0], [1.0]
    assert jensen_scaled(g, 0.0, p, q).value == bregman(g, p, q).value
    assert jensen_scaled(g, 1.0, p, q).value == bregman(g, q, p).value


def test_scaled_family_continuity_toward_bregman():
    # |J_a - B| must shrink as a drops toward 0
    for name in ("shannon", "burg"):
        g = make_builtin(name)
        b = bregman(g, [2.0], [1.0]).value
        errs = [abs(jensen_scaled(g, a, [2.0], [1.0]).value - b)
                for a in (1e-3, 1e-5, 1e-7)]
        assert errs[0] > errs[1] > errs[2]


@given(alpha=st.floats(min_value=0.05, max_value=0.95),
       p=st.floats(min_value=0.05, max_value=0.95),
       q=st.floats(min_value=0.05, max_value=0.95))
@example(alpha=0.5, p=0.95, q=0.9499999999999998)  # gap rounds to -1.7e-16
def test_jensen_raw_nonnegative_and_skew_symmetric(alpha, p, q):
    g = make_builtin("bit")
    v = jensen_raw(g, alpha, [p], [q]).value
    assert v >= 0.0
    w = jensen_raw(g, 1.0 - alpha, [q], [p]).value
    assert v == pytest.approx(w, abs=1e-15)


# pairs at relative separation below 1e-8, where F(p) - F(q) - <p - q,
# grad F(q)> is all cancellation
_NEAR = st.tuples(st.floats(min_value=0.05, max_value=0.95),
                  st.floats(min_value=-1e-8, max_value=1e-8)).map(
    lambda t: (t[0], t[0] * (1.0 + t[1])))


@given(name=st.sampled_from(("shannon", "burg", "bit")), pq=_NEAR)
@example(name="shannon", pq=(0.5, 0.5000000001))  # B once read -5.9e-17
def test_bregman_family_nonnegative_near_coincidence(name, pq):
    g = make_builtin(name)
    p, q = [pq[0]], [pq[1]]
    assert bregman(g, p, q).value >= 0.0
    assert total_bregman(g, p, q).value >= 0.0
    assert jensen_scaled(g, 0.0, p, q).value >= 0.0
    assert jensen_scaled(g, 1.0, q, p).value >= 0.0


@given(lam=st.floats(min_value=0.1, max_value=10.0),
       c=st.floats(min_value=-5.0, max_value=5.0))
def test_postcomposition_scales_jensen_raw(lam, c):
    g = make_builtin("burg")
    gs = affine_postcompose(g, lam, c)
    v = jensen_raw(g, 0.3, [0.5], [2.0]).value
    vs = jensen_raw(gs, 0.3, [0.5], [2.0]).value
    assert vs == pytest.approx(lam * v, rel=1e-12)


def test_rho_j_closed_forms_and_symmetry():
    bg = make_builtin("burg")
    cf = conformal_factors(bg, [1.0], [E])
    # 1/sqrt(1 + (log(e/1)/(1-e))^2) = 1/sqrt(1 + 1/(e-1)^2)
    assert cf.rho_j == pytest.approx(1.0 / math.sqrt(1.0 + 1.0 / (E - 1.0) ** 2),
                                     abs=1e-15)
    assert cf.rho_j == pytest.approx(0.8642887761769451, abs=1e-15)
    swapped = conformal_factors(bg, [E], [1.0])
    assert swapped.rho_j == cf.rho_j  # exact, built from squares


def test_slope_square_half_square_exhibit():
    g = make_builtin("squared-euclidean")
    cf = conformal_factors(g, [0.0], [1.0])
    assert cf.slope_sq == pytest.approx(0.25, abs=1e-16)


def test_conformal_factors_reject_coincident_points():
    g = make_builtin("shannon")
    with pytest.raises(DomainError):
        conformal_factors(g, [2.0], [2.0])


def test_rho_b_values():
    sh = make_builtin("shannon")
    assert rho_b(sh, [1.0]) == pytest.approx(1.0, abs=1e-16)
    bg = make_builtin("burg")
    assert rho_b(bg, [2.0]) == pytest.approx(1.0 / math.sqrt(1.25), abs=1e-15)
    with pytest.raises(DomainError):
        rho_b(sh, [0.0])


def test_total_bregman_is_scaled_bregman():
    rng = np.random.default_rng(5)
    g = make_builtin("shannon", 2)
    for _ in range(50):
        p = rng.uniform(0.1, 4.0, size=2)
        q = rng.uniform(0.1, 4.0, size=2)
        tb = total_bregman(g, p, q).value
        assert tb == pytest.approx(rho_b(g, q) * bregman(g, p, q).value,
                                   rel=1e-14)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_scalar_value_is_a_python_float(name):
    # jensen_shannon and total_jensen_shannon once returned np.float64,
    # and no other test noticed
    matrix = [[2.0, 0.5], [0.5, 1.0]] if name == "squared-mahalanobis" else None
    g = make_builtin(name, 2, matrix)
    values = [jensen_shannon([0.2, 0.8], [0.5, 0.5]),
              total_jensen_shannon([0.2, 0.8], [0.5, 0.5]),
              kl_gaussian([0.0], [[1.0]], [1.0], [[2.0]])]
    for p, q in (([0.2, 0.3], [0.6, 0.1]), ([0.2, 0.3], [0.2, 0.3])):
        values += [bregman(g, p, q), total_bregman(g, p, q),
                   jensen_raw(g, 0.3, p, q),
                   total_jensen(g, 0.3, p, q, scaled=False)]
        for a in (0.0, 0.3, 1.0):
            values += [jensen_scaled(g, a, p, q), total_jensen(g, a, p, q)]
    assert [type(v.value) for v in values] == [float] * len(values)


def test_total_bregman_euclidean_exhibit():
    g = make_builtin("squared-euclidean", 2)
    v = total_bregman(g, [1.0, 0.0], [0.0, 0.0]).value
    assert v == pytest.approx(0.5, abs=1e-15)


def test_total_jensen_is_conformal_times_jensen():
    rng = np.random.default_rng(17)
    for name in ("shannon", "burg", "bit"):
        g = make_builtin(name)
        lo, hi = (0.05, 0.95) if name == "bit" else (0.1, 4.0)
        for _ in range(50):
            p, q = rng.uniform(lo, hi, size=2)
            a = rng.uniform(0.05, 0.95)
            tj = total_jensen(g, a, [p], [q]).value
            expect = (conformal_factors(g, [p], [q]).rho_j
                      * jensen_scaled(g, a, [p], [q]).value)
            assert tj == pytest.approx(expect, rel=1e-13)


def test_total_jensen_raw_exhibit():
    g = make_builtin("squared-euclidean")
    v = total_jensen(g, 0.5, [0.0], [1.0], scaled=False).value
    assert v == pytest.approx(0.125 / math.sqrt(1.25), abs=1e-15)


def test_total_jensen_limit_alphas_use_chord_factor():
    # at the extremes the chord factor rho_J stays, not rho_B: the
    # total Jensen family does not reproduce total Bregman in the limit
    g = make_builtin("burg")
    p, q = [0.5], [2.0]
    rho = conformal_factors(g, p, q).rho_j
    assert total_jensen(g, 0.0, p, q).value == pytest.approx(
        rho * bregman(g, p, q).value, rel=1e-14)
    assert total_jensen(g, 1.0, p, q).value == pytest.approx(
        rho * bregman(g, q, p).value, rel=1e-14)
    assert total_jensen(g, 0.0, p, q).value != pytest.approx(
        total_bregman(g, p, q).value, rel=1e-3)
    with pytest.raises(ValidationError):
        total_jensen(g, 0.0, p, q, scaled=False)


def test_total_jensen_coincident_points_zero():
    g = make_builtin("shannon")
    assert total_jensen(g, 0.3, [2.0], [2.0]).value == 0.0


def test_identity_of_indiscernibles_random_pairs():
    rng = np.random.default_rng(23)
    g = make_builtin("shannon")
    for _ in range(100):
        p, q = rng.uniform(0.1, 5.0, size=2)
        v = total_jensen(g, 0.5, [p], [q]).value
        if p == q:
            assert v == 0.0
        else:
            assert v > 0.0


def test_asymmetric_ratio_equality():
    rng = np.random.default_rng(31)
    g = make_builtin("shannon")
    for _ in range(200):
        p, q = rng.uniform(0.2, 5.0, size=2)
        if p == q:
            continue
        a = rng.uniform(0.05, 0.95)
        lhs = (total_jensen(g, a, [p], [q]).value
               / total_jensen(g, a, [q], [p]).value)
        rhs = (jensen_scaled(g, a, [p], [q]).value
               / jensen_scaled(g, a, [q], [p]).value)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_left_right_skew_relation():
    rng = np.random.default_rng(37)
    g = make_builtin("burg")
    for _ in range(200):
        p, q = rng.uniform(0.2, 5.0, size=2)
        if p == q:
            continue
        a = rng.uniform(0.05, 0.95)
        lhs = total_jensen(g, 1.0 - a, [p], [q]).value
        rhs = (conformal_factors(g, [p], [q]).rho_j
               * jensen_scaled(g, a, [q], [p]).value)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_total_jensen_equals_jensen_of_scaled_generator():
    # scaling the generator by the chord factor absorbs the conformal
    # correction into a plain Jensen divergence
    g = make_builtin("shannon")
    p, q, a = [0.7], [3.0], 0.35
    rho = conformal_factors(g, p, q).rho_j
    gs = affine_postcompose(g, rho)
    assert total_jensen(g, a, p, q).value == pytest.approx(
        jensen_scaled(gs, a, p, q).value, rel=1e-14)


def test_table_closed_forms_shannon_row():
    rng = np.random.default_rng(41)
    g = make_builtin("shannon")
    for _ in range(100):
        p, q = rng.uniform(0.1, 6.0, size=2)
        if p == q:
            continue
        slope = (p * math.log(p) - q * math.log(q) - (p - q)) / (p - q)
        assert conformal_factors(g, [p], [q]).rho_j == pytest.approx(
            1.0 / math.sqrt(1.0 + slope * slope), rel=1e-13)
        assert rho_b(g, [q]) == pytest.approx(
            1.0 / math.sqrt(1.0 + math.log(q) ** 2), rel=1e-13)


def test_stolarsky_epsilon_shannon_exhibit():
    g = make_builtin("shannon")
    eps = stolarsky_epsilon(g, [1.0], [E])
    assert eps == pytest.approx(math.exp(1.0 / (E - 1.0)), abs=1e-12)
    assert eps == pytest.approx(1.7895723968418336, abs=1e-12)
    # the defining property, not just the number
    assert conformal_factors(g, [1.0], [E]).rho_j == pytest.approx(
        rho_b(g, [eps]), abs=1e-12)


def test_stolarsky_epsilon_midpoint_for_half_square():
    g = make_builtin("squared-euclidean")
    rng = np.random.default_rng(43)
    for _ in range(50):
        p, q = rng.uniform(-3.0, 3.0, size=2)
        if p == q:
            continue
        assert stolarsky_epsilon(g, [p], [q]) == pytest.approx(
            0.5 * (p + q), rel=1e-12, abs=1e-12)


def test_stolarsky_dichotomic_matches_closed_form():
    g = make_builtin("burg")
    blind = replace(g, grad_inverse=None)  # forces the search path
    rng = np.random.default_rng(47)
    for _ in range(100):
        p, q = rng.uniform(0.2, 5.0, size=2)
        if p == q:
            continue
        closed = stolarsky_epsilon(g, [p], [q])
        searched = stolarsky_epsilon(blind, [p], [q])
        assert abs(closed - searched) < 1e-10
        assert min(p, q) <= closed <= max(p, q)


def test_stolarsky_rejects_coincident_points_and_a_bracket_without_root():
    g = make_builtin("burg")
    for gen in (g, replace(g, grad_inverse=None)):
        with pytest.raises(DomainError, match="p = q"):
            stolarsky_epsilon(gen, [2.0], [2.0])
    # a grad that is not F's derivative: F's chord slope on [1, 2] is
    # -log 2, and grad + 10 stays above it across the bracket
    lifted = replace(g, grad_inverse=None, grad=lambda x: g.grad(x) + 10.0)
    with pytest.raises(SearchError, match="no sign change"):
        stolarsky_epsilon(lifted, [1.0], [2.0])


def test_stolarsky_rejects_multivariate():
    g = make_builtin("shannon", 2)
    with pytest.raises(CapabilityError):
        stolarsky_epsilon(g, [1.0, 2.0], [2.0, 1.0])


def test_jensen_shannon_values():
    assert jensen_shannon([1.0, 0.0], [0.0, 1.0]).value == pytest.approx(
        math.log(2.0), rel=1e-14)
    assert jensen_shannon([0.3, 0.7], [0.3, 0.7]).value == 0.0
    p, q = [0.2, 0.8], [0.6, 0.4]
    assert jensen_shannon(p, q).value == jensen_shannon(q, p).value
    with pytest.raises(DomainError):
        jensen_shannon([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValidationError, match="dimension 3, generator expects 2"):
        jensen_shannon([0.5, 0.5], [0.2, 0.3, 0.5])


def test_jensen_shannon_equals_shannon_jensen_gap():
    # the -x terms of the generator cancel inside the Jensen gap
    g = make_builtin("shannon", 2)
    rng = np.random.default_rng(53)
    for _ in range(50):
        p = rng.dirichlet([1.0, 1.0])
        q = rng.dirichlet([1.0, 1.0])
        assert jensen_shannon(p, q).value == pytest.approx(
            jensen_raw(g, 0.5, p, q).value, abs=1e-12)


def test_total_jensen_shannon_counterexample_distances():
    p = [0.98, 0.02]
    q = [0.52, 0.48]
    r = [0.006, 0.994]
    d1 = math.sqrt(total_jensen_shannon(p, q).value)
    d2 = math.sqrt(total_jensen_shannon(q, r).value)
    d3 = math.sqrt(total_jensen_shannon(p, r).value)
    assert d1 == pytest.approx(0.35128346734040883, abs=1e-11)
    assert d2 == pytest.approx(0.39644485899866616, abs=1e-11)
    assert d3 == pytest.approx(0.7906141593521927, abs=1e-11)
    assert d3 - (d1 + d2) == pytest.approx(0.04288583301311766, abs=1e-10)


def test_total_jensen_shannon_coincident_zero():
    assert total_jensen_shannon([0.4, 0.6], [0.4, 0.6]).value == 0.0


def test_kl_gaussian_unit_shift():
    v = kl_gaussian([0.0], [[1.0]], [1.0], [[1.0]]).value
    assert v == pytest.approx(0.5, abs=1e-15)
    assert kl_gaussian([1.0, 2.0], np.eye(2), [1.0, 2.0], np.eye(2)).value == 0.0


def test_kl_gaussian_rigid_motion_invariance():
    rng = np.random.default_rng(59)
    for d in (1, 2, 3):
        a = rng.normal(size=(d, d))
        s1 = a @ a.T + d * np.eye(d)
        b = rng.normal(size=(d, d))
        s2 = b @ b.T + d * np.eye(d)
        m1, m2 = rng.normal(size=d), rng.normal(size=d)
        before = kl_gaussian(m1, s1, m2, s2).value
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        t = rng.normal(size=d)
        after = kl_gaussian(rot @ m1 + t, rot @ s1 @ rot.T,
                            rot @ m2 + t, rot @ s2 @ rot.T).value
        assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


def test_kl_gaussian_rejects_bad_covariance():
    with pytest.raises(ValidationError):
        kl_gaussian([0.0], [[-1.0]], [0.0], [[1.0]])
    with pytest.raises(ValidationError):
        kl_gaussian([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]], [0.0, 0.0], np.eye(2))
    with pytest.raises(ValidationError):
        kl_gaussian([0.0], [[1.0]], [0.0, 0.0], np.eye(2))
    with pytest.raises(ValidationError):  # once gave a non-finite value
        kl_gaussian([0.0], [[np.inf]], [0.0], [[1.0]])


def test_divergence_value_floats():
    g = make_builtin("shannon")
    v = total_jensen(g, 0.5, [2.0], [1.0])
    assert float(v) == v.value
    assert v.kind == "total-jensen"


# the scalar API reads the kernels: one formula per quantity

_BOXES = {"shannon": (0.1, 5.0), "burg": (0.1, 5.0), "bit": (0.05, 0.95),
          "squared-euclidean": (-3.0, 3.0)}


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(_BOXES))
def test_scalar_api_equals_kernel_entries_bit_for_bit(name, d):
    g = make_builtin(name, d)
    lo, hi = _BOXES[name]
    rng = np.random.default_rng(61 + d)
    for i in range(400):
        p, q = rng.uniform(lo, hi, size=(2, d))
        if i >= 200:  # near-coincident, where the kernel may round below 0
            q = p * (1.0 + rng.uniform(-1e-9, 1e-9, size=d))
        a = float(rng.uniform(0.05, 0.95))
        # the scalar API reads 0 where the kernel rounds below 0
        assert total_jensen(g, a, p, q).value == max(
            kernels.pairwise_total_jensen(g, a, p[None], q[None])[0], 0.0)
        assert conformal_factors(g, p, q).rho_j == \
            kernels.pairwise_conformal(g, p[None], q[None])[0]


@pytest.mark.parametrize("alpha", [np.float32(0.3), "0.5"])
def test_tj_kernels_scale_by_the_checked_alpha(alpha):
    # the tJ kernels once scaled by the alpha they were given rather than
    # the float they checked: "0.5" raised TypeError, and float32 0.3 gave
    # 0.68167994293 where the sweep gave 0.68167995454
    g = make_builtin("shannon", 2)
    x = np.array([[1.0, 2.0], [2.0, 1.0]])
    p, q = x[:1], x[1:]
    want = kernels.pairwise_total_jensen(g, float(alpha), p, q)[0]
    assert kernels.pairwise_total_jensen(g, alpha, p, q)[0] == want
    assert kernels.total_jensen_and_conformal(g, alpha, p, q)[0][0] == want
    assert kernels.tj_table(g, alpha, x)[1, 0] == want
    assert kernels.min_divergence_assign(g, alpha, p, q)[0][0] == want


def _mp_f(name, x):
    if name == "shannon":
        return mp.fsum(v * mp.log(v) - v for v in x)
    if name == "burg":
        return -mp.fsum(mp.log(v) for v in x)
    if name == "bit":
        return mp.fsum(v * mp.log(v) + (1 - v) * mp.log(1 - v) for v in x)
    return mp.fsum(v * v for v in x) / 2


def _mp_grad(name, x):
    if name == "shannon":
        return [mp.log(v) for v in x]
    if name == "burg":
        return [-1 / v for v in x]
    if name == "bit":
        return [mp.log(v / (1 - v)) for v in x]
    return list(x)


def _mp_reference(name, a, p, q):
    """(J'_a, tJ_a, rho_J(p, q), rho_B(q), B(p:q), tB(p:q)) at 50 digits,
    from the float inputs taken exactly."""
    with mp.workdps(50):
        a, p, q = mp.mpf(a), [mp.mpf(v) for v in p], [mp.mpf(v) for v in q]
        fp, fq = _mp_f(name, p), _mp_f(name, q)
        mix = [a * u + (1 - a) * v for u, v in zip(p, q)]
        gap = a * fp + (1 - a) * fq - _mp_f(name, mix)
        dd = mp.fsum((u - v) ** 2 for u, v in zip(p, q))
        rho_j = 1 / mp.sqrt(1 + (fp - fq) ** 2 / dd)
        gq = _mp_grad(name, q)
        rho_b = 1 / mp.sqrt(1 + mp.fsum(v * v for v in gq))
        breg = fp - fq - mp.fsum((u - v) * w for u, v, w in zip(p, q, gq))
        return (gap, rho_j * gap / (a * (1 - a)), rho_j, rho_b, breg,
                rho_b * breg)


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(_BOXES))
def test_formulas_match_mpmath_oracle(name, d):
    # separated pairs only: near-coincident pairs lose digits to
    # cancellation in the gap, which these formulas do not yet avoid
    g = make_builtin(name, d)
    lo, hi = _BOXES[name]
    rng = np.random.default_rng(67 + d)
    checked = 0
    while checked < 40:
        p, q = rng.uniform(lo, hi, size=(2, d))
        if np.linalg.norm(p - q) < 0.1:
            continue
        a = float(rng.uniform(0.05, 0.95))
        got = (jensen_raw(g, a, p, q).value, total_jensen(g, a, p, q).value,
               conformal_factors(g, p, q).rho_j, rho_b(g, q),
               bregman(g, p, q).value, total_bregman(g, p, q).value)
        for x, ref in zip(got, _mp_reference(name, a, p, q)):
            assert abs(x - ref) <= 1e-11 * abs(ref)
        checked += 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rho_b_where_the_squared_gradient_overflows(d):
    # |grad F|^2 overflowed once |grad F| passed about 1.3e154: rho_B read
    # 0 with a RuntimeWarning, and tB read 0 where it is near 1
    g = make_builtin("burg", d)
    rng = np.random.default_rng(d)
    qs = np.vstack([10.0 ** rng.uniform(-300.0, 0.0, size=(40, d)),
                    np.full((1, d), 1e-300), np.full((1, d), 1e-154)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.gradient_conformal(g, qs)
        tb = [total_bregman(g, np.ones(d), q).value for q in qs]
    for q, r, t in zip(qs, got, tb):
        ref = _mp_reference("burg", 0.5, np.ones(d), q)
        assert abs(r - ref[3]) <= 1e-14 * ref[3]
        assert abs(t - ref[5]) <= 1e-13 * ref[5]


@pytest.mark.parametrize("p", [[1.0, 1.0], [1e-320, 0.5]])
def test_a_bregman_gap_that_overflows_raises(p):
    # burg's grad F(q) = -1/q is -inf at a subnormal q: bregman read inf
    # (NaN at p = q) and total_bregman 0 * inf = NaN, each with a
    # RuntimeWarning
    g = make_builtin("burg", 2)
    q = [1e-320, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (lambda: bregman(g, p, q), lambda: total_bregman(g, p, q),
                      lambda: jensen_scaled(g, 0.0, p, q),
                      lambda: total_jensen(g, 1.0, q, p)):
            with pytest.raises(ValidationError, match="overflows float64"):
                value()


def test_rho_b_where_grad_f_overflows_warns():
    # rho_B there is about 1e-320, but reads 0: the overflow must show
    with pytest.warns(RuntimeWarning, match="overflow"):
        rho_b(make_builtin("burg", 2), [1e-320, 0.5])
