"""Skew Jensen centroids (inner fixed point) and the two-stage total loop."""

import warnings

import numpy as np
import pytest
from dataclasses import replace

from tjdiv.centroids import (
    CentroidConfig, WeightedPointSet, jensen_centroid_cccp,
    left_sided_centroid, total_jensen_centroid, total_loss)
from tjdiv.errors import CapabilityError, DomainError, ValidationError
from tjdiv.generators import make_builtin
from tjdiv.kernels import (
    CCCP_TOL, cccp_steps, jensen_loss, pairwise_conformal,
    pairwise_total_jensen)


def _loss_on_grid(g, pts, w, alpha, lo, hi, step=1e-5):
    c = np.arange(lo, hi, step)
    total = np.zeros_like(c)
    for x, wi in zip(pts, w):
        fx = float(g.f(np.array([x])))
        fc = g.f(c.reshape(-1, 1)).ravel()
        fm = g.f((alpha * x + (1.0 - alpha) * c).reshape(-1, 1)).ravel()
        jraw = alpha * fx + (1.0 - alpha) * fc - fm
        d = x - c
        df = fx - fc
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = 1.0 / np.sqrt(1.0 + df * df / (d * d))
        total += wi * np.where(d == 0.0, 0.0, rho * jraw / (alpha * (1.0 - alpha)))
    i = int(np.argmin(total))
    return float(c[i]), float(total[i])


def test_point_set_validation():
    with pytest.raises(ValidationError):
        WeightedPointSet.make([])
    with pytest.raises(ValidationError):
        WeightedPointSet.make([[1.0], [2.0]], [0.5])
    with pytest.raises(ValidationError):
        WeightedPointSet.make([[1.0], [2.0]], [-1.0, 2.0])
    with pytest.raises(ValidationError):
        WeightedPointSet.make([[1.0], [2.0]], [0.0, 0.0])
    with pytest.raises(ValidationError):
        WeightedPointSet.make([[np.nan]])
    data = WeightedPointSet.make([[1.0], [2.0]], [3.0, 1.0])
    assert data.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert data.weights[0] == pytest.approx(0.75)


def test_config_validation():
    # NaN once passed the outer_tol test and ran every stage; a float
    # count once ran int(count) steps
    for bad in ({"alpha": 0.0}, {"alpha": np.nan}, {"outer_tol": 0.0},
                {"outer_tol": np.nan}, {"outer_tol": np.inf},
                {"inner_cccp_iters": 0}, {"inner_cccp_iters": 2.5},
                {"outer_max_iters": 0}, {"outer_max_iters": 3.0}):
        with pytest.raises(ValidationError):
            CentroidConfig(**bad)


def test_half_square_cccp_is_weighted_mean():
    g = make_builtin("squared-euclidean")
    data = WeightedPointSet.make([[1.0], [5.0]], [0.25, 0.75])
    c = jensen_centroid_cccp(g, 0.5, data, iters=1)
    assert float(c[0]) == pytest.approx(4.0, abs=1e-14)


def test_single_point_centroid_is_that_point():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[2.5]])
    res = total_jensen_centroid(g, data)
    assert float(res.center[0]) == pytest.approx(2.5, abs=1e-12)
    assert res.loss_trace[0] == pytest.approx(0.0, abs=1e-15)


def test_shannon_pair_fixed_point_and_grid_agreement():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[1.0], [4.0]])
    c = jensen_centroid_cccp(g, 0.5, data, iters=200)
    c_more = jensen_centroid_cccp(g, 0.5, data, iters=201)
    assert abs(float(c[0]) - float(c_more[0])) < 1e-10
    # independent check against a brute scan of the inner loss
    grid = np.arange(1.0, 4.0, 1e-5)
    w = data.weights
    vals = np.zeros_like(grid)
    for x, wi in zip([1.0, 4.0], w):
        fx = float(g.f(np.array([x])))
        fc = g.f(grid.reshape(-1, 1)).ravel()
        fm = g.f((0.5 * x + 0.5 * grid).reshape(-1, 1)).ravel()
        vals += wi * (0.5 * fx + 0.5 * fc - fm) / 0.25
    best = grid[int(np.argmin(vals))]
    assert abs(float(c[0]) - best) < 1e-4


def test_inner_loss_trace_non_increasing():
    rng = np.random.default_rng(83)
    for name in ("shannon", "burg"):
        g = make_builtin(name)
        for _ in range(20):
            pts = rng.uniform(0.3, 6.0, size=rng.integers(2, 7))
            a = rng.uniform(0.1, 0.9)
            data = WeightedPointSet.make(pts.reshape(-1, 1))
            _, losses = jensen_centroid_cccp(g, a, data, iters=15,
                                             trace_loss=True)
            diffs = np.diff(losses)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(losses[:-1])))


def test_weights_override_changes_the_pull():
    # weights enter through WeightedPointSet.make, the one weight check
    g = make_builtin("shannon")
    even = WeightedPointSet.make([[1.0], [4.0]])
    tilted = WeightedPointSet.make(even.points, [9.0, 1.0])
    c_even = jensen_centroid_cccp(g, 0.5, even, iters=50)
    c_tilted = jensen_centroid_cccp(g, 0.5, tilted, iters=50)
    assert float(c_tilted[0]) < float(c_even[0])
    with pytest.raises(ValidationError):
        WeightedPointSet.make(even.points, [1.0])


@pytest.mark.parametrize("weights", [
    [0.0, 0.0, 0.0], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0],
    [-1.0, 1.0, 1.0]])
def test_weights_override_is_checked_like_point_weights(weights):
    # all-zero, NaN and infinite weights once came back as [nan]
    with pytest.raises(ValidationError, match="weights must"):
        WeightedPointSet.make([[1.0], [2.0], [4.0]], weights)


def test_two_stage_exhibit_and_grid_gap():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.5], [2.0], [8.0]])
    res = total_jensen_centroid(g, data, CentroidConfig())
    best = min(res.loss_trace)
    # 1.0089304745385141 with 20 plain steps per stage: solving each stage
    # exactly lands this non-monotone heuristic on a slightly higher loss
    assert best == pytest.approx(1.0089311136790091, rel=1e-10)
    assert best <= res.loss_trace[0]  # improves on the barycenter start
    assert total_loss(g, 0.5, data, res.center) == pytest.approx(best, rel=1e-12)
    # the frozen-weight loop is a heuristic: on this spread-out triple its
    # fixed point sits measurably above the true minimizer of the loss
    _, grid_min = _loss_on_grid(g, [0.5, 2.0, 8.0], data.weights, 0.5,
                                0.15, 13.6)
    gap = best - grid_min
    assert 1e-4 < gap < 1e-2
    # and the trace is genuinely non-monotone on the way there
    diffs = np.diff(res.loss_trace)
    assert np.any(diffs > 0.0)


def test_two_stage_tight_datasets_match_grid():
    for name in ("shannon", "burg"):
        g = make_builtin(name)
        pts = [2.0, 3.0, 4.0]
        data = WeightedPointSet.make(np.reshape(pts, (-1, 1)))
        res = total_jensen_centroid(g, data)
        best = min(res.loss_trace)
        _, grid_min = _loss_on_grid(g, pts, data.weights, 0.5, 0.6, 6.8)
        assert abs(best - grid_min) < 1e-4


def test_euclidean_two_stage_beats_barycenter():
    rng = np.random.default_rng(89)
    g = make_builtin("squared-euclidean", 2)
    pts = rng.normal(size=(3, 2))
    data = WeightedPointSet.make(pts)
    res = total_jensen_centroid(g, data)
    assert res.loss_trace[-1] <= res.loss_trace[0] + 1e-10
    assert min(res.loss_trace) <= res.loss_trace[0]


def test_total_loss_uses_original_weights():
    g = make_builtin("burg")
    data = WeightedPointSet.make([[0.5], [2.0], [5.0]], [1.0, 2.0, 3.0])
    c = np.array([1.7])
    vals = pairwise_total_jensen(g, 0.5, data.points,
                                 np.broadcast_to(c, data.points.shape))
    assert total_loss(g, 0.5, data, c) == pytest.approx(
        float(data.weights @ vals), rel=1e-14)


def test_total_loss_checks_the_center():
    g = make_builtin("shannon", 3)
    data = WeightedPointSet.make([[1.0, 2.0, 3.0], [0.5, 0.5, 2.0]])
    # a 1-coordinate centre was broadcast (1.2309...), a centre outside
    # the domain gave 2.82 and a NaN centre gave 0.0
    with pytest.raises(ValidationError, match="dimension 1"):
        total_loss(g, 0.5, data, [1.0])
    with pytest.raises(ValidationError, match="one point"):
        total_loss(g, 0.5, data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(DomainError, match=r"\[-1.0, 1.0, 1.0\]"):
        total_loss(g, 0.5, data, [-1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        total_loss(g, 0.5, data, [np.nan, 1.0, 1.0])


def test_left_sided_equals_mirrored_right():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.5], [1.0], [6.0]])
    left = left_sided_centroid(g, data, CentroidConfig(alpha=0.3))
    right = total_jensen_centroid(g, data, CentroidConfig(alpha=0.7))
    assert float(left.center[0]) == float(right.center[0])
    assert left.loss_trace == right.loss_trace


def test_plain_jensen_translation_equivariance_half_square():
    g = make_builtin("squared-euclidean")
    base = WeightedPointSet.make([[0.0], [1.0], [3.0]], [1.0, 1.0, 2.0])
    shifted = WeightedPointSet.make([[10.0], [11.0], [13.0]], [1.0, 1.0, 2.0])
    c0 = jensen_centroid_cccp(g, 0.4, base, iters=60)
    c1 = jensen_centroid_cccp(g, 0.4, shifted, iters=60)
    assert float(c1[0]) - float(c0[0]) == pytest.approx(10.0, abs=1e-10)


def test_missing_grad_inverse_is_a_capability_error():
    g = make_builtin("shannon")
    blind = replace(g, grad_inverse=None)
    data = WeightedPointSet.make([[1.0], [2.0]])
    with pytest.raises(CapabilityError):
        total_jensen_centroid(blind, data)
    with pytest.raises(CapabilityError):
        jensen_centroid_cccp(blind, 0.5, data)


def test_boundary_data_point_is_evaluable():
    # a zero coordinate is fine as data: only mixed points need gradients
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.0], [1.0], [2.0]])
    res = total_jensen_centroid(g, data)
    assert 0.0 < float(res.center[0]) < 2.0


def test_truncated_run_reports_non_convergence():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.5], [2.0], [8.0]])
    res = total_jensen_centroid(
        g, data, CentroidConfig(outer_max_iters=2, outer_tol=1e-14))
    assert res.converged is False
    assert res.iterations == 2


def test_explicit_init_is_respected():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[1.0], [2.0], [4.0]])
    res = total_jensen_centroid(g, data, init=np.array([1.1]))
    assert res.loss_trace[0] == pytest.approx(
        total_loss(g, 0.5, data, [1.1]), rel=1e-12)


@pytest.mark.parametrize("side", [total_jensen_centroid, left_sided_centroid])
@pytest.mark.parametrize("init, match", [
    # [1.0] on 3-D data once ran, with F taken of a one-coordinate point;
    # [1.0, 2.0] and a 2-D init ended in numpy ValueErrors
    ([1.0], "point has dimension 1, generator expects 3"),
    ([1.0, 2.0], "point has dimension 2, generator expects 3"),
    ([[1.0, 1.0, 1.0]], "expected a point vector"),
    ([1.0, np.nan, 1.0], "NaN or Inf")])
def test_init_is_checked_as_a_point_of_the_generator(side, init, match):
    g = make_builtin("shannon", 3)
    data = WeightedPointSet.make([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]])
    with pytest.raises(ValidationError, match=match):
        side(g, data, init=init)
    # a point of the right dimension outside the interior is a domain error
    with pytest.raises(DomainError, match="interior of shannon"):
        side(g, data, init=[1.0, 0.0, 1.0])
    assert side(g, data, init=[1.0, 1.0, 1.0]).converged


@pytest.mark.parametrize("name, dim, outer_max", [
    ("shannon", 4, 1000), ("burg", 2, 1000), ("shannon", 16, 3)])
def test_stage_traces_match_a_reference_loop_bitwise(name, dim, outer_max):
    g = make_builtin(name, dim)
    rng = np.random.default_rng(dim)
    pts = np.exp(rng.normal(0.0, 0.6, size=(300, dim)))
    pts[:6] *= 40.0  # outliers make rho_J vary across the points
    data = WeightedPointSet.make(pts, rng.uniform(0.5, 2.0, size=300))
    cfg = CentroidConfig(alpha=0.4, inner_cccp_iters=5,
                         outer_max_iters=outer_max)
    res = total_jensen_centroid(g, data, cfg)

    def loss(c):
        return float(data.weights @ pairwise_total_jensen(
            g, 0.4, data.points, c[None, :]))

    # each stage's weights renormalised by rho_J at the current centre
    c = data.weights @ data.points
    losses, centers = [loss(c)], []
    for _ in range(res.iterations):
        wt = data.weights * pairwise_conformal(g, data.points, c[None, :])
        c = cccp_steps(g, 0.4, data.points, wt / wt.sum(), c, 5).center
        centers.append(c)
        losses.append(loss(c))
    assert res.loss_trace == losses
    assert len(res.stages) == len(centers)
    for stage, want in zip(res.stages, centers):
        assert np.array_equal(stage.center, want)
    # the returned centre is the first least loss's
    best = losses.index(min(losses))
    assert np.array_equal(res.center, centers[best - 1] if best else
                          data.weights @ data.points)


# the stage solver


def _stage_set(name, n=400, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    if name == "bit":
        pts = rng.uniform(0.05, 0.95, size=(n, dim))
    else:
        pts = np.exp(rng.normal(0.0, 0.8, size=(n, dim)))
        pts[:8] *= 30.0  # outliers slow the plain iteration down
    return pts, rng.uniform(0.5, 2.0, size=n)


def _plain_step(g, alpha, x, w, c):
    # the CCCP map, written out on the kernels' column-major layout (BLAS
    # sums w @ G in another order on a row-major buffer)
    x = np.asfortranarray(x)
    c = g.grad_inverse(w @ g.grad(alpha * x + (1.0 - alpha) * c[None, :]))
    return np.clip(c, g.domain.lo + 1e-12, g.domain.hi - 1e-12)


@pytest.mark.parametrize("name", ["shannon", "burg", "bit"])
def test_a_cap_of_one_is_one_plain_step(name):
    g = make_builtin(name, 4)
    pts, w = _stage_set(name)
    w = w / w.sum()
    c0 = w @ pts
    solve = cccp_steps(g, 0.3, pts, w, c0, 1)
    assert solve.evals == 1 and solve.accepted == 0
    assert solve.stop == "cap"
    assert np.array_equal(solve.center, _plain_step(g, 0.3, pts, w, c0))


@pytest.mark.parametrize("iters", [2.7, 2.0, 0, -3, "3", None])
def test_a_cap_that_is_not_a_positive_count_is_rejected(iters):
    # int(iters) once ran 2.7 as 2 evaluations, and 0 and -3 as 1
    g = make_builtin("shannon", 4)
    pts, w = _stage_set("shannon")
    w = w / w.sum()
    with pytest.raises(ValidationError, match="^iters must"):
        cccp_steps(g, 0.3, pts, w, w @ pts, iters)


def test_an_integer_cap_bounds_the_evaluations():
    g = make_builtin("shannon", 4)
    pts, w = _stage_set("shannon")
    w = w / w.sum()
    for iters in (2, np.int64(3)):
        solve = cccp_steps(g, 0.3, pts, w, w @ pts, iters)
        assert solve.evals == iters and solve.stop == "cap"


@pytest.mark.parametrize("name", ["shannon", "burg", "bit"])
@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_stage_reaches_tol_and_beats_twenty_plain_steps(name, alpha):
    g = make_builtin(name, 4)
    pts, w = _stage_set(name, seed=int(alpha * 10))
    w = w / w.sum()
    c0 = w @ pts
    solve = cccp_steps(g, alpha, pts, w, c0, 20)
    assert solve.stop == "tol" and solve.evals <= 20
    assert solve.accepted >= 1
    plain = c0
    for _ in range(20):
        plain = _plain_step(g, alpha, pts, w, plain)
    assert jensen_loss(g, alpha, pts, w, solve.center) <= jensen_loss(
        g, alpha, pts, w, plain)
    # the next plain step barely moves the solved centre
    step = _plain_step(g, alpha, pts, w, solve.center) - solve.center
    assert np.abs(step).max() <= CCCP_TOL * np.abs(solve.center).max()


@pytest.mark.parametrize("seed", [4, 8, 9])
def test_residual_safeguard_keeps_hard_stages_converging(seed):
    # widely spread sets on which the solver, taking every extrapolated
    # point without the residual test, spends the whole cap of 20
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    g = make_builtin("shannon", 4)
    pts = np.exp(rng.normal(0.0, rng.uniform(0.5, 3.0), size=(n, 4)))
    w = rng.uniform(0.1, 2.0, n)
    w = w / w.sum()
    solve = cccp_steps(g, rng.uniform(0.05, 0.95), pts, w, w @ pts, 20)
    assert solve.stop == "tol"


def test_bit_stage_near_the_box_edges_falls_back_to_plain_steps():
    # the first coordinate's fixed point lies 2.3e-12 above 0, and some
    # extrapolated points land below 0: those must never reach grad
    g = make_builtin("bit", 2)
    pts = np.column_stack([np.zeros(40), np.full(40, 1.0 - 1e-9)])
    pts[0] = [0.5, 0.5]
    w = np.full(40, 1.0 / 40)
    with np.errstate(all="raise"):  # grad outside (0, 1) would raise
        solve = cccp_steps(g, 0.5, pts, w, w @ pts, 500)
        step = _plain_step(g, 0.5, pts, w, solve.center) - solve.center
    assert solve.stop == "tol"
    assert 0.0 < solve.center[0] < 1e-11 and solve.center[1] < 1.0
    assert np.abs(step).max() <= CCCP_TOL * np.abs(solve.center).max()


def test_jensen_centroid_cccp_stays_plain():
    # both modes run the plain, per-step monotone iteration
    g = make_builtin("shannon", 4)
    pts, w = _stage_set("shannon")
    data = WeightedPointSet.make(pts, w)
    c, losses = jensen_centroid_cccp(g, 0.4, data, iters=12, trace_loss=True)
    assert np.array_equal(c, jensen_centroid_cccp(g, 0.4, data, iters=12))
    plain = data.weights @ data.points
    for _ in range(12):
        plain = _plain_step(g, 0.4, data.points, data.weights, plain)
    assert np.array_equal(c, plain)
    assert np.all(np.diff(losses) <= 0.0)


def test_result_reports_stop_reason_and_stages():
    g = make_builtin("shannon", 4)
    pts, w = _stage_set("shannon")
    data = WeightedPointSet.make(pts, w)
    res = total_jensen_centroid(g, data)
    assert res.stop_reason == "converged" and res.converged
    assert len(res.stages) == res.iterations
    assert all(s.stop == "tol" and 1 <= s.evals <= 20 for s in res.stages)
    best = int(np.argmin(res.loss_trace))  # the centre is the best stage's
    assert best >= 1 and np.array_equal(res.stages[best - 1].center, res.center)
    capped = total_jensen_centroid(
        g, data, CentroidConfig(inner_cccp_iters=2, outer_max_iters=3,
                                outer_tol=1e-14))
    assert capped.stop_reason == "max_iters" and not capped.converged
    assert [s.stop for s in capped.stages] == ["cap"] * 3
    assert all(s.evals == 2 for s in capped.stages)


def test_oscillation_guard_is_named():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.661], [6.966], [4.527]])
    res = total_jensen_centroid(g, data, CentroidConfig(outer_tol=1e-300))
    assert res.stop_reason == "oscillation" and not res.converged
    assert np.all(np.diff(res.loss_trace)[-5:] > 0.0)


@pytest.mark.parametrize("side", [total_jensen_centroid, left_sided_centroid])
def test_data_dimension_must_match_the_generator(side):
    data = WeightedPointSet.make([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValidationError,
                       match="data dimension 2 does not match generator 3"):
        side(make_builtin("shannon", 3), data)


def test_start_is_returned_when_no_stage_lowers_the_loss():
    g = make_builtin("shannon")
    data = WeightedPointSet.make([[0.661], [6.966], [4.527]])
    res = total_jensen_centroid(
        g, data, CentroidConfig(outer_max_iters=3), init=[3.5])
    assert len(res.stages) == 3
    assert min(res.loss_trace[1:]) > res.loss_trace[0]
    assert np.array_equal(res.center, [3.5])


def test_cccp_centroid_below_the_old_margin_scales_with_the_points():
    # the solver kept G 1e-12 inside the domain and returned 1e-12 here,
    # where the centroid is 1.8685e-14
    g = make_builtin("shannon")
    tiny = jensen_centroid_cccp(
        g, 0.5, WeightedPointSet.make([[1e-14], [3e-14]]), iters=50)
    unit = jensen_centroid_cccp(
        g, 0.5, WeightedPointSet.make([[1.0], [3.0]]), iters=50)
    assert tiny[0] == pytest.approx(1e-14 * unit[0], rel=1e-12, abs=0.0)


def test_cccp_centroids_near_both_ends_of_bit():
    # bit's F is symmetric under x -> 1 - x, and near 0 it is shannon's F
    # to first order; the solver returned 1e-12 and 1 - 1e-12 here
    x = np.array([[1.0 - 1e-14], [1.0 - 3e-14]])
    u = 1.0 - x  # exact

    def centroid(name, pts):
        return jensen_centroid_cccp(make_builtin(name), 0.5,
                                    WeightedPointSet.make(pts), iters=50)[0]

    s = 2.0 ** -46  # shannon's centroid scales with the points
    ref = s * centroid("shannon", u / s)
    assert centroid("bit", u) == pytest.approx(ref, rel=1e-12, abs=0.0)
    # a point near 1 is resolved to an ulp of 1
    assert abs(centroid("bit", x) - (1.0 - ref)) <= 4 * 2.0 ** -53


def test_cccp_moves_only_coordinates_on_a_domain_end():
    # an inverse gradient that rounds onto both ends of bit's domain in
    # two coordinates: those move to the nearest floats inside, and the
    # third keeps the plain step's bits
    plain = make_builtin("bit", 3)
    ends = np.array([0.0, 1.0, np.nan])
    g = replace(plain, grad_inverse=lambda y: np.where(
        np.isnan(ends), plain.grad_inverse(y), ends))
    x = np.array([[0.2, 0.4, 0.6], [0.3, 0.5, 0.7]])
    w = np.array([0.5, 0.5])
    c = cccp_steps(g, 0.5, x, w, w @ x, 1).center
    assert c[0] == 5e-324 and c[1] == 1.0 - 2.0 ** -53
    assert c[2] == cccp_steps(plain, 0.5, x, w, w @ x, 1).center[2]


def test_total_loss_checks_the_points():
    # 1-D points under a 2-D generator and a row at -1 gave numbers
    g = make_builtin("shannon", 2)
    with pytest.raises(ValidationError, match="dimension 1"):
        total_loss(g, 0.5, WeightedPointSet.make([[1.0], [2.0]]), [1.0, 1.0])
    bad = WeightedPointSet.make([[1.0, 2.0], [-1.0, 0.5]])
    with pytest.raises(DomainError, match=r"\[-1.0, 0.5\]") as exc:
        total_loss(g, 0.5, bad, [1.0, 1.0])
    assert exc.value.row == 1


def test_weights_whose_sum_overflows_are_scaled_first():
    # the sum was inf, so the weights came out 0 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        even = WeightedPointSet.make([[1.0], [2.0]], [1e308, 1e308])
        tilted = WeightedPointSet.make([[1.0], [2.0], [3.0]],
                                       [1.5e308, 0.5e308, 1e308])
    assert even.weights.tolist() == [0.5, 0.5]
    assert tilted.weights.tolist() == pytest.approx([0.5, 1 / 6, 1 / 3],
                                                    rel=1e-15)
