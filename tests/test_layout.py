"""Point sets have one layout, column-major (n, d) float64, and the
kernels give the same bits whatever layout a caller passes and however
many rows they take at a time."""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tjdiv import kernels
from tjdiv.centroids import WeightedPointSet
from tjdiv.cli import load_dataset
from tjdiv.generators import (
    Domain, Generator, affine_postcompose, affine_precompose, as_points,
    coordinate_sum, make_builtin, takes_out)
from tjdiv.kernels import (
    cccp_steps, min_divergence_assign, pairwise_total_jensen)

NAMES = ("shannon", "burg", "bit", "squared-mahalanobis")


def _case(name, dim):
    """(generator, (2m, dim) row-major points in its domain)."""
    rng = np.random.default_rng(dim)
    if name == "squared-mahalanobis":
        a = rng.normal(size=(dim, dim))
        g = make_builtin(name, dim, matrix=a @ a.T + dim * np.eye(dim))
        return g, rng.normal(0.0, 2.0, size=(600, dim))
    g = make_builtin(name, dim)
    if name == "bit":
        return g, rng.uniform(0.05, 0.95, size=(600, dim))
    return g, np.exp(rng.normal(0.0, 1.0, size=(600, dim)))


def _layouts(x):
    """x[::2] as a row-major copy, a column-major copy and the strided
    slice itself."""
    s = x[::2]
    return [np.ascontiguousarray(s), np.asfortranarray(s), s]


@pytest.mark.parametrize("dim", [1, 4, 8, 16])
@pytest.mark.parametrize("name", NAMES)
def test_kernels_give_the_same_bits_on_every_layout(name, dim):
    g, x = _case(name, dim)
    centers = np.ascontiguousarray(x[1:10:2])
    w = np.linspace(1.0, 2.0, 300)
    w /= w.sum()
    c0 = w @ x[::2]
    outs = []
    for pts in _layouts(x):
        mind, idx = min_divergence_assign(g, 0.3, pts, centers)
        outs.append([g.f(pts),
                     pairwise_total_jensen(g, 0.3, pts, centers[:1]),
                     pairwise_total_jensen(g, 0.3, pts, pts[::-1]),
                     mind, idx,
                     cccp_steps(g, 0.3, pts, w, c0, 5).center])
    for other in outs[1:]:
        for a, b in zip(outs[0], other):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 4, 8, 16])
@pytest.mark.parametrize("name", NAMES)
def test_a_row_alone_gives_the_bits_it_gives_in_a_batch(name, dim):
    # numpy's own sum adds a contiguous row pairwise, in blocks of 8, and
    # a strided one left to right; coordinate_sum always goes left to right
    g, x = _case(name, dim)
    batch = g.f(x)
    alone = np.array([g.f(x[i:i + 1])[0] for i in range(len(x))])
    assert np.array_equal(batch, alone)
    # a single (d,) point takes coordinate_sum's one-call path
    assert np.array_equal(batch, [g.f(row) for row in x])
    assert np.array_equal(coordinate_sum(x), np.asfortranarray(x).sum(axis=1))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [2, 4, 16])
def test_mahalanobis_gradients_give_batch_bits_and_keep_layout(dim, order):
    # grad_inverse was y @ q_inv through BLAS: at d = 4 about half the
    # rows had other bits alone than in a batch, and its output was
    # row-major whatever the input's layout
    g, x = _case("squared-mahalanobis", dim)
    x = np.asarray(x[:200], order=order)
    for part in (g.grad, g.grad_inverse):
        batch = part(x)
        assert np.array_equal(batch, [part(row) for row in x])
        assert np.array_equal(batch, np.vstack([part(x[i:i + 1])
                                                for i in range(len(x))]))
        assert batch.flags.f_contiguous == x.flags.f_contiguous


def test_point_sets_are_column_major(tmp_path):
    x = np.exp(np.random.default_rng(0).normal(size=(50, 4)))
    assert x.flags.c_contiguous and not x.flags.f_contiguous
    assert as_points(x).flags.f_contiguous
    assert as_points(x.tolist()).flags.f_contiguous
    assert as_points(x[::3]).flags.f_contiguous
    assert WeightedPointSet.make(x).points.flags.f_contiguous
    path = tmp_path / "pts.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    data, _ = load_dataset(str(path))
    assert data.points.flags.f_contiguous
    assert np.array_equal(data.points, x)
    # column-major input, (n, 1) and (1, d) are already the layout: the
    # boundary hands them back uncopied
    for ready in (np.asfortranarray(x), x[:, :1].copy(), x[:1].copy()):
        assert as_points(ready) is ready


# row blocks: a kernel run a few rows at a time gives the bits of the same
# kernel run on all rows at once

_BLOCK = 5


def _blocked_case(name, dim):
    """(generator, (2 _BLOCK + 3, dim) column-major points in its
    domain) for a builtin, an affine-composed and a user generator."""
    if name in NAMES:
        g, x = _case(name, dim)
    else:
        rng = np.random.default_rng(dim + 100)
        if name == "squared-euclidean":
            g = make_builtin(name, dim)
            x = rng.normal(0.0, 2.0, size=(600, dim))
        elif name == "affine":
            g = affine_postcompose(
                affine_precompose(make_builtin("burg", dim), 2.0, 0.5), 3.0)
            x = np.exp(rng.normal(0.0, 1.0, size=(600, dim)))
        else:
            # sum cosh(x_i), written by a user: its own callables and domain
            g = Generator(
                name="cosh", dim=dim, domain=Domain(-np.inf, np.inf),
                f=lambda x: coordinate_sum(np.cosh(x)), grad=np.sinh,
                grad_inverse=np.arcsinh)
            x = rng.normal(0.0, 1.0, size=(600, dim))
    return g, as_points(x[:2 * _BLOCK + 3])


def _kernel_outputs(g, x):
    """Every row-wise kernel on x, by name: q as one row and as n rows,
    centres with a tie and a point among them, and one CCCP stage."""
    n = len(x)
    row, rev = x[n // 2:n // 2 + 1], np.asfortranarray(x[::-1])
    centers = np.asfortranarray(x[[1, 0, 1, n - 1]])  # centres 0 and 2 tie
    w = np.linspace(1.0, 2.0, n)
    w /= w.sum()
    solve = cccp_steps(g, 0.3, x, w, w @ x, 20)
    return {
        "gap_row": kernels.jensen_gap_and_conformal(g, 0.3, x, row),
        "gap_rows": kernels.jensen_gap_and_conformal(g, 0.3, x, rev),
        "gap_p_row": kernels.jensen_gap_and_conformal(g, 0.3, row, x),
        "tj_fp": kernels.total_jensen_and_conformal(g, 0.3, x, row,
                                                    fp=g.f(x)),
        "chord": kernels.chord_factors(g, x, rev),
        "assign": min_divergence_assign(g, 0.3, x, centers),
        "table": kernels.tj_table(g, 0.3, x),
        "rho_b": kernels.gradient_conformal(g, x),
        "loss": kernels.jensen_loss(g, 0.3, x, w, w @ x),
        "stage": solve[1:],
        "center": solve.center,
    }


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 3])
@pytest.mark.parametrize("dim", [1, 4, 16])
@pytest.mark.parametrize("name", NAMES + (
    "squared-euclidean", "affine", "user"))
def test_row_blocks_give_the_bits_of_one_block(name, dim, n, monkeypatch):
    g, x = _blocked_case(name, dim)
    x = x[:n]
    whole = _kernel_outputs(g, x)
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * dim * _BLOCK)
    blocked = _kernel_outputs(g, x)
    for key, val in whole.items():
        assert np.array_equal(val, blocked[key]), key
    # the tie goes to the lower centre
    assert 2 not in blocked["assign"][1]


def test_one_block_returns_the_kernels_own_arrays():
    x = as_points(np.ones((4, 2)))
    part = (np.zeros(4), np.ones(4))
    assert kernels._by_rows(lambda x: part, 4, 2, x) is part


def test_tj_kernel_holds_less_than_one_more_point_set():
    # at 20000 x 16 the unblocked kernel peaked at 5.2 MiB, twice the
    # points' 2.4 MiB; row blocks hold two 1 MiB block temporaries and
    # the (n,) outputs
    g = make_builtin("shannon", 16)
    x = as_points(np.exp(np.random.default_rng(8).normal(size=(20000, 16))))
    fx, c = g.f(x), x.mean(axis=0)[None]
    tracemalloc.start()
    try:
        kernels.total_jensen_and_conformal(g, 0.5, x, c, fp=fx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * x.nbytes


# grad(x, out=buf): a generator's gradient written into the caller's
# buffer, which may be x itself, with the bits of grad(x)

_OUT_NAMES = NAMES + ("squared-euclidean", "affine", "user", "pre-negative",
                      "affine-of-plain-grad")


def _out_case(name, dim):
    """_blocked_case, plus shannon precomposed with a < 0 and an affine
    map of a user grad that takes no out=."""
    if name == "pre-negative":
        g, x = _blocked_case("shannon", dim)
        return affine_precompose(g, -2.0), as_points(-x)
    if name == "affine-of-plain-grad":
        g, x = _blocked_case("user", dim)
        g = replace(g, grad=lambda y: np.sinh(y))
        return affine_postcompose(affine_precompose(g, 0.5), 3.0), x
    return _blocked_case(name, dim)


@pytest.mark.parametrize("dim", [1, 4, 16])
@pytest.mark.parametrize("name", _OUT_NAMES)
def test_grad_into_out_gives_the_bits_of_grad(name, dim):
    g, x = _out_case(name, dim)
    assert takes_out(g.grad)
    whole = g.grad(x)
    for row, ref in zip(x, whole):  # (d,) points
        buf = np.empty(dim)
        assert g.grad(row, out=buf) is buf
        assert np.array_equal(buf, ref)
    kept = x.copy(order="F")
    gr = np.empty_like(x, order="F")
    same = x.copy(order="F")
    for i in range(0, len(x), _BLOCK):  # F-order row-block views
        b, s = gr[i:i + _BLOCK], same[i:i + _BLOCK]
        assert g.grad(x[i:i + _BLOCK], out=b) is b
        assert g.grad(s, out=s) is s  # out is x
    assert np.array_equal(gr, whole)
    assert np.array_equal(same, whole)
    assert np.array_equal(x, kept)


def test_takes_out_reads_the_callable():
    assert takes_out(np.log)
    assert takes_out(lambda x, out=None: x)
    assert takes_out(lambda x, *, out: x)
    assert takes_out(lambda x, **kw: x)
    assert not takes_out(lambda x: x)
    assert not takes_out(lambda x, *args: x)
    assert not takes_out(len)
    # a forwarding wrapper declares what it wraps
    assert takes_out(_forwarding(np.log))
    assert takes_out(_forwarding(_forwarding(lambda x, out=None: x)))
    assert not takes_out(_forwarding(lambda x: x))
    assert not takes_out(functools.wraps(np.log)(lambda x: np.log(x)))


def _forwarding(fn):  # a generic wrapper, as a logger or tracer writes one
    @functools.wraps(fn)
    def forward(*args, **kwargs):
        return fn(*args, **kwargs)
    return forward


@pytest.mark.parametrize("name", NAMES + ("squared-euclidean", "affine",
                                          "user"))
def test_a_stage_hands_grad_its_block_on_every_call(name, monkeypatch):
    g, x = _blocked_case(name, 4)
    w = np.linspace(1.0, 2.0, len(x))
    w /= w.sum()
    whole = cccp_steps(g, 0.3, x, w, w @ x, 20)
    seen = []

    def grad(y, **kw):
        seen.append(kw.get("out") is y)
        return g.grad(y, **kw)

    monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 4 * _BLOCK)
    solve = cccp_steps(replace(g, grad=grad), 0.3, x, w, w @ x, 20)
    # 13 rows in blocks of 5: three grad calls per evaluation
    assert len(seen) == 3 * solve.evals and all(seen)
    assert np.array_equal(solve.center, whole.center)
    assert solve[1:] == whole[1:]


@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.parametrize("name", ["shannon", "user"])
def test_a_grad_that_ignores_out_gives_the_same_stage(name, blocked,
                                                      monkeypatch):
    g, x = _blocked_case(name, 4)
    w = np.linspace(1.0, 2.0, len(x))
    w /= w.sum()
    if blocked:
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 8 * 4 * _BLOCK)
    solves = [cccp_steps(replace(g, grad=grad), 0.3, x, w, w @ x, 20)
              for grad in (g.grad, lambda y: g.grad(y),
                           lambda y, **kwargs: g.grad(y),
                           _forwarding(lambda y: g.grad(y)))]
    for other in solves[1:]:
        assert np.array_equal(other.center, solves[0].center)
        assert other[1:] == solves[0][1:]
