"""Point sets have one layout, column-major (n, d) float64, and the
kernels give the same bits whatever layout a caller passes."""

import numpy as np
import pytest

from tjdiv.centroids import WeightedPointSet
from tjdiv.cli import load_dataset
from tjdiv.generators import as_points, coordinate_sum, make_builtin
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
