"""Hot numeric kernels: row-wise tJ and rho_J, the Jensen loss, the
assignment sweep, the tJ table and the CCCP stage solver.

Each kernel is vectorized numpy written against the generator's batched
callables (f, grad, grad_inverse), so builtin, affine-transformed and
user-supplied generators all take the same path. Rows broadcast, so a
centre is one (1, d) row and F runs on it once.

Point sets have one layout: column-major (n, d) float64, which
`generators.as_points` returns and `_rows` gives every kernel operand
whatever the caller passed. Every quantity here is a per-point sum over
d coordinates against a broadcast centre; column-major, each coordinate
is one contiguous column of n values, so numpy's inner loops run over n
rather than over d. Each sum over coordinates (F of the builtins,
|p - q|^2, |grad F|^2) goes through `generators.coordinate_sum`, whose
order depends on neither layout nor batch size: a (1, d) row gives the
same bits as that row inside an (n, d) batch, and an F computed from a
row-major copy of the points equals the kernel's own.

The formulas are written here, once each, and nowhere else outside the
geometry oracle: the raw gap J'_alpha (`_jensen`), the squared chord slope
and rho_J (`_chord`), the Bregman gap B_F (`bregman_gap`), rho_B
(`gradient_conformal`), and tJ_alpha = rho_J J'_alpha / (alpha (1 -
alpha)) (`_scale`), both factors from one F pass
(`total_jensen_and_conformal`). Callers: divergences (B_F too) and the
CLI, on (1, d) rows, so a scalar value is the kernel entry's float;
seeding (`tj_row`), Lloyd, the bound experiment and the centroids (tJ);
the influence sweep (rho_J); the bound constants (K2 from
`chord_factors`, rho_B).

F of the point side depends only on the point set, so a caller that
sweeps the same points against many centres, or runs many centroid
stages on them, computes it once and passes it in (`fp=` of
`jensen_gap_and_conformal` and the tJ kernels on it, `fx=` of
`min_divergence_assign` and `jensen_loss`). F not handed in is computed
once per call, a row block at a time (`_f`), with the same bits; every
block function receives F of both operands and evaluates F only at the
midpoints.

Points against a set of centres, tJ_alpha(x_i : c_j), is one block
kernel, `_tj_block`, the one place that decides which (point, centre)
pairs share a pass: a group of centres, as an (m, 1, d) array, broadcasts
against a (rows, d) row block, and F runs on the (m, rows, d) midpoints.
The assignment sweep reduces its blocks over the centres, and `tj_table`
keeps them whole, its row j the sweep's column for centre x_j, bit for
bit. A seeding column is one such row alone (`tj_row`): a one-centre
`_tj_block` pass per row block, reading F(x_j) from the F(x) the caller
holds, so F runs only at the midpoints.

`_BLOCK_BYTES`, 1 MiB or 8192 rows at d = 16, is the one work budget.
Every kernel runs a row block at a time (`_by_rows`), so that no (rows,
d) operand it forms (the midpoints alpha p + (1 - alpha) q, p - q, grad
F, their squares, a block's (m, rows, d) pairs) exceeds it, and the
optimum's subset scan in `clustering` holds blocks of that size.
Temporaries the size of a large point set came from fresh, zeroed pages
at every allocation: on 20000 x 16 points one unblocked tJ call took
about twice as long as the same call in row blocks, and made some 1200
minor page faults where the blocked call made none. Each block's
results go into preallocated n-row outputs; when one block holds every
row, the block's arrays are returned as they are, with no copy. Every
row's value has the same bits alone and inside any batch, so the block
size moves no result. `cccp_steps` holds one (n, d) buffer per call,
and at each evaluation grad writes each block of it in place.

Kernels check only their own options, alpha in (0, 1) (`as_real`; the
limit cases belong to the divergence API) and `cccp_steps`' evaluation
cap (`as_count`), and `_rows` gives each operand the one layout. The
public functions of divergences, geometry, robustness, centroids and
clustering, and the CLI's loader, check each array once (as_point or
as_points, then one vectorized ensure_domain pass) before any kernel
sees it; the CLI's other kernel calls read rows that one of them checked.
"""

import math
from typing import NamedTuple

import numpy as np

from .generators import as_count, as_real, coordinate_sum, takes_out

# the most bytes of any (rows, d) float64 operand a kernel forms; at 2
# MiB the page faults came back on 20000 x 16 points, and at 256 KiB a
# 20000 x 4 sweep no longer fit in one block
_BLOCK_BYTES = 1 << 20


def _rows(a):
    # the one layout: column-major float64, free on as_points output;
    # row-major, strided and stride-0 input is copied once
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return np.asfortranarray(a)


def _by_rows(fn, n, d, *args, out=None):
    """fn(*args) over row blocks of n rows of d coordinates, each block
    within _BLOCK_BYTES. An array with n rows is cut into blocks; every
    other argument (the generator, alpha, a broadcast row, None) passes
    whole. fn returns a tuple of arrays with one row per block row,
    written into n-row outputs: `out`, or new ones. When one block holds
    all n rows, fn's own arrays come back as they are."""
    step = max(1, _BLOCK_BYTES // (8 * d))
    if n <= step:
        return fn(*args)
    for i in range(0, n, step):
        s = slice(i, i + step)
        part = fn(*(a[s] if isinstance(a, np.ndarray) and a.shape[:1] == (n,)
                    else a for a in args))
        if out is None:
            out = tuple(np.empty((n,) + r.shape[1:], r.dtype, order="F")
                        for r in part)
        for j, o in enumerate(out):
            o[s] = part[j]
        # dropped before fn makes the next block, which then reuses their
        # memory: held a block longer, they made the allocator hand pages
        # back to the system and fault them in again
        del part
    return out


def _f(g, a, fa=None):
    """F of a's rows: fa if given, else computed a row block at a time."""
    if fa is not None:
        return fa
    return _by_rows(lambda b: (g.f(b),), len(a), a.shape[1], a)[0]


def _jensen(g, alpha, p, q, fp, fq):
    """Row raw Jensen gap J'_alpha(p : q) from fp = F(p) and fq = F(q);
    F is evaluated only at the midpoints."""
    return alpha * fp + (1.0 - alpha) * fq - g.f(alpha * p + (1.0 - alpha) * q)


def _chord(p, q, fp, fq):
    """(row Delta_F, squared slope Delta_F^2/<Delta,Delta>, rho_J, mask of
    p != q) from fp, fq = F(p), F(q); slope 0 and rho_J 1 where p = q."""
    df = fp - fq
    dd = coordinate_sum((p - q) ** 2)
    nz = dd > 0.0
    s2 = np.divide(df ** 2, dd, out=np.zeros(dd.shape), where=nz)
    return df, s2, 1.0 / np.sqrt(1.0 + s2), nz


def _gap_rho(g, alpha, p, q, fp, fq):
    """One block's (raw gap, exactly 0 where p_i = q_i; rho_J)."""
    gap = _jensen(g, alpha, p, q, fp, fq)
    _, _, rho, nz = _chord(p, q, fp, fq)
    np.copyto(gap, 0.0, where=~nz)
    return gap, rho


def _scale(gap, rho, alpha):
    """Row tJ_alpha = rho_J J'_alpha / (alpha (1 - alpha))."""
    return rho * gap / (alpha * (1.0 - alpha))


def jensen_gap_and_conformal(g, alpha, p, q, *, fp=None):
    """Row-wise (raw gap J'_alpha(p_i : q_i), exactly 0 where p_i = q_i;
    rho_J(p_i, q_i)) from one F pass; a (1, d) row broadcasts, and fp is
    F(p) if already known."""
    alpha = as_real("alpha", alpha)
    p, q = _rows(p), _rows(q)
    return _by_rows(_gap_rho, max(len(p), len(q)), p.shape[1], g, alpha,
                    p, q, _f(g, p, fp), _f(g, q))


def total_jensen_and_conformal(g, alpha, p, q, *, fp=None):
    """Row-wise (scaled tJ_alpha(p_i : q_i), rho_J(p_i, q_i)) from one F
    pass; a (1, d) row broadcasts, and fp is F(p) if already known. The
    gap and the scale read the one checked float alpha."""
    alpha = as_real("alpha", alpha)
    gap, rho = jensen_gap_and_conformal(g, alpha, p, q, fp=fp)
    return _scale(gap, rho, alpha), rho


def pairwise_total_jensen(g, alpha, p, q, *, fp=None):
    """Row-wise scaled tJ_alpha(p_i : q_i); a (1, d) row broadcasts, and
    fp is F(p) if already known."""
    return total_jensen_and_conformal(g, alpha, p, q, fp=fp)[0]


def chord_factors(g, p, q):
    """Row-wise (Delta_F, squared chord slope, rho_J) of (p_i, q_i) from
    one F pass, as in _chord; rows broadcast."""
    p, q = _rows(p), _rows(q)
    return _by_rows(lambda *a: _chord(*a)[:3], max(len(p), len(q)),
                    p.shape[1], p, q, _f(g, p), _f(g, q))


def pairwise_conformal(g, p, q):
    """Row-wise rho_J(p_i, q_i); 1 on coincident rows, and rows broadcast."""
    return chord_factors(g, p, q)[2]


def bregman_gap(g, p, q):
    """Row-wise B_F(p_i : q_i), q_i interior; exactly 0 where p_i = q_i
    and grad F(q_i) is finite."""
    p, q = _rows(p), _rows(q)
    return _by_rows(
        lambda p, q, fp, fq: (fp - fq - coordinate_sum((p - q) * g.grad(q)),),
        max(len(p), len(q)), p.shape[1], p, q, _f(g, p), _f(g, q))[0]


def gradient_conformal(g, q):
    """Row-wise rho_B(q_i) = 1/sqrt(1 + |grad F(q_i)|^2), q_i interior;
    1/|grad F| where its square overflows, the norm by hypot, which scales
    each step by its larger operand (Higham 2002, sec. 27)."""
    q = _rows(q)
    with np.errstate(over="ignore"):
        rho = _by_rows(
            lambda q: (1.0 / np.sqrt(1.0 + coordinate_sum(g.grad(q) ** 2)),),
            len(q), q.shape[1], q)[0]
    big = rho == 0.0
    if big.any():
        rho[big] = 1.0 / np.hypot.reduce(g.grad(q[big]), axis=-1, initial=0.0)
    return rho


def jensen_loss(g, alpha, x, w, c, *, fx=None):
    """Weighted scaled Jensen loss sum_i w_i J_alpha(x_i : c), one centre
    c; fx is F(x) if already known."""
    alpha = as_real("alpha", alpha)
    x, c = _rows(x), np.reshape(c, (1, -1))
    gap = _by_rows(lambda *a: (_jensen(g, alpha, *a),), len(x), x.shape[1],
                   x, c, _f(g, x, fx), _f(g, c))[0]
    return float(w @ gap) / (alpha * (1.0 - alpha))


def _tj_block(g, alpha, xb, fxb, centers, fc):
    """The (k, rows) block of tJ_alpha(xb_i : centers_j), row j for
    centre j; fxb = F(xb) and fc = F(centers). Centres come m at a time,
    as many as keep the (m, rows, d) pairs within _BLOCK_BYTES. A group,
    one centre or many, is one kernel pass: its (m, 1, d) centres
    broadcast against the (rows, d) block, so neither side is copied.
    Every entry has the bits of its own one-centre pass."""
    rows, k = len(xb), len(centers)
    m = max(1, _BLOCK_BYTES // (8 * xb.size))
    out = None if k <= m else np.empty((k, rows))
    for j in range(0, k, m):
        vals = _scale(*_gap_rho(g, alpha, xb, centers[j:j + m, None], fxb,
                                fc[j:j + m, None]), alpha)
        if out is None:  # one group: its fresh values are the block
            return vals
        out[j:j + m] = vals
    return out


def _tj_rows(g, alpha, x, fx, centers, fc):
    """(k, n) rows tJ_alpha(x_i : centers_j), one _tj_block per row block
    of x; fx = F(x) and fc = F(centers)."""
    return _by_rows(
        lambda xb, fxb: (_tj_block(g, alpha, xb, fxb, centers, fc).T,),
        len(x), x.shape[1], x, fx)[0].T


def tj_table(g, alpha, x):
    """The n x n table t[j, i] = tJ_alpha(x_i : x_j) of x against its own
    rows. Row j is the column of centre x_j, so every read of a centre is
    a contiguous row, with the bits of min_divergence_assign's column for
    that centre. F(x) is computed once and read for both sides."""
    alpha = as_real("alpha", alpha)
    x = _rows(x)
    fx = _f(g, x)
    return _tj_rows(g, alpha, x, fx, x, fx)


def tj_row(g, alpha, x, j, *, fx=None):
    """Row j of tj_table(g, alpha, x), 0 <= j < n: tJ_alpha(x_i : x_j)
    for every row i, with its bits, from one one-centre _tj_block pass per
    row block; F(x_j) is read from F(x), which is fx if already known."""
    alpha = as_real("alpha", alpha)
    x = _rows(x)
    fx = _f(g, x, fx)
    return _tj_rows(g, alpha, x, fx, x[j:j + 1], fx[j:j + 1])[0]


def min_divergence_assign(g, alpha, x, centers, *, fx=None):
    """Per point: (min_c tJ_alpha(x_i : c), argmin index, lowest on ties).
    F(x) is computed once for all centres, or taken from fx, and F of
    the centres once. Each row block of x is reduced from its (k, rows)
    block of every tJ_alpha(x_i : c_j)."""
    alpha = as_real("alpha", alpha)
    x, centers = _rows(x), _rows(centers)
    fc = _f(g, centers)

    def block(xb, fxb):
        vals = _tj_block(g, alpha, xb, fxb, centers, fc)
        # argmin takes the first minimum
        return vals.min(axis=0), vals.argmin(axis=0)

    return _by_rows(block, len(x), x.shape[1], x, _f(g, x, fx))


class StageSolve(NamedTuple):
    """One CCCP stage as `cccp_steps` solved it."""

    center: np.ndarray
    evals: int      # CCCP map evaluations, one grad pass over x each
    stop: str       # "tol" (the step fell below CCCP_TOL) or "cap"
    accepted: int   # Anderson-extrapolated points taken


# a stage has converged once the CCCP step moves the centre by at most
# this fraction of its largest coordinate
CCCP_TOL = 1e-13
_AA_MEMORY = 3


def cccp_steps(g, alpha, x, w, c0, iters):
    """Solve one frozen-weight CCCP stage to CCCP_TOL, in at most `iters`
    evaluations of the map G(c) = ginv(sum_i w_i grad(a*x_i + (1-a)*c)).

    The skew weight sits on the data side: stationarity of the loss
    sum_i w_i J_a(x_i : c) in its right argument reads
    grad(c) = sum_i w_i grad(a*x_i + (1-a)*c), and only that mixing
    order makes the plain step c <- G(c) a descent method for the loss.

    The stage stops when |G(c) - c|_inf <= CCCP_TOL |c|_inf and returns
    G(c). Between evaluations, Anderson acceleration (memory 3; Walker &
    Ni 2011) extrapolates from the last residuals. An extrapolated point
    is kept only if it lies strictly inside the open domain and its
    residual is smaller than the current one; otherwise the solver takes
    the plain step and clears the history. The first evaluation is
    always the plain step, so a cap of 1 is exactly one CCCP step. The
    history is two preallocated (d, 3) arrays, its columns oldest first
    and shifted in place, and one max |residual| serves both the
    stopping test and the comparison with the next residual.

    The inverse gradient maps into the open domain, but its float can
    round onto an end (shannon's exp underflows to 0 below about -745,
    bit's logistic rounds to 1.0 above about 37). Only then does a
    coordinate of G move, to the nearest float inside the domain.

    The stage holds one column-major (n, d) buffer `gr` for the call.
    Each evaluation forms a*x_i + (1-a)*c in it a row block at a time,
    overwrites each block with grad there, and sums with the one product
    w @ gr. A grad that takes out= (`generators.takes_out`) is handed the
    block as both its input and its output, so no block array is made
    and none copied; the array any grad returns, if not the block
    itself, is copied into it.
    """
    alpha = as_real("alpha", alpha)
    iters = as_count("iters", iters)
    x = _rows(x)
    n, d = x.shape
    gr = np.empty((n, d), order="F")
    w = np.asarray(w, dtype=np.float64)
    grad, into = g.grad, takes_out(g.grad)
    # np.nextafter raises on a subnormal under np.errstate(all="raise")
    inside = (math.nextafter(g.domain.lo, math.inf),
              math.nextafter(g.domain.hi, -math.inf))

    def cccp_map(c):
        cc = (1.0 - alpha) * c

        def fill(xb, b):  # grad at a*x + (1-a)*c, in the block b of gr
            np.multiply(xb, alpha, out=b)
            b += cc
            gb = grad(b, out=b) if into else grad(b)
            if gb is not b:
                b[...] = gb
            return ()

        _by_rows(fill, n, d, x, gr, out=())
        return np.clip(g.grad_inverse(w @ gr), *inside)

    def small(rmax, c):  # the stopping test, on max |residual|
        return rmax <= CCCP_TOL * np.abs(c).max()

    c = np.array(c0, dtype=np.float64, ndmin=1)
    gc = cccp_map(c)
    r = gc - c  # the fixed-point residual at c
    rmax = np.abs(r).max()
    evals, accepted = 1, 0
    # the last k (residual, image) differences, as columns oldest first
    dr, dg, k = np.empty((d, _AA_MEMORY)), np.empty((d, _AA_MEMORY)), 0
    while evals < iters and not small(rmax, c):
        t = gc  # the plain step, unless an extrapolation replaces it
        if k:
            coef = np.linalg.lstsq(dr[:, :k], r, rcond=None)[0]
            cand = gc - dg[:, :k] @ coef
            if g.domain.rows_inside(cand, interior=True):  # NaN is not
                t = cand
            else:
                k = 0
        gt = cccp_map(t)
        evals += 1
        rt = gt - t
        rtmax = np.abs(rt).max()
        if t is not gc:
            if not rtmax < rmax:
                k = 0  # rejected: the plain step comes next
                continue
            accepted += 1
        if k == _AA_MEMORY:
            dr[:, :-1], dg[:, :-1] = dr[:, 1:], dg[:, 1:]
        else:
            k += 1
        np.subtract(rt, r, out=dr[:, k - 1])
        np.subtract(gt, gc, out=dg[:, k - 1])
        c, gc, r, rmax = t, gt, rt, rtmax
    return StageSolve(gc, evals, "tol" if small(rmax, c) else "cap", accepted)
