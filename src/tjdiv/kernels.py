"""Hot numeric kernels: row-wise tJ and rho_J, the Jensen loss, the
assignment sweep and the CCCP stage solver.

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
geometry oracle: the raw gap J'_alpha (`_jensen`), the squared chord
slope and rho_J (`_chord`), rho_B (`gradient_conformal`), and tJ_alpha =
rho_J J'_alpha / (alpha (1 - alpha)) from one F pass
(`total_jensen_and_conformal`). Callers: divergences, on (1, d) rows, so
a scalar value is the kernel entry's float; seeding, Lloyd, the bound
experiment and the centroids (tJ); the influence sweep (rho_J); the
bound constants (K2 from `chord_factors`, rho_B).

F of the point side depends only on the point set, so a caller that
sweeps the same points against many centres, or runs many centroid
stages on them, computes it once and passes it in: the keyword-only
`fp=` of `jensen_gap_and_conformal` and the tJ kernels built on it, and
`fx=` of `min_divergence_assign` and `jensen_loss`. Left out, it is
computed from the points, with the same bits. The assignment sweep
writes one (k, n) block, a row per centre, and reduces it over the
centres. `cccp_steps` forms the data side alpha * x once per call, not
once per step, and builds every grad argument in one buffer that lives
for the call.

Kernels validate nothing beyond alpha in (0, 1) (`generators.as_real`;
the limit cases belong to the divergence API): the public functions of
divergences, geometry, robustness, centroids and clustering, and the
CLI's loader, check each array once (as_point or as_points, then one
vectorized ensure_domain pass) before any kernel sees it.
"""

from typing import NamedTuple

import numpy as np

from .generators import as_real, coordinate_sum


def _rows(a):
    # the one layout: column-major float64, free on as_points output;
    # row-major, strided and stride-0 input is copied once
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return np.asfortranarray(a)


def _jensen(g, alpha, p, q, fp=None):
    """(F(p), F(q), row raw Jensen gap J'_alpha(p : q)); fp is F(p) when
    the caller holds it."""
    if fp is None:
        fp = g.f(p)
    fq = g.f(q)
    fm = g.f(alpha * p + (1.0 - alpha) * q)
    return fp, fq, alpha * fp + (1.0 - alpha) * fq - fm


def _chord(df, p, q):
    """(row squared chord slope Delta_F^2/<Delta,Delta>, row rho_J, mask
    of p != q) from df = F(p) - F(q); slope 0 and rho_J 1 where p = q."""
    dd = coordinate_sum((p - q) ** 2)
    nz = dd > 0.0
    s2 = np.zeros_like(dd)
    s2[nz] = df[nz] ** 2 / dd[nz]
    return s2, 1.0 / np.sqrt(1.0 + s2), nz


def jensen_gap_and_conformal(g, alpha, p, q, *, fp=None):
    """Row-wise (raw gap J'_alpha(p_i : q_i), exactly 0 where p_i = q_i;
    rho_J(p_i, q_i)) from one F pass; a (1, d) row broadcasts, and fp is
    F(p) if already known."""
    alpha = as_real("alpha", alpha)
    p, q = _rows(p), _rows(q)
    fp, fq, gap = _jensen(g, alpha, p, q, fp)
    _, rho, nz = _chord(fp - fq, p, q)
    return np.where(nz, gap, 0.0), rho


def total_jensen_and_conformal(g, alpha, p, q, *, fp=None):
    """Row-wise (scaled tJ_alpha(p_i : q_i), rho_J(p_i, q_i)) from one F
    pass; a (1, d) row broadcasts, and fp is F(p) if already known."""
    gap, rho = jensen_gap_and_conformal(g, alpha, p, q, fp=fp)
    return rho * gap / (alpha * (1.0 - alpha)), rho


def pairwise_total_jensen(g, alpha, p, q, *, fp=None):
    """Row-wise scaled tJ_alpha(p_i : q_i); a (1, d) row broadcasts, and
    fp is F(p) if already known."""
    return total_jensen_and_conformal(g, alpha, p, q, fp=fp)[0]


def chord_factors(g, p, q):
    """Row-wise (Delta_F, squared chord slope, rho_J) of (p_i, q_i) from
    one F pass, as in _chord; rows broadcast."""
    p, q = _rows(p), _rows(q)
    df = g.f(p) - g.f(q)
    return (df,) + _chord(df, p, q)[:2]


def pairwise_conformal(g, p, q):
    """Row-wise rho_J(p_i, q_i); 1 on coincident rows, and rows broadcast."""
    return chord_factors(g, p, q)[2]


def gradient_conformal(g, q):
    """Row-wise rho_B(q_i) = 1/sqrt(1 + |grad F(q_i)|^2), q_i interior."""
    gr = g.grad(_rows(q))
    return 1.0 / np.sqrt(1.0 + coordinate_sum(gr ** 2))


def jensen_loss(g, alpha, x, w, c, *, fx=None):
    """Weighted scaled Jensen loss sum_i w_i J_alpha(x_i : c), one centre
    c; fx is F(x) if already known."""
    alpha = as_real("alpha", alpha)
    gap = _jensen(g, alpha, _rows(x), np.reshape(c, (1, -1)), fx)[2]
    return float(w @ gap) / (alpha * (1.0 - alpha))


def min_divergence_assign(g, alpha, x, centers, *, fx=None):
    """Per point: (min_c tJ_alpha(x_i : c), argmin index, lowest on ties).
    F(x) is computed once for all centres, or taken from fx. The (k, n)
    block holds every tJ_alpha(x_i : c_j), row j for centre j."""
    alpha = as_real("alpha", alpha)
    x, centers = _rows(x), _rows(centers)
    if fx is None:
        fx = g.f(x)
    vals = np.empty((len(centers), len(x)))
    for j in range(len(centers)):
        vals[j] = total_jensen_and_conformal(
            g, alpha, x, centers[j:j + 1], fp=fx)[0]
    # argmin takes the first minimum
    return vals.min(axis=0), vals.argmin(axis=0)


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
    is kept only if it lies strictly inside the domain box and its
    residual is smaller than the current one; otherwise the solver takes
    the plain step and clears the history. The first evaluation is
    always the plain step, so a cap of 1 is exactly one CCCP step.

    G is clamped 1e-12 inside the domain box if it ever lands outside
    (cannot happen for the builtin generators, whose inverse gradients
    map into the open domain).
    """
    alpha = as_real("alpha", alpha)
    iters = int(iters)
    ax = alpha * _rows(x)  # the data side, the same at every step
    buf = np.empty_like(ax)  # grad's argument, reused by every evaluation
    w = np.asarray(w, dtype=np.float64)
    lo = g.domain.lo + 1e-12
    hi = g.domain.hi - 1e-12

    def cccp_map(c):
        np.add(ax, (1.0 - alpha) * c, out=buf)
        return np.clip(g.grad_inverse(w @ g.grad(buf)), lo, hi)

    def small(r, c):  # the stopping test
        return np.abs(r).max() <= CCCP_TOL * np.abs(c).max()

    c = np.array(c0, dtype=np.float64, ndmin=1)
    gc = cccp_map(c)
    r = gc - c  # the fixed-point residual at c
    evals, accepted = 1, 0
    hist = []  # (residual difference, image difference), oldest first
    while evals < iters and not small(r, c):
        t = gc  # the plain step, unless an extrapolation replaces it
        if hist:
            dr, dg = (np.column_stack(h) for h in zip(*hist))
            cand = gc - dg @ np.linalg.lstsq(dr, r, rcond=None)[0]
            if np.all((cand > lo) & (cand < hi)):  # NaN is never inside
                t = cand
            else:
                hist.clear()
        gt = cccp_map(t)
        evals += 1
        rt = gt - t
        if t is not gc:
            if not np.abs(rt).max() < np.abs(r).max():
                hist.clear()  # rejected: the plain step comes next
                continue
            accepted += 1
        hist = (hist + [(rt - r, gt - gc)])[-_AA_MEMORY:]
        c, gc, r = t, gt, rt
    return StageSolve(gc, evals, "tol" if small(r, c) else "cap", accepted)
