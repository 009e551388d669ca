"""Hot numeric kernels: row-wise tJ and rho_J, the Jensen loss, the
assignment sweep and the CCCP fixed-point step.

Each kernel is vectorized numpy written against the generator's batched
callables (f, grad, grad_inverse), so builtin, affine-transformed and
user-supplied generators all take the same path. Rows broadcast, so a
centre is one (1, d) row and F runs on it once.

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
computed from the points, with the same bits. `cccp_steps` forms the
data side alpha * x once per call, not once per step.

Kernels validate nothing beyond alpha in (0, 1) (`generators.as_real`;
the limit cases belong to the divergence API): the public functions of
divergences, geometry, robustness, centroids and clustering, and the
CLI's loader, check each array once (as_point or as_points, then one
vectorized ensure_domain pass) before any kernel sees it.
"""

import numpy as np

from .generators import as_real


def _rows(a):
    # public callers may pass stride-0 views, whose d >= 8 rows g.f sums
    # in another order: copy those, at no cost on contiguous input
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


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
    dd = ((p - q) ** 2).sum(axis=-1)
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
    return 1.0 / np.sqrt(1.0 + (gr ** 2).sum(axis=-1))


def jensen_loss(g, alpha, x, w, c, *, fx=None):
    """Weighted scaled Jensen loss sum_i w_i J_alpha(x_i : c), one centre
    c; fx is F(x) if already known."""
    alpha = as_real("alpha", alpha)
    gap = _jensen(g, alpha, _rows(x), np.reshape(c, (1, -1)), fx)[2]
    return float(w @ gap) / (alpha * (1.0 - alpha))


def min_divergence_assign(g, alpha, x, centers, *, fx=None):
    """Per point: (min_c tJ_alpha(x_i : c), argmin index, lowest on ties).
    F(x) is computed once for all centres, or taken from fx."""
    alpha = as_real("alpha", alpha)
    x, centers = _rows(x), _rows(centers)
    if fx is None:
        fx = g.f(x)
    vals = np.stack([total_jensen_and_conformal(g, alpha, x, c[None], fp=fx)[0]
                     for c in centers], axis=1)
    idx = np.argmin(vals, axis=1)  # argmin takes the first minimum
    return vals[np.arange(len(x)), idx], idx


def cccp_steps(g, alpha, x, w, c0, iters):
    """Run `iters` fixed-point updates c <- ginv(sum_i w_i grad(a*x_i+(1-a)c)).

    The skew weight sits on the data side: stationarity of the loss
    sum_i w_i J_a(x_i : c) in its right argument reads
    grad(c) = sum_i w_i grad(a*x_i + (1-a)*c), and only that mixing
    order makes the iteration a descent method for the loss.

    Iterates are clamped 1e-12 inside the domain box if an update ever
    lands outside (cannot happen for the builtin generators, whose
    inverse gradients map into the open domain).
    """
    alpha = as_real("alpha", alpha)
    ax = alpha * _rows(x)  # the data side, the same at every step
    w = np.asarray(w, dtype=np.float64)
    c = np.array(c0, dtype=np.float64, ndmin=1)
    lo = g.domain.lo + 1e-12
    hi = g.domain.hi - 1e-12
    for _ in range(int(iters)):
        grads = g.grad(ax + (1.0 - alpha) * c[None, :])
        c = g.grad_inverse(w @ grads)
        c = np.clip(c, lo, hi)
    return c
