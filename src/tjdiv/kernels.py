"""Hot numeric kernels: row-wise tJ and rho_J, the assignment sweep and
the CCCP fixed-point step.

Each kernel is vectorized numpy written against the generator's batched
callables (f, grad, grad_inverse), so builtin, affine-transformed and
user-supplied generators all take the same path.

Kernels validate nothing beyond alpha. Domain membership is checked
once, where an array enters the library: the public functions of
divergences, geometry, robustness, centroids and clustering check their
arguments (generators.as_point or as_points, then ensure_domain, one
vectorized pass per array) before any kernel sees them, and the CLI
checks each loaded file the same way.
"""

import numpy as np

from .errors import ValidationError


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValidationError(
            f"kernels require alpha in (0,1), got {alpha}; "
            "limit cases are handled by the divergence API")


def _rows(a):
    # a C-contiguous copy fixes the order of g.f's row sums: on a
    # broadcast (stride-0) centre view numpy sums d >= 8 coordinates in
    # another order, which moves the last bits of centroid results
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


def _tj(g, alpha, p, q):
    fp_ = g.f(p)
    fq = g.f(q)
    fm = g.f(alpha * p + (1.0 - alpha) * q)
    jraw = alpha * fp_ + (1.0 - alpha) * fq - fm
    dd = ((p - q) ** 2).sum(axis=-1)
    out = np.zeros_like(jraw)
    nz = dd > 0.0
    df = fp_ - fq
    rho = 1.0 / np.sqrt(1.0 + df[nz] ** 2 / dd[nz])
    out[nz] = rho * jraw[nz] / (alpha * (1.0 - alpha))
    return out


def pairwise_total_jensen(g, alpha, p, q):
    """Row-wise scaled total Jensen divergence tJ_alpha(p_i : q_i)."""
    _check_alpha(alpha)
    return _tj(g, alpha, _rows(p), _rows(q))


def pairwise_conformal(g, p, q):
    """Row-wise chord conformal factor rho_J(p_i, q_i); 1 on coincident rows."""
    p = _rows(p)
    q = _rows(q)
    df = g.f(p) - g.f(q)
    dd = ((p - q) ** 2).sum(axis=-1)
    out = np.ones_like(df)
    nz = dd > 0.0
    out[nz] = 1.0 / np.sqrt(1.0 + df[nz] ** 2 / dd[nz])
    return out


def min_divergence_assign(g, alpha, x, centers):
    """Per point: (min_c tJ_alpha(x_i : c), argmin index, lowest on ties)."""
    _check_alpha(alpha)
    x = _rows(x)
    centers = _rows(centers)
    vals = np.stack(
        [_tj(g, alpha, x, np.broadcast_to(c, x.shape)) for c in centers],
        axis=1)
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
    _check_alpha(alpha)
    x = _rows(x)
    w = np.asarray(w, dtype=np.float64)
    c = np.array(c0, dtype=np.float64, ndmin=1)
    lo = g.domain.lo + 1e-12
    hi = g.domain.hi - 1e-12
    for _ in range(int(iters)):
        grads = g.grad(alpha * x + (1.0 - alpha) * c[None, :])
        c = g.grad_inverse(w @ grads)
        c = np.clip(c, lo, hi)
    return c
