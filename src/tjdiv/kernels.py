"""Hot numeric kernels with a numba path and a vectorized numpy fallback.

Four generators have integer kernel codes so their scalar math can be
compiled: shannon (0), burg (1), bit (2), half-square (3, the separable
x**2/2 whose sum is the squared-euclidean generator). Generators without
a code (general mahalanobis, affine-transformed, user-supplied) always
take the numpy path, which works off the generator's batched callables.

Dispatchers validate nothing beyond alpha. Domain membership is checked
once, where an array enters the library: the public functions of
divergences, geometry, robustness, centroids and clustering check their
arguments (generators.as_point or as_points, then ensure_domain, one
vectorized pass per array) before any kernel sees them, and the CLI
checks each loaded file the same way.
"""

import numpy as np

from ._accel import backend, numba_module
from .errors import ValidationError

SHANNON, BURG, BIT, HALF_SQUARE = 0, 1, 2, 3

_nb = None  # dict of compiled kernels, built on first numba dispatch


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValidationError(
            f"kernels require alpha in (0,1), got {alpha}; "
            "limit cases are handled by the divergence API")


def _build_numba():
    numba = numba_module()
    njit = numba.njit
    prange = numba.prange

    @njit(cache=True, inline="always")
    def f(code, x):
        if code == 0:
            if x == 0.0:
                return 0.0  # 0*log 0 = 0
            return x * np.log(x) - x
        elif code == 1:
            return -np.log(x)
        elif code == 2:
            acc = 0.0
            if x > 0.0:
                acc += x * np.log(x)
            if x < 1.0:
                acc += (1.0 - x) * np.log(1.0 - x)
            return acc
        return 0.5 * x * x

    @njit(cache=True, inline="always")
    def fp(code, x):
        if code == 0:
            return np.log(x)
        elif code == 1:
            return -1.0 / x
        elif code == 2:
            return np.log(x / (1.0 - x))
        return x

    @njit(cache=True, inline="always")
    def ginv(code, g):
        if code == 0:
            return np.exp(g)
        elif code == 1:
            return -1.0 / g
        elif code == 2:
            return 1.0 / (1.0 + np.exp(-g))
        return g

    @njit(cache=True, inline="always")
    def tj_one(code, alpha, x, c):
        d = x.shape[0]
        fx = 0.0
        fc = 0.0
        fm = 0.0
        dd = 0.0
        for j in range(d):
            xv = x[j]
            cv = c[j]
            fx += f(code, xv)
            fc += f(code, cv)
            fm += f(code, alpha * xv + (1.0 - alpha) * cv)
            t = xv - cv
            dd += t * t
        if dd == 0.0:
            return 0.0
        jraw = alpha * fx + (1.0 - alpha) * fc - fm
        df = fx - fc
        rho = 1.0 / np.sqrt(1.0 + df * df / dd)
        return rho * jraw / (alpha * (1.0 - alpha))

    @njit(cache=True)
    def pairwise_tj(code, alpha, p, q):
        n = p.shape[0]
        out = np.empty(n)
        for i in range(n):
            out[i] = tj_one(code, alpha, p[i], q[i])
        return out

    @njit(cache=True)
    def pairwise_rho(code, p, q):
        n = p.shape[0]
        out = np.empty(n)
        for i in range(n):
            df = 0.0
            dd = 0.0
            for j in range(p.shape[1]):
                df += f(code, p[i, j]) - f(code, q[i, j])
                t = p[i, j] - q[i, j]
                dd += t * t
            if dd == 0.0:
                out[i] = 1.0  # coincident rows: factor fixed to 1
            else:
                out[i] = 1.0 / np.sqrt(1.0 + df * df / dd)
        return out

    @njit(cache=True, parallel=True)
    def min_assign(code, alpha, x, centers):
        n = x.shape[0]
        m = centers.shape[0]
        mind = np.empty(n)
        idx = np.empty(n, np.int64)
        for i in prange(n):
            best = np.inf
            bj = 0
            for jj in range(m):
                v = tj_one(code, alpha, x[i], centers[jj])
                if v < best:  # strict: ties keep the lowest index
                    best = v
                    bj = jj
            mind[i] = best
            idx[i] = bj
        return mind, idx

    @njit(cache=True)
    def cccp(code, alpha, x, w, c0, iters, lo, hi):
        n, d = x.shape
        c = c0.copy()
        eps = 1e-12
        for _ in range(iters):
            for j in range(d):
                acc = 0.0
                for i in range(n):
                    acc += w[i] * fp(code, alpha * x[i, j] + (1.0 - alpha) * c[j])
                cj = ginv(code, acc)
                if cj < lo + eps:
                    cj = lo + eps
                elif cj > hi - eps:
                    cj = hi - eps
                c[j] = cj
        return c

    return {
        "pairwise_tj": pairwise_tj,
        "pairwise_rho": pairwise_rho,
        "min_assign": min_assign,
        "cccp": cccp,
    }


def _kernels():
    global _nb
    if _nb is None:
        _nb = _build_numba()
    return _nb


def _use_numba(g):
    return backend() == "numba" and getattr(g, "kernel_code", None) is not None


def _rows(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


# numpy fallbacks, written against the generator's batched callables


def _tj_np(g, alpha, p, q):
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


def _rho_np(g, p, q):
    df = g.f(p) - g.f(q)
    dd = ((p - q) ** 2).sum(axis=-1)
    out = np.ones_like(df)
    nz = dd > 0.0
    out[nz] = 1.0 / np.sqrt(1.0 + df[nz] ** 2 / dd[nz])
    return out


def pairwise_total_jensen(g, alpha, p, q):
    """Row-wise scaled total Jensen divergence tJ_alpha(p_i : q_i)."""
    _check_alpha(alpha)
    p = _rows(p)
    q = _rows(q)
    if _use_numba(g):
        return _kernels()["pairwise_tj"](g.kernel_code, float(alpha), p, q)
    return _tj_np(g, alpha, p, q)


def pairwise_conformal(g, p, q):
    """Row-wise chord conformal factor rho_J(p_i, q_i); 1 on coincident rows."""
    p = _rows(p)
    q = _rows(q)
    if _use_numba(g):
        return _kernels()["pairwise_rho"](g.kernel_code, p, q)
    return _rho_np(g, p, q)


def min_divergence_assign(g, alpha, x, centers):
    """Per point: (min_c tJ_alpha(x_i : c), argmin index, lowest on ties)."""
    _check_alpha(alpha)
    x = _rows(x)
    centers = _rows(centers)
    if _use_numba(g):
        return _kernels()["min_assign"](g.kernel_code, float(alpha), x, centers)
    vals = np.stack(
        [_tj_np(g, alpha, x, np.broadcast_to(c, x.shape)) for c in centers],
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
    w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
    c0 = np.ascontiguousarray(np.atleast_1d(np.asarray(c0, dtype=np.float64)))
    if _use_numba(g):
        lo, hi = g.domain.lo, g.domain.hi
        return _kernels()["cccp"](
            g.kernel_code, float(alpha), x, w, c0, int(iters), lo, hi)
    c = c0.copy()
    lo = g.domain.lo + 1e-12
    hi = g.domain.hi - 1e-12
    for _ in range(int(iters)):
        grads = g.grad(alpha * x + (1.0 - alpha) * c[None, :])
        c = g.grad_inverse(w @ grads)
        c = np.clip(c, lo, hi)
    return c


def warm_up():
    """Compile (or load from disk cache) every numba kernel.

    No-op on the numpy backend. Meant for benchmarks and timed test
    sections that should not bill JIT compilation to the computation.
    """
    if backend() != "numba":
        return
    k = _kernels()
    pts = {
        SHANNON: (0.5, 2.0),
        BURG: (0.5, 2.0),
        BIT: (0.25, 0.75),
        HALF_SQUARE: (-1.0, 1.0),
    }
    for code, (a, b) in pts.items():
        p = np.array([[a], [b]])
        q = np.array([[b], [a]])
        w = np.array([0.5, 0.5])
        k["pairwise_tj"](code, 0.5, p, q)
        k["pairwise_rho"](code, p, q)
        k["min_assign"](code, 0.5, p, q)
        lo = 0.0 if code in (SHANNON, BURG, BIT) else -np.inf
        hi = 1.0 if code == BIT else np.inf
        k["cccp"](code, 0.5, p, w, np.array([(a + b) / 2.0]), 2, lo, hi)
