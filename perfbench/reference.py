"""Benchmark-side formulas for checking tjdiv's outputs.

Everything here is plain numpy written from the definitions, so a
check never trusts the kernels it is checking:

    J_a(p : q)  = a F(p) + (1 - a) F(q) - F(a p + (1 - a) q)
    rho_J(p, q) = 1 / sqrt(1 + (F(p) - F(q))^2 / |p - q|^2)
    tJ_a(p : q) = rho_J(p, q) J_a(p : q) / (a (1 - a)),  0 when p == q
"""

import numpy as np


def shannon_f(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    return (xlogx - x).sum(axis=-1)


def burg_f(x):
    return (-np.log(np.asarray(x, dtype=np.float64))).sum(axis=-1)


F = {"shannon": shannon_f, "burg": burg_f}


def total_jensen(f, alpha, p, q):
    """tJ_alpha(p : q) over broadcast rows of p and q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    fp, fq = f(p), f(q)
    jraw = alpha * fp + (1.0 - alpha) * fq - f(alpha * p + (1.0 - alpha) * q)
    dd = ((p - q) ** 2).sum(axis=-1)
    safe = np.where(dd > 0.0, dd, 1.0)
    rho = 1.0 / np.sqrt(1.0 + (fp - fq) ** 2 / safe)
    return np.where(dd > 0.0, rho * jraw / (alpha * (1.0 - alpha)), 0.0)


def divergence_matrix(f, alpha, x, centers):
    """D[i, j] = tJ_alpha(x_i : centers_j), shape (n, m); one column at a
    time, so checking allocates no more than an (n, d) array at once."""
    return np.stack([total_jensen(f, alpha, x, c[None, :]) for c in centers],
                    axis=1)


def brute_force_optimum(f, alpha, x, k):
    """min over k-subsets S of the data of sum_i min_{c in S} tJ(x_i : c)."""
    from itertools import combinations
    d = divergence_matrix(f, alpha, x, x)
    subsets = np.array(list(combinations(range(len(x)), k)), dtype=np.int64)
    return float(d[:, subsets].min(axis=2).sum(axis=0).min())


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))
