"""Strictly convex generators and the builtin family.

A Generator bundles F, its gradient, the inverse gradient, and (for
separable generators) the coordinatewise second derivative. Callables
are batched: `f` maps (..., d) arrays to (...) values, `grad`,
`grad_inverse` and `second_deriv` map (..., d) to (..., d).

Boundary conventions: evaluation at a closed boundary returns the limit
value (0*log 0 = 0 for shannon and bit), but gradients are only defined
on the open interior and requesting one at a boundary raises.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ValidationError

BUILTIN_NAMES = (
    "shannon", "burg", "bit", "squared-mahalanobis", "squared-euclidean")


@dataclass(frozen=True)
class Domain:
    """Per-coordinate box with optional closed endpoints for evaluation."""

    lo: float
    hi: float
    eval_closed_lo: bool = False
    eval_closed_hi: bool = False

    def rows_inside(self, x, interior: bool = False) -> np.ndarray:
        """Membership of each point in x, one broadcast comparison.

        The last axis holds coordinates: a (d,) point gives a 0-d bool,
        an (n, d) stack gives n bools. NaN is never inside.
        """
        x = np.asarray(x)
        closed_lo = self.eval_closed_lo and not interior
        closed_hi = self.eval_closed_hi and not interior
        ok = ((x >= self.lo) if closed_lo else (x > self.lo)) \
            & ((x <= self.hi) if closed_hi else (x < self.hi))
        return ok.all(axis=-1) if ok.ndim else ok

    def contains(self, x: np.ndarray, interior: bool = False) -> bool:
        return bool(np.all(self.rows_inside(x, interior)))

    def describe(self) -> str:
        lb = "[" if self.eval_closed_lo else "("
        rb = "]" if self.eval_closed_hi else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


@dataclass(frozen=True)
class Generator:
    name: str
    dim: int
    domain: Domain
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    grad_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    separable: bool = True

    @property
    def has_grad_inverse(self) -> bool:
        return self.grad_inverse is not None

    @property
    def has_second_deriv(self) -> bool:
        return self.second_deriv is not None


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if p.ndim != 1:
        raise ValidationError(f"expected a point vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValidationError(
            f"point has dimension {p.shape[0]}, generator expects {dim}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("point contains NaN or Inf")
    return p


def as_points(x, g: Optional[Generator] = None) -> np.ndarray:
    """A nonempty, finite (n, d) float64 array; 1-D input is n points
    of dimension 1. With a generator, the points must also match its
    dimension and lie in its domain (closed where evaluation is)."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError(
            f"points must form a nonempty (n, d) array, got {pts.shape}")
    if g is not None:
        if pts.shape[1] != g.dim:
            raise ValidationError(
                f"points have dimension {pts.shape[1]}, "
                f"generator expects {g.dim}")
        # before the finiteness test, so that a builtin generator, whose
        # domain excludes NaN and +-Inf, names the offending point
        ensure_domain(g, pts)
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain NaN or Inf")
    return pts


def ensure_domain(g: Generator, x: np.ndarray, interior: bool = False) -> None:
    """Raise DomainError unless every point of x lies in g's domain.

    x is one (d,) point or an (n, d) stack, tested in one pass. The
    error names the first point outside; for a stack, DomainError.row
    holds that point's row index.
    """
    if g.domain.contains(x, interior):
        return
    x = np.asarray(x)
    row = None
    if x.ndim > 1:
        inside = g.domain.rows_inside(x, interior).reshape(-1)
        row = int(np.argmin(inside))
        x = x.reshape(-1, x.shape[-1])[row]
    where = "the interior of " if interior else ""
    raise DomainError(
        f"point {x.tolist()} is outside {where}"
        f"{g.name}'s domain {g.domain.describe()}", row=row)


def _xlogx(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    m = x > 0.0
    out[m] = x[m] * np.log(x[m])
    return out


def _shannon(dim):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return (_xlogx(x) - x).sum(axis=-1)

    return Generator(
        name="shannon", dim=dim,
        domain=Domain(0.0, math.inf, eval_closed_lo=True),
        f=f,
        grad=lambda x: np.log(np.asarray(x, dtype=np.float64)),
        grad_inverse=lambda y: np.exp(np.asarray(y, dtype=np.float64)),
        second_deriv=lambda x: 1.0 / np.asarray(x, dtype=np.float64))


def _burg(dim):
    return Generator(
        name="burg", dim=dim,
        domain=Domain(0.0, math.inf),
        f=lambda x: (-np.log(np.asarray(x, dtype=np.float64))).sum(axis=-1),
        grad=lambda x: -1.0 / np.asarray(x, dtype=np.float64),
        grad_inverse=lambda y: -1.0 / np.asarray(y, dtype=np.float64),
        second_deriv=lambda x: np.asarray(x, dtype=np.float64) ** -2.0)


def _logistic(y):
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


def _bit(dim):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return (_xlogx(x) + _xlogx(1.0 - x)).sum(axis=-1)

    def grad(x):
        x = np.asarray(x, dtype=np.float64)
        return np.log(x / (1.0 - x))

    def second(x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 / (x * (1.0 - x))

    return Generator(
        name="bit", dim=dim,
        domain=Domain(0.0, 1.0, eval_closed_lo=True, eval_closed_hi=True),
        f=f, grad=grad, grad_inverse=_logistic, second_deriv=second)


def _quadratic(name, dim, q):
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (dim, dim):
        raise ValidationError(
            f"matrix shape {q.shape} does not match dimension {dim}")
    if not np.allclose(q, q.T, atol=1e-12):
        raise ValidationError("matrix must be symmetric")
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise ValidationError("matrix must be positive-definite")
    q_inv = np.linalg.inv(q)
    is_identity = bool(np.array_equal(q, np.eye(dim)))

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * ((x @ q) * x).sum(axis=-1)

    second = None
    if is_identity:
        second = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    elif dim == 1:
        qq = float(q[0, 0])
        second = lambda x: np.full_like(np.asarray(x, dtype=np.float64), qq)

    return Generator(
        name=name, dim=dim,
        domain=Domain(-math.inf, math.inf),
        f=f,
        grad=lambda x: np.asarray(x, dtype=np.float64) @ q,
        grad_inverse=lambda y: np.asarray(y, dtype=np.float64) @ q_inv,
        second_deriv=second,
        hessian=lambda x: q,
        separable=is_identity)


def make_builtin(name: str, dimension: int = 1, matrix=None) -> Generator:
    """Construct a builtin generator by name.

    `matrix` is required (and must be symmetric positive-definite) for
    squared-mahalanobis and rejected for every other name.
    """
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    if name not in BUILTIN_NAMES:
        raise ValidationError(
            f"unknown generator {name!r}; choose from {BUILTIN_NAMES}")
    if name == "squared-mahalanobis":
        if matrix is None:
            raise ValidationError("squared-mahalanobis needs a matrix")
        return _quadratic(name, dimension, matrix)
    if matrix is not None:
        raise ValidationError(f"{name} does not take a matrix")
    if name == "shannon":
        g = _shannon(dimension)
    elif name == "burg":
        g = _burg(dimension)
    elif name == "bit":
        g = _bit(dimension)
    else:
        g = _quadratic("squared-euclidean", dimension, np.eye(dimension))
    return g


def _separable_hessian(g):
    def hess(x):
        x = np.asarray(x, dtype=np.float64)
        return np.diag(g.second_deriv(x))

    return hess


def hessian_at(g: Generator, x: np.ndarray) -> np.ndarray:
    """Hessian matrix of F at a point (diagonal for separable generators)."""
    if g.hessian is not None:
        return np.asarray(g.hessian(x), dtype=np.float64)
    if g.separable and g.second_deriv is not None:
        return _separable_hessian(g)(x)
    raise DomainError(f"{g.name} exposes no Hessian information")


def affine_precompose(g: Generator, a: float, b: float = 0.0) -> Generator:
    """G(x) = F(a*x) + b. Strict convexity survives any nonzero a."""
    if a == 0:
        raise ValidationError("scale a must be nonzero")
    a = float(a)
    b = float(b)
    if a > 0:
        dom = Domain(g.domain.lo / a, g.domain.hi / a,
                     g.domain.eval_closed_lo, g.domain.eval_closed_hi)
    else:
        dom = Domain(g.domain.hi / a, g.domain.lo / a,
                     g.domain.eval_closed_hi, g.domain.eval_closed_lo)

    ginv = None
    if g.grad_inverse is not None:
        ginv = lambda y: g.grad_inverse(np.asarray(y) / a) / a
    second = None
    if g.second_deriv is not None:
        second = lambda x: (a * a) * g.second_deriv(a * np.asarray(x))
    hess = None
    if g.hessian is not None:
        hess = lambda x: (a * a) * np.asarray(g.hessian(a * np.asarray(x)))

    return Generator(
        name=f"{g.name}(pre a={a:g}, b={b:g})", dim=g.dim, domain=dom,
        f=lambda x: g.f(a * np.asarray(x)) + b,
        grad=lambda x: a * g.grad(a * np.asarray(x)),
        grad_inverse=ginv, second_deriv=second, hessian=hess,
        separable=g.separable)


def affine_postcompose(g: Generator, lam: float, c: float = 0.0) -> Generator:
    """G(x) = lam*F(x) + c for lam > 0; same domain, scaled geometry."""
    if lam <= 0:
        raise ValidationError("lam must be positive to preserve convexity")
    lam = float(lam)
    c = float(c)
    ginv = None
    if g.grad_inverse is not None:
        ginv = lambda y: g.grad_inverse(np.asarray(y) / lam)
    second = None
    if g.second_deriv is not None:
        second = lambda x: lam * g.second_deriv(x)
    hess = None
    if g.hessian is not None:
        hess = lambda x: lam * np.asarray(g.hessian(x))

    return Generator(
        name=f"{g.name}(post lam={lam:g}, c={c:g})", dim=g.dim,
        domain=g.domain,
        f=lambda x: lam * g.f(x) + c,
        grad=lambda x: lam * g.grad(x),
        grad_inverse=ginv, second_deriv=second, hessian=hess,
        separable=g.separable)
