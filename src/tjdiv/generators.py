"""Strictly convex generators and the builtin family.

A Generator bundles F, its gradient, the inverse gradient, and (for
separable generators) the coordinatewise second derivative. Callables
are batched: `f` maps (..., d) arrays to (...) values, `grad`,
`grad_inverse` and `second_deriv` map (..., d) to (..., d).

Boundary conventions: evaluation at a closed boundary returns the limit
value (0*log 0 = 0 for shannon and bit), but gradients are only defined
on the open interior and requesting one at a boundary raises.

The package's argument checks live here, each written once: points and
pairs (`as_point`, `as_points`, `as_pair`, `ensure_domain`), real
options in an interval (`as_real`), counts (`as_count`) and symmetric
positive-definite matrices (`as_spd`). Other modules call these rather
than restate a domain, interval, count or matrix test. `as_points`
also fixes the one layout of point sets, column-major (n, d), and the
builtin F sums its coordinates with `coordinate_sum`, in an order that
neither layout nor batch size changes.
"""

import math
import operator
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
    """A nonempty, finite (n, d) float64 array, column-major; 1-D input
    is n points of dimension 1. Only input in another layout is copied.
    With a generator, the points must also match its dimension and lie
    in its domain (closed where evaluation is)."""
    pts = np.asarray(x, dtype=np.float64, order="F")
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


def as_pair(g: Generator, p, q, interior_q: bool = False):
    """(p, q) as points of g in its domain, q in its interior if asked."""
    p = as_point(p, g.dim)
    q = as_point(q, g.dim)
    ensure_domain(g, p)
    ensure_domain(g, q, interior=interior_q)
    return p, q


def as_real(name: str, x, lo: float = 0.0, hi: float = 1.0,
            closed: bool = False) -> float:
    """x as a float in the open interval (lo, hi), or in [lo, hi] when
    closed; any other value, NaN included, raises ValidationError. With
    hi = inf the open form rejects +inf."""
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {x!r}") from None
    if (lo <= v <= hi) if closed else (lo < v < hi):
        return v
    lb, rb = "[]" if closed else "()"
    raise ValidationError(f"{name} must lie in {lb}{lo:g},{hi:g}{rb}, got {v}")


def as_count(name: str, n, lo: int = 1) -> int:
    """n as an int >= lo. A float is not a count, integral or not: no
    truncation decides how many rounds, draws or points run."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None
    if k < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {k}")
    return k


def as_spd(name: str, m, dim: int) -> np.ndarray:
    """m as a finite, symmetric positive-definite (dim, dim) float64
    matrix; a scalar is a 1 x 1 matrix."""
    try:
        m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    except (TypeError, ValueError):  # ragged rows, or not numbers
        raise ValidationError(
            f"{name} is not a rectangular array of numbers") from None
    if m.shape != (dim, dim):
        raise ValidationError(
            f"{name} shape {m.shape} does not match dimension {dim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains NaN or Inf")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValidationError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{name} must be positive-definite") from None
    return m


def coordinate_sum(a) -> np.ndarray:
    """Sum over the last (coordinate) axis, left to right. A row's sum
    has the same bits whatever the array's layout and however many rows
    sit beside it; numpy's sum does not promise that (it sums a
    contiguous row pairwise, in blocks of 8)."""
    a = np.asarray(a)
    if a.size == a.shape[-1]:
        # one point: accumulate adds in the same order, in one call
        return np.add.accumulate(a, axis=-1)[..., -1][()]
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out[()]


def _xlogx(x):
    """x log x, 0 at x = 0: log runs on 1 there. The copy with those 1s
    is the one float buffer; log and the product run in place on it."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > 0.0, x, 1.0)
    np.log(out, out=out)
    out *= x
    return out


def _shannon(dim):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return coordinate_sum(_xlogx(x) - x)

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
        f=lambda x: coordinate_sum(-np.log(np.asarray(x, dtype=np.float64))),
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
        return coordinate_sum(_xlogx(x) + _xlogx(1.0 - x))

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
    q = as_spd("matrix", q, dim)
    q_inv = np.linalg.inv(q)
    is_identity = bool(np.array_equal(q, np.eye(dim)))

    def xq(x):
        # x @ q accumulated over the coordinate index left to right, as
        # coordinate_sum does: BLAS's order depends on the batch shape.
        # The product keeps x's layout.
        x = np.asarray(x, dtype=np.float64)
        out = np.multiply(x[..., :1], q[0], out=np.empty_like(x))
        for j in range(1, dim):
            out += x[..., j:j + 1] * q[j]
        return out

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * coordinate_sum(xq(x) * x)

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
        grad=xq,
        grad_inverse=lambda y: np.asarray(y, dtype=np.float64) @ q_inv,
        second_deriv=second,
        hessian=lambda x: q,
        separable=is_identity)


def make_builtin(name: str, dimension: int = 1, matrix=None) -> Generator:
    """Construct a builtin generator by name.

    `matrix` is required (and must be symmetric positive-definite) for
    squared-mahalanobis and rejected for every other name.
    """
    dimension = as_count("dimension", dimension)
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


def hessian_at(g: Generator, x: np.ndarray) -> np.ndarray:
    """Hessian matrix of F at a point (diagonal for separable generators)."""
    if g.hessian is not None:
        return np.asarray(g.hessian(x), dtype=np.float64)
    if g.separable and g.second_deriv is not None:
        return np.diag(g.second_deriv(np.asarray(x, dtype=np.float64)))
    raise DomainError(f"{g.name} exposes no Hessian information")


def affine_precompose(g: Generator, a: float, b: float = 0.0) -> Generator:
    """G(x) = F(a*x) + b. Strict convexity survives any nonzero a."""
    a = as_real("a", a, -math.inf, math.inf)
    b = as_real("b", b, -math.inf, math.inf)
    if a == 0:
        raise ValidationError("scale a must be nonzero")
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
    lam = as_real("lam", lam, hi=math.inf)  # > 0 preserves convexity
    c = as_real("c", c, -math.inf, math.inf)
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
