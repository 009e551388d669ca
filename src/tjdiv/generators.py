"""Strictly convex generators and the builtin family.

A Generator bundles F, its gradient, the inverse gradient, and (for
separable generators) the coordinatewise second derivative. Callables
are batched: `f` maps (..., d) arrays to (...) values, `grad`,
`grad_inverse` and `second_deriv` map (..., d) to (..., d).

Each separable builtin, F(x) = sum_j phi(x_j), is one declaration of
its scalar parts (domain, phi, phi', (phi')^-1, phi'') in `_SEPARABLE`,
squared-euclidean (phi = x^2 / 2) among them, and `_separable` builds
them all, casting the input to float64 once and summing phi with
`coordinate_sum` (whose order neither layout nor batch size changes).
`_quadratic` builds squared-mahalanobis, F(x) = x'Qx / 2. `_affine`
builds both affine maps, G(x) = lam F(a x) + c.

`grad` may take an optional `out=`: grad(x, out=buf) writes grad F(x)
into buf, which may be x itself, and returns it. Every builtin and
affine map takes it. A user generator's grad is handed a buffer only
if it declares one (`takes_out`: a ufunc, a function with an `out`
parameter, or one with **kwargs that wraps no callable without one),
and the array it returns is the one used, so a grad that declares out=
and ignores it still gives the right values.

Boundary conventions: evaluation at a closed boundary returns the limit
value (0*log 0 = 0 for shannon and bit), but gradients are only defined
on the open interior and requesting one at a boundary raises.

The package's argument checks live here, each written once: points and
pairs (`as_point`, `as_points`, `as_pair`, `ensure_domain`), real
options in an interval (`as_real`), counts (`as_count`) and symmetric
positive-definite matrices (`as_spd`). Other modules call these rather
than restate a domain, interval, count or matrix test. `as_points`
also fixes the one layout of point sets, column-major (n, d), and tests
a domain in one comparison pass and one reduction (`Domain.contains`).
NaN is in no box and +-inf only at a closed infinite end, which no
builtin has, so only such a domain, or none, needs a finiteness pass.
"""

import inspect
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, DomainError, ValidationError

BUILTIN_NAMES = (
    "shannon", "burg", "bit", "squared-mahalanobis", "squared-euclidean")


@dataclass(frozen=True)
class Domain:
    """Per-coordinate box with optional closed endpoints for evaluation."""

    lo: float
    hi: float
    eval_closed_lo: bool = False
    eval_closed_hi: bool = False

    def _coords_inside(self, x, interior):
        """Membership of each coordinate of x; NaN is never inside."""
        x = np.asarray(x)
        closed_lo = self.eval_closed_lo and not interior
        closed_hi = self.eval_closed_hi and not interior
        return ((x >= self.lo) if closed_lo else (x > self.lo)) \
            & ((x <= self.hi) if closed_hi else (x < self.hi))

    def rows_inside(self, x, interior: bool = False) -> np.ndarray:
        """Membership of each point in x, one broadcast comparison.

        The last axis holds coordinates: a (d,) point gives a 0-d bool,
        an (n, d) stack gives n bools.
        """
        ok = self._coords_inside(x, interior)
        return ok.all(axis=-1) if ok.ndim else ok

    def contains(self, x: np.ndarray, interior: bool = False) -> bool:
        """Whether all of x lies in the box: one pass, one reduction."""
        return bool(self._coords_inside(x, interior).all())

    @property
    def excludes_inf(self) -> bool:
        """No +-inf is inside: no infinite end is closed."""
        return not (self.eval_closed_lo and self.lo == -math.inf
                    or self.eval_closed_hi and self.hi == math.inf)

    def describe(self) -> str:
        lb = "[" if self.eval_closed_lo else "("
        rb = "]" if self.eval_closed_hi else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"


@dataclass(frozen=True)
class Generator:
    """A strictly convex F and its batched callables. F is separable
    (a sum over coordinates) exactly when `second_deriv`, the Hessian's
    diagonal, is given; `hessian` is the full matrix. The tJ tables and
    sweeps hand `f` an (m, rows, d) array of midpoints, m centres against
    a block of rows, so `f` must reduce only the last axis."""

    name: str
    dim: int
    domain: Domain
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    grad_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None


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
    in its domain (closed where evaluation is); NaN or +-inf is then a
    DomainError, or a ValidationError if the domain lets +-inf in."""
    pts = np.asarray(x, dtype=np.float64, order="F")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError(
            f"points must form a nonempty (n, d) array, got {pts.shape}")
    if g is not None and pts.shape[1] != g.dim:
        raise ValidationError(
            f"points have dimension {pts.shape[1]}, generator expects {g.dim}")
    # a domain that excludes NaN and +-Inf, as every builtin's does, makes
    # the finiteness pass redundant, and its DomainError names the point
    if (g is None or not g.domain.excludes_inf) and not np.isfinite(pts).all():
        raise ValidationError("points contain NaN or Inf")
    if g is not None:
        ensure_domain(g, pts)
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
    truncation decides how many rounds, draws or points run. Nor is a
    bool, which operator.index would read as 0 or 1."""
    try:
        if isinstance(n, (bool, np.bool_)):
            raise TypeError
        k = operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None
    if k < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {k}")
    return k


def as_spd(name: str, m, dim: int) -> np.ndarray:
    """m as a finite, symmetric positive-definite (dim, dim) float64
    matrix; a scalar is a 1 x 1 matrix. It returns (m + m') / 2, so that
    x @ m is the gradient of x'mx / 2; a symmetric m keeps its bits."""
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
    m = (m + m.T) / 2.0
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
    """x log x of a float64 array, 0 at x = 0 (log runs on 1 there). The
    copy with those 1s is the one buffer log and the product run in."""
    out = np.where(x > 0.0, x, 1.0)
    np.log(out, out=out)
    out *= x
    return out


def _logit(x, out=None):
    """log(x / (1 - x)); the quotient and the log run in `out`, and
    1 - x is the one temporary, so out may be x itself."""
    q = np.divide(x, 1.0 - x, out=out)
    return np.log(q, out=q)


def _logistic(y):
    out = np.empty_like(y)
    pos = y >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    ey = np.exp(y[~pos])
    out[~pos] = ey / (1.0 + ey)
    return out


# name: (coordinate domain, phi, phi', (phi')^-1, phi''), on float64
# arrays; phi' takes out=, which may be x itself
_SEPARABLE = {
    "shannon": (Domain(0.0, math.inf, eval_closed_lo=True),
                lambda x: _xlogx(x) - x, np.log, np.exp, lambda x: 1.0 / x),
    "burg": (Domain(0.0, math.inf),
             lambda x: -np.log(x),
             lambda x, out=None: np.divide(-1.0, x, out=out),
             lambda y: -1.0 / y, lambda x: x ** -2.0),
    "bit": (Domain(0.0, 1.0, eval_closed_lo=True, eval_closed_hi=True),
            lambda x: _xlogx(x) + _xlogx(1.0 - x),
            _logit, _logistic, lambda x: 1.0 / (x * (1.0 - x))),
    # phi' and its inverse are the identity: copies in x's layout
    "squared-euclidean": (Domain(-math.inf, math.inf),
                          lambda x: 0.5 * (x * x), np.positive,
                          lambda y: y.copy(order="K"), np.ones_like),
}


def _separable(name, dim):
    domain, phi, dphi, dphi_inv, ddphi = _SEPARABLE[name]

    def on_float64(part):  # the one cast of every callable's input
        return lambda x: part(np.asarray(x, dtype=np.float64))

    return Generator(
        name=name, dim=dim, domain=domain,
        f=on_float64(lambda x: coordinate_sum(phi(x))),
        grad=lambda x, out=None: dphi(np.asarray(x, dtype=np.float64),
                                      out=out),
        grad_inverse=on_float64(dphi_inv), second_deriv=on_float64(ddphi))


def takes_out(fn) -> bool:
    """Whether fn declares an `out=` keyword: a ufunc, or a function
    whose parameters name `out` or take **kwargs. A **kwargs wrapper
    that names what it wraps (functools.wraps's __wrapped__) forwards
    out= only if that callable takes it. Only such a `grad` is handed a
    buffer to write into."""
    while not isinstance(fn, np.ufunc):
        code = getattr(fn, "__code__", None)
        if code is None:
            return False
        named = code.co_varnames[code.co_posonlyargcount:
                                 code.co_argcount + code.co_kwonlyargcount]
        kwargs = bool(code.co_flags & inspect.CO_VARKEYWORDS)
        if "out" in named or (kwargs and not hasattr(fn, "__wrapped__")):
            return True
        if not kwargs:
            return False
        fn = fn.__wrapped__
    return True


def _right_product(m):
    """x -> x @ m, accumulated over the coordinate index left to right,
    as coordinate_sum does: BLAS's order depends on the batch shape. The
    product keeps x's layout, or goes into `out`; an out that shares
    memory with x, written column by column, makes x one copy first."""
    def xm(x, out=None):
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty_like(x)
        elif np.may_share_memory(x, out):
            x = x.copy(order="K")
        np.multiply(x[..., :1], m[0], out=out)
        for j in range(1, len(m)):
            out += x[..., j:j + 1] * m[j]
        return out
    return xm


def _quadratic(dim, q):
    q = as_spd("matrix", q, dim)
    xq = _right_product(q)

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * coordinate_sum(xq(x) * x)

    def second(x):  # at d = 1 q is the Hessian: F is separable after all
        return np.full_like(np.asarray(x, dtype=np.float64), q[0, 0])

    return Generator(
        name="squared-mahalanobis", dim=dim,
        domain=Domain(-math.inf, math.inf),
        f=f,
        grad=xq,
        grad_inverse=_right_product(np.linalg.inv(q)),
        second_deriv=second if dim == 1 else None,
        hessian=lambda x: q)


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
        return _quadratic(dimension, matrix)
    if matrix is not None:
        raise ValidationError(f"{name} does not take a matrix")
    return _separable(name, dimension)


def hessian_at(g: Generator, x: np.ndarray) -> np.ndarray:
    """Hessian matrix of F at a point (diagonal for separable generators);
    CapabilityError if g has neither `hessian` nor `second_deriv`."""
    if g.hessian is not None:
        return np.asarray(g.hessian(x), dtype=np.float64)
    if g.second_deriv is not None:
        return np.diag(g.second_deriv(np.asarray(x, dtype=np.float64)))
    raise CapabilityError(f"{g.name} exposes no Hessian information")


def _affine(g: Generator, name: str, domain: Domain, a: float, lam: float,
            c: float) -> Generator:
    """G(x) = lam F(a x) + c on `domain`: grad G(x) = lam a grad F(a x),
    grad G^-1(y) = grad F^-1(y / (lam a)) / a, and G's curvature is lam
    a^2 times F's at a x. Factors and divisors of 1.0 change no bit, so
    each map passes 1.0 for the other's parameter; at a = 1 the product
    a x, a fresh (n, d) array on every call, is not formed. grad takes
    out=, where the scale lam a is applied."""
    s, s2 = lam * a, lam * a * a
    gi, d2, h = g.grad_inverse, g.second_deriv, g.hessian
    at = (lambda x: x) if a == 1.0 else (lambda x: a * np.asarray(x))

    def carried(part, fn):  # a callable g lacks stays None
        return None if part is None else fn

    return Generator(
        name=name, dim=g.dim, domain=domain,
        f=lambda x: lam * g.f(at(x)) + c,
        grad=lambda x, out=None: np.multiply(g.grad(at(x)), s, out=out),
        grad_inverse=carried(gi, lambda y: gi(np.asarray(y) / s) / a),
        second_deriv=carried(d2, lambda x: s2 * d2(at(x))),
        hessian=carried(h, lambda x: s2 * np.asarray(h(at(x)))))


def affine_precompose(g: Generator, a: float, b: float = 0.0) -> Generator:
    """G(x) = F(a*x) + b. Strict convexity survives any nonzero a."""
    a = as_real("a", a, -math.inf, math.inf)
    b = as_real("b", b, -math.inf, math.inf)
    if a == 0:
        raise ValidationError("scale a must be nonzero")
    # + 0.0: a zero end divided by a < 0 would be -0.0, and read so
    ends = ((g.domain.lo / a + 0.0, g.domain.eval_closed_lo),
            (g.domain.hi / a + 0.0, g.domain.eval_closed_hi))
    (lo, closed_lo), (hi, closed_hi) = ends if a > 0 else ends[::-1]
    return _affine(g, f"{g.name}(pre a={a:g}, b={b:g})",
                   Domain(lo, hi, closed_lo, closed_hi), a, 1.0, b)


def affine_postcompose(g: Generator, lam: float, c: float = 0.0) -> Generator:
    """G(x) = lam*F(x) + c for lam > 0; same domain, scaled geometry."""
    lam = as_real("lam", lam, hi=math.inf)  # > 0 preserves convexity
    c = as_real("c", c, -math.inf, math.inf)
    return _affine(g, f"{g.name}(post lam={lam:g}, c={c:g})", g.domain,
                   1.0, lam, c)
