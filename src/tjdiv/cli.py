"""Command-line interface: dataset ingestion, dispatch, JSON reports.

Every run prints a report object {command, results, timings} to stdout
and a short human summary to stderr. The report is serialized
canonically (sorted keys, floats at 17 significant digits) so that
re-running a command with the seed echoed under "command" reproduces
the "results" object byte for byte. Exit codes: 0 success, 1 domain or
validation failure, 2 usage error.

"timings" and "trace" stay outside "results" so that reruns stay
byte-identical. centroid and cluster add "trace": the stop reasons,
stage evaluations, descent record and relative gradient of the
centroid, Lloyd's `converged` and its solves per stop reason. "timings"
holds wall-clock seconds: total_s covers the parse, config, defaults
and the command. Within it:
- parse_s, the argument parse. The parser is built once per process, on
  the first `main` call, so the first parse_s holds the build and later
  ones only the parse.
- load_s, for every command that reads --input: the dataset stage (CSV
  parse, weight check, domain check).
- cluster's Lloyd stages: seed_s (F of the points and the seeding
  draws), assign_s (the assignment sweeps) and centroid_s (the cluster
  gathers and centroid solves).
- bound-experiment's stages: table_s (the tJ table), scan_s (the
  subset scan for the optimum), trials_s (the seeding draws and their
  potentials) and constants_s (the bound constants and the curve).

A config file of key=value lines can supply any flag, required ones
included; explicit flags win. Keys match flag names with either dashes
or underscores, and one that matches none is a usage error. A value is
checked as the flag's would be (its type and choices), and a repeated
key is an error.
"""

import argparse
import csv
import inspect
import io
import itertools
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, kernels
from .centroids import CentroidConfig, WeightedPointSet
from .centroids import total_jensen_centroid, left_sided_centroid
from .clustering import (
    DEFAULT_EPS_GRID, SeedingConfig, _seed_with_potential,
    estimate_bound_constants, lloyd_cluster, seeding_bound_experiment)
from .divergences import (
    KINDS, _js_and_rho, bregman, jensen_raw, jensen_scaled, kl_gaussian,
    total_bregman, total_jensen, total_jensen_shannon)
from .errors import DomainError, TjdivError, ValidationError
from .generators import (
    BUILTIN_NAMES, as_count, as_real, ensure_domain, make_builtin)
from .geometry import project_beta, pythagoras_residual
from .robustness import _centroid_shift, boundedness_sweep

COUNTEREXAMPLE = (
    np.array([0.98, 0.02]), np.array([0.52, 0.48]), np.array([0.006, 0.994]))


# canonical serialization


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    non-finite floats mapped to null. Keys and strings are quoted as
    json.dumps(s, ensure_ascii=False) quotes them."""
    # imported here, not at module import: loading the CLI reads no json
    from json.encoder import encode_basestring
    out = []
    _canon(obj, out, encode_basestring)
    return "".join(out)


def _canon(x, out, quote):
    if isinstance(x, dict):
        out.append("{")
        first = True
        for key in sorted(x):
            if not isinstance(key, str):
                raise ValidationError("report keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(quote(key))
            out.append(":")
            _canon(x[key], out, quote)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        # a flat list of exact ints or exact floats (no bool, no numpy
        # scalar) is written in one join, with the items' scalar forms
        kinds = set(map(type, x))
        if kinds == {int}:
            out.append("[" + ",".join(map(str, x)) + "]")
            return
        if kinds == {float}:
            out.append("[" + ",".join([
                format(v, ".17g") if math.isfinite(v) else "null"
                for v in x]) + "]")
            return
        out.append("[")
        for i, v in enumerate(x):
            if i:
                out.append(",")
            _canon(v, out, quote)
        out.append("]")
    elif isinstance(x, np.ndarray):
        _canon(x.tolist(), out, quote)
    elif isinstance(x, bool) or isinstance(x, np.bool_):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
    elif isinstance(x, (float, np.floating)):
        v = float(x)
        out.append(format(v, ".17g") if math.isfinite(v) else "null")
    elif isinstance(x, str):
        out.append(quote(x))
    elif x is None:
        out.append("null")
    else:
        raise ValidationError(f"cannot serialize {type(x).__name__}")


# input parsing


def _vec(text: str) -> np.ndarray:
    """The coordinates of 'a,b'; an empty coordinate is an error."""
    try:
        return np.array([float(t) for t in str(text).split(",")])
    except ValueError:
        raise ValidationError(f"cannot parse vector {text!r}") from None


def _mat(text: str) -> list:
    """The rows of 'a,b;c,d'; generators.as_spd checks their shape."""
    try:
        return [_vec(r) for r in str(text).split(";")]
    except ValidationError:
        raise ValidationError(f"cannot parse matrix {text!r}") from None


def _read_text(path):
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"expected a file path, got {path!r}")
    if not os.path.exists(path):
        raise ValidationError(f"no such file: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line as _csv_rows numbers it: \n, \r\n and a bare \r each
        # end one
        head = raw[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValidationError(
            f"{path} line {line}: not UTF-8 text ({exc.reason} at byte "
            f"{exc.start})") from None


def _csv_rows(text):
    """(physical line, cells) for each CSV record of text that holds a
    non-blank cell; a record is numbered by the line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1
    for row in reader:
        if any(c.strip() for c in row):
            yield line, row
        line = reader.line_num + 1


def _floatable(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _data_rows(text):
    """(header cells or None, iterator over the data rows of _csv_rows).
    The first non-blank row is a header unless every cell is a number."""
    rows = _csv_rows(text)
    first = next(rows, None)
    if first is None:
        return None, rows
    if all(_floatable(c) for c in first[1]):
        return None, itertools.chain([first], rows)
    return [c.strip() for c in first[1]], rows


def _parse_fast(text, first_line):
    """The data rows from first_line on as one (n, width) array, parsed
    in one np.loadtxt pass; None where loadtxt rejects the text or could
    read it differently from _parse_rows:
    - a bare CR ends a line for csv but not for loadtxt, so the line
      numbers of the two would disagree;
    - loadtxt strips U+001C..U+001F around a number, float() does not.
    Otherwise each value is float()'s: what float() reads and loadtxt
    does not (quoted cells, `1_0`, non-ASCII digits, whitespace-only
    rows) goes to _parse_rows."""
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        return np.loadtxt(text.split("\n")[first_line - 1:], delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        return None


def _parse_rows(path, rows, width, wcol):
    """The per-line parse of (line, cells) rows into an (n, width) array.
    It names the physical line of the first bad row; it runs only when
    _parse_fast gives no array, or one that fails a check."""
    vals = []
    for i, row in rows:
        if len(row) != width:
            raise ValidationError(
                f"{path} line {i}: expected {width} columns, got {len(row)}")
        cells = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path} line {i}, column {j + 1}: "
                    f"cannot parse {cell.strip()!r}")
            if not math.isfinite(v):
                raise ValidationError(
                    f"{path} line {i}, column {j + 1}: non-finite value")
            cells.append(v)
        if wcol is not None and cells[wcol] < 0:
            raise ValidationError(f"{path} line {i}: negative weight")
        vals.append(cells)
    return np.array(vals, dtype=np.float64)


def load_dataset(path, weight_column=None):
    """CSV loader: one point per row, optional header, optional weight
    column (named `weight`, or chosen via weight_column). Blank rows are
    skipped; a header fixes the width. Returns a WeightedPointSet plus a
    metadata dict."""
    text = _read_text(path)
    header, rows = _data_rows(text)
    first = next(rows, None)
    if first is None:
        raise ValidationError(
            f"{path} has a header but no data rows" if header
            else f"{path} holds no data rows")

    wcol = None
    if weight_column is not None:
        if header is None:
            raise ValidationError(
                "a weight column was requested but the file has no header")
        if weight_column not in header:
            raise ValidationError(
                f"no column named {weight_column!r} in {header}")
        wcol = header.index(weight_column)
    elif header is not None:
        lowered = [h.lower() for h in header]
        if "weight" in lowered:
            wcol = lowered.index("weight")

    width = len(header) if header else len(first[1])

    vals = _parse_fast(text, first[0])
    if (vals is None or vals.shape[1] != width
            or not np.isfinite(vals).all()
            or (wcol is not None and (vals[:, wcol] < 0).any())):
        vals = _parse_rows(path, itertools.chain([first], rows), width, wcol)

    weights = None
    if wcol is not None:
        weights = vals[:, wcol]
        vals = np.delete(vals, wcol, axis=1)
    data = WeightedPointSet.make(vals, weights)
    meta = {"rows": data.n, "has_weights": wcol is not None, "path": path}
    return data, meta


def _file_line(path, row):
    """The physical line of data row `row` (0-based) of a file that
    load_dataset accepted; found by reading the file again, so that a
    successful load keeps no per-row line list."""
    _, rows = _data_rows(_read_text(path))
    return next(itertools.islice(rows, row, None))[0]


def _dataset(ns, timings, interior, weighted=False):
    """(generator, data, meta) for --input: a weight column is rejected
    unless the command uses weights, and every row is checked against
    the generator's domain (its interior if asked) once, a bad row
    named by its file line. The stage's time is timings["load_s"]."""
    t0 = time.perf_counter()
    data, meta = load_dataset(ns.input, weight_column=ns.weights)
    if meta["has_weights"] and not weighted:
        raise ValidationError(
            f"{ns.cmd} does not use point weights; drop --weights or "
            f"the weight column from {meta['path']}")
    g = _generator_from(ns, data.dim)
    try:
        ensure_domain(g, data.points, interior=interior)
    except DomainError as exc:
        line = _file_line(meta["path"], exc.row)
        raise DomainError(f"{meta['path']} line {line}: {exc}", row=exc.row)
    timings["load_s"] = time.perf_counter() - t0
    return g, data, meta


def _generator_from(ns, dim=1):
    matrix = None
    if getattr(ns, "matrix", None):
        if os.path.exists(ns.matrix):
            try:
                matrix = np.loadtxt(ns.matrix, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValidationError(f"{ns.matrix}: {exc}") from None
        else:
            matrix = _mat(ns.matrix)
    return make_builtin(ns.generator, dim, matrix)


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


# command handlers: each takes (ns, timings), may add stage times to
# timings, and returns (results dict, summary lines[, trace dict])


def _cmd_divergence(ns, timings):
    kind = ns.kind
    results = {"kind": kind, "rho_j": None, "rho_b_q": None, "slope_sq": None}
    if kind == "kl-gaussian":
        value = results["value"] = kl_gaussian(
            _vec(ns.mu1), _mat(ns.cov1), _vec(ns.mu2), _mat(ns.cov2)).value
        return results, [f"kl-gaussian = {value:.12g}"]

    p, q = _vec(ns.p), _vec(ns.q)

    if kind in ("jensen-shannon", "total-jensen-shannon"):
        js, rho = _js_and_rho(p, q)
        value = results["value"] = js if kind == "jensen-shannon" else rho * js
        results["rho_j"] = None if np.array_equal(p, q) else rho
        return results, [f"{kind} = {value:.12g}"]

    g = _generator_from(ns, p.size)
    fn = {"jensen-raw": jensen_raw, "jensen-scaled": jensen_scaled,
          "bregman": bregman, "total-bregman": total_bregman,
          "total-jensen": total_jensen}[kind]
    # the Bregman kinds take no alpha, and leave --alpha unset
    args = (g, p, q) if ns.alpha is None else (g, ns.alpha, p, q)
    value = results["value"] = fn(*args).value  # the one check of p and q
    if not np.array_equal(p, q):
        _, s2, rho = kernels.chord_factors(g, p[None], q[None])
        results.update(rho_j=float(rho[0]), slope_sq=float(s2[0]))
    if g.domain.contains(q, interior=True):
        results["rho_b_q"] = float(kernels.gradient_conformal(g, q[None])[0])
    alpha = "" if ns.alpha is None else f", alpha={ns.alpha}"
    return results, [f"{kind}({g.name}{alpha}) = {value:.12g}"]


def _cmd_project(ns, timings):
    p, q = _vec(ns.p), _vec(ns.q)
    g = _generator_from(ns, p.size)
    res = project_beta(g, ns.alpha, p, q)  # the one check of p and q
    gap, rho = kernels.jensen_gap_and_conformal(g, ns.alpha, p[None], q[None])
    results = {
        "beta": res.beta,
        "distance": res.distance,
        "j_raw": max(float(gap[0]), 0.0),
        "rho_j": float(rho[0]),
        "pythagoras_residual": pythagoras_residual(g, ns.alpha, p, q),
    }
    return results, [
        f"projection foot at beta={res.beta:.12g}, distance={res.distance:.12g}"]


def _centroid_config(ns):
    return CentroidConfig(alpha=ns.alpha, inner_cccp_iters=ns.inner_iters,
                          outer_tol=ns.outer_tol, outer_max_iters=ns.outer_max)


def _cmd_centroid(ns, timings):
    g, data, meta = _dataset(ns, timings, True, weighted=True)
    fn = left_sided_centroid if ns.side == "left" else total_jensen_centroid
    res = fn(g, data, _centroid_config(ns))
    best = min(float(v) for v in res.loss_trace)
    results = {
        "center": res.center.tolist(),
        "loss_trace": [float(v) for v in res.loss_trace],
        "best_loss": best,
        "iterations": res.iterations,
        "converged": res.converged,
        "side": ns.side,
        "n_points": meta["rows"],
    }
    if ns.report:
        try:
            with open(ns.report, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps(results))
        except OSError as exc:
            raise ValidationError(
                f"cannot write {ns.report}: {exc.strerror or exc}") from None
    d = res.descent
    trace = {"stop_reason": res.stop_reason, "grad_inf": res.grad_inf,
             "stage_evals": [s.evals for s in res.stages],
             "descent": d and dict(zip(d._fields[1:], d[1:]))}
    descent = f"descent: {d.stop} after {d.evals} evaluations" if d else \
        "no descent"
    return results, [
        f"{ns.side}-sided centroid after {len(res.stages)} stages "
        f"(stop: {res.stop_reason}; {descent}), loss {best:.12g}"], trace


def _cmd_influence(ns, timings):
    g = _generator_from(ns)
    sweep = boundedness_sweep(g, ns.p, ns.ymax, per_decade=ns.per_decade)
    eps = as_real("epsilon", ns.eps, hi=0.5) if ns.empirical else None
    table = []
    for y, z, rho in zip(sweep.ys, sweep.z_values, sweep.rho_values):
        row = {"y": float(y), "z_analytic": float(z), "rho_j": float(rho)}
        if ns.empirical:
            row["z_empirical"] = _centroid_shift(
                g, ns.p, float(y), eps, float(z)).z_empirical
        table.append(row)
    results = {
        "table": table,
        "sup_abs_z": sweep.sup_abs_z,
        "classification": sweep.classification,
        "tail_rho_log": sweep.tail_rho_log,
    }
    return results, [
        f"{g.name}: sup|z| = {sweep.sup_abs_z:.6g} over y <= {ns.ymax:g} "
        f"({sweep.classification})"]


def _cmd_seed(ns, timings):
    g, data, meta = _dataset(ns, timings, False)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed)
    idx, pot = _seed_with_potential(g, data.points, cfg)
    results = {
        "centers": [
            {"index": int(i), "point": data.points[i].tolist()} for i in idx],
        "potential": pot,
        "k": ns.k,
        "n_points": meta["rows"],
    }
    return results, [
        f"seeded {ns.k} centers (rows {[int(i) for i in idx]}), "
        f"potential {pot:.12g}"]


def _cmd_cluster(ns, timings):
    g, data, meta = _dataset(ns, timings, True)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed)
    model = lloyd_cluster(g, data.points, cfg, _centroid_config(ns),
                          max_rounds=ns.max_rounds)
    timings.update(model.timings)
    results = {
        "centers": model.centers.tolist(),
        "assignments": model.assignments.tolist(),
        "potential": model.potential,
        "rounds": model.rounds,
        "k": ns.k,
        "n_points": meta["rows"],
    }
    stop = "converged" if model.converged else "stopped at max-rounds"
    trace = {"converged": model.converged, "centroid_stops": model.stops}
    return results, [
        f"clustered {meta['rows']} points into {ns.k} groups in "
        f"{model.rounds} rounds ({stop}), potential {model.potential:.12g}"], \
        trace


def _constants_payload(c):
    return {
        "k1_hat": c.k1_hat,
        "k2_hat": c.k2_hat,
        "rho_min": c.rho_min,
        "rho_max": c.rho_max,
        "boundary_excluded": c.boundary_excluded,
        "epsilon_note": c.epsilon_note,
    }


def _cmd_bound_experiment(ns, timings):
    g, data, meta = _dataset(ns, timings, True)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed)
    grid = (ns.eps,) if ns.eps is not None else DEFAULT_EPS_GRID
    rep = seeding_bound_experiment(g, data.points, cfg, eps_grid=grid,
                                   trials=ns.trials)
    timings.update(rep.timings)
    results = {
        "mean_potential": rep.mean_potential,
        "opt_potential": rep.opt_potential,
        "ratio": rep.ratio,
        "trials": rep.trials,
        "k": rep.k,
        "constants": _constants_payload(rep.constants),
        "curve": rep.curve,
    }
    return results, [
        f"mean/opt ratio {rep.ratio:.6g} over {rep.trials} trials "
        f"(opt {rep.opt_potential:.12g})"]


def _cmd_constants(ns, timings):
    # a boundary row is read, as an infinite bound
    g, data, meta = _dataset(ns, timings, False)
    c = estimate_bound_constants(g, data.points)
    curve = [{"eps": float(e), "u": c.u(e), "v": c.v(e)}
             for e in DEFAULT_EPS_GRID]
    results = dict(_constants_payload(c), curve=curve, n_points=meta["rows"])
    return results, [
        f"K1 {c.k1_hat:.6g}, K2 {c.k2_hat:.6g}, "
        f"rho range [{c.rho_min:.6g}, {c.rho_max:.6g}]"]


def _sqrt_tjs(p, q):
    return math.sqrt(total_jensen_shannon(p, q).value)


def _cmd_metric_check(ns, timings):
    if not ns.search:
        p, q, r = COUNTEREXAMPLE
        d1, d2, d3 = _sqrt_tjs(p, q), _sqrt_tjs(q, r), _sqrt_tjs(p, r)
        deficiency = d3 - (d1 + d2)
        results = {
            "d1": d1, "d2": d2, "d3": d3,
            "deficiency": deficiency,
            "triangle_violated": bool(deficiency > 0.0),
            "points": {"p": p.tolist(), "q": q.tolist(), "r": r.tolist()},
        }
        return results, [
            f"sqrt(tJS) triple: d1+d2 = {d1 + d2:.12g} < d3 = {d3:.12g}, "
            f"deficiency {deficiency:.17g}"]

    # the 1-simplex is the one point [1], which makes no triangle; the
    # worst triple needs a trial
    as_count("trials", ns.trials)
    as_count("dim", ns.dim, lo=2)
    as_count("rng_seed", ns.rng_seed, lo=0)
    rng = np.random.default_rng(ns.rng_seed)
    worst = -math.inf
    worst_triple = None
    violations = 0
    for _ in range(ns.trials):
        tri = rng.dirichlet(np.ones(ns.dim), size=3)
        d12, d23, d13 = (_sqrt_tjs(tri[0], tri[1]),
                         _sqrt_tjs(tri[1], tri[2]),
                         _sqrt_tjs(tri[0], tri[2]))
        # worst middle point over the three orderings
        deficiency = max(d13 - (d12 + d23),
                         d12 - (d13 + d23),
                         d23 - (d12 + d13))
        if deficiency > 0.0:
            violations += 1
        if deficiency > worst:
            worst = deficiency
            worst_triple = tri
    results = {
        "trials": ns.trials,
        "dim": ns.dim,
        "violations_found": violations,
        "worst_deficiency": worst,
        "worst_triple": worst_triple.tolist(),
    }
    return results, [
        f"{violations} violations in {ns.trials} random simplex triples, "
        f"worst deficiency {worst:.6g}"]


# the command table


REQUIRED = object()  # default of a flag the run needs, from a flag or config
FRESH = object()  # default of an rng_seed drawn afresh for each run

# each flag's argparse keywords; a command's defaults are in COMMANDS
FLAGS = {
    "kind": {"choices": list(KINDS)},
    "generator": {"choices": list(BUILTIN_NAMES)},
    "side": {"choices": ["right", "left"]},
    "dim": {"type": int,
            "help": "dimension of the simplex the triples are drawn from"},
    "matrix": {"help": "rows 'a,b;c,d' or a CSV file path"},
    "weights": {"help": "name of the weight column"},
    "inner_iters": {"type": int,
                    "help": "cap on CCCP map evaluations per centroid stage, "
                            "and on the descent's loss evaluations"},
    "outer_tol": {"type": float,
                  "help": "centroid stages stop once one changes the loss "
                          "by at most this fraction of it"},
    "report": {"help": "also write the results object to this path"},
    **dict.fromkeys(("input", "p", "q", "mu1", "cov1", "mu2", "cov2"), {}),
    **dict.fromkeys(("alpha", "ymax", "eps"), {"type": float}),
    **dict.fromkeys(("outer_max", "per_decade", "k", "rng_seed",
                     "max_rounds", "trials"), {"type": int}),
    **dict.fromkeys(("empirical", "search"), {"action": "store_true"}),
}


class Command(NamedTuple):
    handler: Callable  # (ns, timings) -> (results, summary lines[, trace])
    help: str
    flags: dict  # flag -> default, in help order
    # (mode flag, {its value: the flags that value leaves unread}); the
    # default reads the command's name and leaves no flag unread
    mode: tuple = ("cmd", {})
    kw: dict = {}  # flag -> argparse keywords over FLAGS' for this command


def _signature_defaults(fn):
    return {n: p.default for n, p in inspect.signature(fn).parameters.items()}


def _generator(name):
    return {"generator": name, "matrix": None}


_DATASET = dict(_generator("shannon"), input=REQUIRED, weights=None)
_CENTROID_FLAGS = {"inner_iters": CentroidConfig.inner_cccp_iters,
                   "outer_tol": CentroidConfig.outer_tol,
                   "outer_max": CentroidConfig.outer_max_iters}
_GENERATOR_FLAGS = ("generator", "matrix", "alpha")
_GAUSSIAN_FLAGS = ("mu1", "cov1", "mu2", "cov2")

# read at import: a profiler may later replace the library functions with
# wrappers whose signatures hold no defaults
COMMANDS = {
    "divergence": Command(
        _cmd_divergence, "evaluate one divergence",
        dict(kind=REQUIRED, **_generator("squared-euclidean"), alpha=0.5,
             p=REQUIRED, q=REQUIRED, mu1=REQUIRED, cov1=REQUIRED,
             mu2=REQUIRED, cov2=REQUIRED),
        mode=("kind", {
            "jensen-raw": _GAUSSIAN_FLAGS,
            "jensen-scaled": _GAUSSIAN_FLAGS,
            "bregman": _GAUSSIAN_FLAGS + ("alpha",),
            "total-bregman": _GAUSSIAN_FLAGS + ("alpha",),
            "total-jensen": _GAUSSIAN_FLAGS,
            "jensen-shannon": _GENERATOR_FLAGS + _GAUSSIAN_FLAGS,
            "total-jensen-shannon": _GENERATOR_FLAGS + _GAUSSIAN_FLAGS,
            "kl-gaussian": _GENERATOR_FLAGS + ("p", "q")})),
    "project": Command(
        _cmd_project, "orthogonal projection onto the chord",
        dict(_generator("squared-euclidean"), alpha=0.5, p=REQUIRED,
             q=REQUIRED)),
    "centroid": Command(
        _cmd_centroid, "two-stage total Jensen centroid",
        dict(_DATASET, alpha=CentroidConfig.alpha, side="right",
             **_CENTROID_FLAGS, report=None)),
    "influence": Command(
        _cmd_influence, "outlier influence sweep",
        dict(_generator("shannon"), p=REQUIRED, ymax=1e6,
             per_decade=_signature_defaults(boundedness_sweep)["per_decade"],
             empirical=False, eps=1e-4),
        mode=("empirical", {False: ("eps",)}),
        kw={"p": {"type": float}, "eps": {"help": "the outlier mass"}}),
    "seed": Command(
        _cmd_seed, "divergence-weighted center seeding",
        dict(_DATASET, alpha=SeedingConfig.alpha, k=REQUIRED, rng_seed=FRESH)),
    "cluster": Command(
        _cmd_cluster, "Lloyd clustering with seeded start",
        dict(_DATASET, alpha=SeedingConfig.alpha, k=REQUIRED, rng_seed=FRESH,
             max_rounds=_signature_defaults(lloyd_cluster)["max_rounds"],
             **_CENTROID_FLAGS)),
    "bound-experiment": Command(
        _cmd_bound_experiment, "seeding guarantee sanity check",
        dict(_DATASET, alpha=SeedingConfig.alpha, k=REQUIRED, rng_seed=FRESH,
             trials=100, eps=None),
        kw={"eps": {"help": "one eps instead of the default grid"}}),
    "constants": Command(
        _cmd_constants, "closed-form bound constants", dict(_DATASET)),
    "metric-check": Command(
        _cmd_metric_check, "triangle inequality probe for sqrt(tJS)",
        dict(search=False, trials=1000, dim=2, rng_seed=FRESH),
        mode=("search", {False: ("trials", "dim", "rng_seed")})),
}


def _flag_kw(spec, flag):
    return {**FLAGS[flag], **spec.kw.get(flag, {})}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tjdiv",
        description="total Jensen divergence toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, spec in COMMANDS.items():
        # every flag defaults to None; config values fill the unset ones
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--config", help="key=value file; explicit flags win")
        for flag in spec.flags:
            sp.add_argument("--" + flag.replace("_", "-"), default=None,
                            **_flag_kw(spec, flag))
    return ap


def _read_config(path):
    values, lines = {}, {}
    # \n, \r\n and a bare \r each end a line, as _read_text counts them
    text = io.StringIO(_read_text(path), newline=None)
    for lineno, line in enumerate(text, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path} line {lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ValidationError(
                f"{path} line {lineno}: config key {key!r} repeats line "
                f"{lines[key]}")
        values[key], lines[key] = val.strip(), lineno
    return values


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _config_value(sp, key, raw):
    """A config file's text for flag `key` of subparser sp, read and
    checked by the flag's own argparse action (its type and choices), so
    that a value the flag refuses is the same usage error (SystemExit 2).
    A store-true flag takes no value; its key reads a boolean word."""
    action = next(a for a in sp._actions if a.dest == key)
    if action.nargs == 0:
        if raw.lower() in _BOOLS:
            return _BOOLS[raw.lower()]
        message = f"wants a boolean, got {raw!r}"
    else:
        try:
            value = sp._get_value(action, raw)
            sp._check_value(action, value)
            return value
        except argparse.ArgumentError as exc:
            message = exc.message
    sp.error(f"config key {key!r}: {message}")


def _subparser(parser, cmd):
    # build_parser always adds the subcommands
    return next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices[cmd]


def _apply_config_and_defaults(ns, parser):
    """Fill ns from the config file, then from the command's defaults;
    True when the run draws from rng_seed. A required flag that neither
    gives is a usage error (SystemExit 2)."""
    spec, sp = COMMANDS[ns.cmd], _subparser(parser, ns.cmd)
    config = _read_config(ns.config) if ns.config else {}
    for key, raw in config.items():
        if key not in spec.flags:
            sp.error(f"config key {key!r} is not a {ns.cmd} flag")
        value = _config_value(sp, key, raw)
        if getattr(ns, key) is None:  # else the explicit flag wins
            setattr(ns, key, value)
    flag, unread = spec.mode
    setting = getattr(ns, flag) or False
    unused = unread.get(setting, ())
    for key, default in spec.flags.items():
        if default is REQUIRED and key not in unused \
                and getattr(ns, key) is None:
            sp.error(f"--{key.replace('_', '-')} is required, as a flag "
                     "or a config key")
    # a flag that the run never reads is an error, not a no-op, and is
    # left unset rather than echoed with its default
    mode = f"--{flag} {setting}" if setting else f"{ns.cmd} without --{flag}"
    for key in unused:
        if getattr(ns, key) is not None:
            raise ValidationError(
                f"{mode} does not use --{key.replace('_', '-')}; drop it")
    for key, default in spec.flags.items():
        if key not in unused and getattr(ns, key) is None:
            setattr(ns, key, _fresh_seed() if default is FRESH else default)
    return spec.flags.get("rng_seed") is FRESH and "rng_seed" not in unused


def _joined(argv):
    """argv (sys.argv[1:] if None) with '--p -1,2' read as '--p=-1,2':
    argparse takes a token that starts with '-' for a flag unless it is
    one plain number, and no flag starts with '-' and a digit or '.'."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (tok[:1] == "-" and tok[1:2] in tuple("0123456789.")
                and out and out[-1][:2] == "--" and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_PARSER = None  # built by the first _parser() call, not at import


def _parser():
    """The process's one parser; parse_args leaves it as it found it."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = _parser()
    try:
        ns = parser.parse_args(_joined(argv))
        timings = {"parse_s": time.perf_counter() - t0}
        stochastic = _apply_config_and_defaults(ns, parser)
        results, summary, *trace = COMMANDS[ns.cmd].handler(ns, timings)
    except SystemExit as exc:  # usage errors carry code 2
        return int(exc.code or 0)
    except TjdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timings["total_s"] = time.perf_counter() - t0
    echo = {k: v for k, v in vars(ns).items() if k not in ("cmd", "config")}
    report = {
        "command": dict(echo, subcommand=ns.cmd, version=__version__),
        "results": results,
        "timings": timings,
    }
    if trace:
        report["trace"] = trace[0]
    sys.stdout.write(canonical_dumps(report) + "\n")
    for line in summary:
        print(line, file=sys.stderr)
    if stochastic:
        print(f"rng_seed={ns.rng_seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
