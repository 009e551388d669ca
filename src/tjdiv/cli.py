"""Command-line interface: dataset ingestion, dispatch, JSON reports.

Every run prints a report object {command, results, timings} to stdout
and a short human summary to stderr. The report is serialized
canonically (sorted keys, floats at 17 significant digits) so that
re-running a command with the seed echoed under "command" reproduces
the "results" object byte for byte. Exit codes: 0 success, 1 domain or
validation failure, 2 usage error.

A config file of key=value lines can pre-set any flag; explicit flags
win. Keys match flag names with either dashes or underscores.
"""

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .centroids import CentroidConfig, WeightedPointSet
from .centroids import total_jensen_centroid, left_sided_centroid
from .clustering import (
    DEFAULT_EPS_GRID, SeedingConfig, estimate_bound_constants,
    lloyd_cluster, seed_indices, seeding_bound_experiment)
from .divergences import (
    bregman, conformal_factors, jensen_raw, jensen_scaled, jensen_shannon,
    kl_gaussian, rho_b, total_bregman, total_jensen, total_jensen_shannon)
from .errors import DomainError, TjdivError, ValidationError
from .generators import ensure_domain, make_builtin
from .geometry import project_beta, pythagoras_residual
from .kernels import min_divergence_assign
from .robustness import boundedness_sweep, influence_analytic, influence_empirical

GENERATOR_KINDS = (
    "jensen-raw", "jensen-scaled", "bregman", "total-bregman", "total-jensen")
ALL_KINDS = GENERATOR_KINDS + (
    "jensen-shannon", "total-jensen-shannon", "kl-gaussian")

COUNTEREXAMPLE = (
    np.array([0.98, 0.02]), np.array([0.52, 0.48]), np.array([0.006, 0.994]))


# canonical serialization


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits,
    non-finite floats mapped to null."""
    out = []
    _canon(obj, out)
    return "".join(out)


def _canon(x, out):
    if isinstance(x, dict):
        out.append("{")
        first = True
        for key in sorted(x):
            if not isinstance(key, str):
                raise ValidationError("report keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(_jstr(key))
            out.append(":")
            _canon(x[key], out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, v in enumerate(x):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    elif isinstance(x, np.ndarray):
        _canon(x.tolist(), out)
    elif isinstance(x, bool) or isinstance(x, np.bool_):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
    elif isinstance(x, (float, np.floating)):
        v = float(x)
        out.append(format(v, ".17g") if math.isfinite(v) else "null")
    elif isinstance(x, str):
        out.append(_jstr(x))
    elif x is None:
        out.append("null")
    else:
        raise ValidationError(f"cannot serialize {type(x).__name__}")


def _jstr(s):
    import json
    return json.dumps(s, ensure_ascii=False)


# input parsing


def _vec(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in str(text).split(",") if t != ""])
    except ValueError:
        raise ValidationError(f"cannot parse vector {text!r}")


def _mat(text: str) -> np.ndarray:
    rows = [r for r in str(text).split(";") if r != ""]
    return np.array([_vec(r) for r in rows])


def load_dataset(path, generator=None, interior=False, weight_column=None):
    """CSV loader: one point per row, optional header, optional weight
    column (named `weight`, or chosen via weight_column). Returns a
    WeightedPointSet plus a metadata dict."""
    if not os.path.exists(path):
        raise ValidationError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not raw:
        raise ValidationError(f"{path} holds no data rows")

    def _floatable(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header = None
    if not all(_floatable(c) for c in raw[0]):
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        if not raw:
            raise ValidationError(f"{path} has a header but no data rows")

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

    width = len(raw[0])
    pts, wts = [], []
    for i, row in enumerate(raw, start=(2 if header else 1)):
        if len(row) != width:
            raise ValidationError(
                f"{path} line {i}: expected {width} columns, got {len(row)}")
        vals = []
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
            vals.append(v)
        if wcol is not None:
            w = vals.pop(wcol)
            if w < 0:
                raise ValidationError(f"{path} line {i}: negative weight")
            wts.append(w)
        pts.append(vals)

    data = WeightedPointSet.make(pts, wts if wcol is not None else None)
    meta = {"rows": data.n, "has_weights": wcol is not None,
            "first_line": 2 if header else 1, "path": path}
    if generator is not None:
        _ensure_rows(generator, data, interior, meta)
    return data, meta


def _ensure_rows(g, data, interior, meta):
    try:
        ensure_domain(g, data.points, interior=interior)
    except DomainError as exc:
        raise DomainError(
            f"{meta['path']} line {meta['first_line'] + exc.row}: {exc}",
            row=exc.row)


def _load_unweighted(ns):
    """Load --input for a command that has no use for point weights."""
    data, meta = load_dataset(ns.input, weight_column=ns.weights)
    if meta["has_weights"]:
        raise ValidationError(
            f"{ns.cmd} does not use point weights; drop --weights or "
            f"the weight column from {meta['path']}")
    return data, meta


def _generator_from(ns, dim=None):
    matrix = None
    if getattr(ns, "matrix", None):
        if os.path.exists(ns.matrix):
            matrix = np.loadtxt(ns.matrix, delimiter=",", ndmin=2)
        else:
            matrix = _mat(ns.matrix)
    if ns.dim is not None:
        dim = ns.dim
    return make_builtin(ns.generator, 1 if dim is None else dim, matrix)


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


# command handlers, each returning (results dict, summary lines)


def _cmd_divergence(ns):
    kind = ns.kind
    if kind == "kl-gaussian":
        for flag in ("mu1", "cov1", "mu2", "cov2"):
            if getattr(ns, flag) is None:
                raise ValidationError(f"kl-gaussian needs --{flag}")
        value = kl_gaussian(_vec(ns.mu1), _mat(ns.cov1),
                            _vec(ns.mu2), _mat(ns.cov2)).value
        results = {"kind": kind, "value": value, "rho_j": None,
                   "rho_b_q": None, "slope_sq": None}
        return results, [f"kl-gaussian = {value:.12g}"]

    if ns.p is None or ns.q is None:
        raise ValidationError(f"{kind} needs --p and --q")
    p, q = _vec(ns.p), _vec(ns.q)

    if kind in ("jensen-shannon", "total-jensen-shannon"):
        fn = jensen_shannon if kind == "jensen-shannon" else total_jensen_shannon
        value = fn(p, q).value
        rho = None
        if not np.array_equal(p, q):
            rho = conformal_factors(make_builtin("shannon", p.size), p, q).rho_j
        results = {"kind": kind, "value": value, "rho_j": rho,
                   "rho_b_q": None, "slope_sq": None}
        return results, [f"{kind} = {value:.12g}"]

    g = _generator_from(ns, p.size)
    if kind == "jensen-raw":
        value = jensen_raw(g, ns.alpha, p, q).value
    elif kind == "jensen-scaled":
        value = jensen_scaled(g, ns.alpha, p, q).value
    elif kind == "bregman":
        value = bregman(g, p, q).value
    elif kind == "total-bregman":
        value = total_bregman(g, p, q).value
    else:
        value = total_jensen(g, ns.alpha, p, q).value
    rho_j = slope_sq = None
    if not np.array_equal(p, q):
        cf = conformal_factors(g, p, q)
        rho_j, slope_sq = cf.rho_j, cf.slope_sq
    try:
        rbq = rho_b(g, q)
    except DomainError:
        rbq = None
    results = {"kind": kind, "value": value, "rho_j": rho_j,
               "rho_b_q": rbq, "slope_sq": slope_sq}
    return results, [f"{kind}({g.name}, alpha={ns.alpha}) = {value:.12g}"]


def _cmd_project(ns):
    p, q = _vec(ns.p), _vec(ns.q)
    g = _generator_from(ns, p.size)
    res = project_beta(g, ns.alpha, p, q)
    cf = conformal_factors(g, p, q)
    results = {
        "beta": res.beta,
        "distance": res.distance,
        "j_raw": jensen_raw(g, ns.alpha, p, q).value,
        "rho_j": cf.rho_j,
        "pythagoras_residual": pythagoras_residual(g, ns.alpha, p, q),
    }
    return results, [
        f"projection foot at beta={res.beta:.12g}, distance={res.distance:.12g}"]


def _cmd_centroid(ns):
    data, meta = load_dataset(ns.input, weight_column=ns.weights)
    g = _generator_from(ns, data.dim)
    _ensure_rows(g, data, True, meta)
    cfg = CentroidConfig(alpha=ns.alpha, inner_cccp_iters=ns.inner_iters,
                         outer_tol=ns.outer_tol, outer_max_iters=ns.outer_max)
    fn = left_sided_centroid if ns.side == "left" else total_jensen_centroid
    res = fn(g, data, cfg)
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
        with open(ns.report, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(results))
    word = "converged" if res.converged else "stopped"
    return results, [
        f"{ns.side}-sided centroid {word} after {res.iterations} stages, "
        f"loss {best:.12g}"]


def _cmd_influence(ns):
    g = _generator_from(ns)
    sweep = boundedness_sweep(g, ns.p, ns.ymax, per_decade=ns.per_decade)
    table = []
    for y, z, rho in zip(sweep.ys, sweep.z_values, sweep.rho_values):
        row = {"y": float(y), "z_analytic": float(z), "rho_j": float(rho)}
        if ns.empirical:
            row["z_empirical"] = influence_empirical(
                g, ns.p, y, ns.eps).z_empirical
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


def _cmd_seed(ns):
    data, meta = _load_unweighted(ns)
    g = _generator_from(ns, data.dim)
    _ensure_rows(g, data, False, meta)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed)
    idx = seed_indices(g, data.points, cfg)
    centers = data.points[idx]
    mind, _ = min_divergence_assign(g, ns.alpha, data.points, centers)
    results = {
        "centers": [
            {"index": int(i), "point": data.points[i].tolist()} for i in idx],
        "potential": float(mind.sum()),
        "k": ns.k,
        "n_points": meta["rows"],
    }
    return results, [
        f"seeded {ns.k} centers (rows {[int(i) for i in idx]}), "
        f"potential {float(mind.sum()):.12g}"]


def _cmd_cluster(ns):
    data, meta = _load_unweighted(ns)
    g = _generator_from(ns, data.dim)
    _ensure_rows(g, data, True, meta)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed)
    ccfg = CentroidConfig(alpha=ns.alpha, inner_cccp_iters=ns.inner_iters,
                          outer_tol=ns.outer_tol, outer_max_iters=ns.outer_max)
    model = lloyd_cluster(g, data.points, cfg, ccfg, max_rounds=ns.max_rounds)
    results = {
        "centers": model.centers.tolist(),
        "assignments": model.assignments.tolist(),
        "potential": model.potential,
        "rounds": model.rounds,
        "k": ns.k,
        "n_points": meta["rows"],
    }
    stop = "converged" if model.converged else "stopped at max-rounds"
    return results, [
        f"clustered {meta['rows']} points into {ns.k} groups in "
        f"{model.rounds} rounds ({stop}), potential {model.potential:.12g}"]


def _constants_payload(c):
    return {
        "k1_hat": c.k1_hat,
        "k2_hat": c.k2_hat,
        "rho_min": c.rho_min,
        "rho_max": c.rho_max,
        "boundary_excluded": c.boundary_excluded,
        "epsilon_note": c.epsilon_note,
    }


def _cmd_bound_experiment(ns):
    data, meta = _load_unweighted(ns)
    g = _generator_from(ns, data.dim)
    _ensure_rows(g, data, True, meta)
    cfg = SeedingConfig(k=ns.k, alpha=ns.alpha, rng_seed=ns.rng_seed,
                        trials=ns.trials)
    grid = (ns.eps,) if ns.eps is not None else DEFAULT_EPS_GRID
    rep = seeding_bound_experiment(g, data.points, cfg, eps_grid=grid,
                                   samples=ns.samples)
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


def _cmd_constants(ns):
    data, meta = _load_unweighted(ns)
    g = _generator_from(ns, data.dim)
    _ensure_rows(g, data, True, meta)
    c = estimate_bound_constants(g, data.points, samples=ns.samples,
                                 rng_seed=ns.rng_seed)
    curve = [{"eps": float(e), "u": c.u(e), "v": c.v(e)}
             for e in DEFAULT_EPS_GRID]
    results = dict(_constants_payload(c), curve=curve, n_points=meta["rows"])
    return results, [
        f"K1 {c.k1_hat:.6g}, K2 {c.k2_hat:.6g}, "
        f"rho range [{c.rho_min:.6g}, {c.rho_max:.6g}]"]


def _sqrt_tjs(p, q):
    return math.sqrt(total_jensen_shannon(p, q).value)


def _cmd_metric_check(ns):
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

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(ns.rng_seed)))
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


# parser plumbing


def _add_generator_flags(sp):
    sp.add_argument("--generator", type=str,
                    choices=["shannon", "burg", "bit", "squared-mahalanobis",
                             "squared-euclidean"])
    sp.add_argument("--dim", type=int, default=None,
                    help="override the dimension inferred from inputs")
    sp.add_argument("--matrix", type=str, default=None,
                    help="rows 'a,b;c,d' or a CSV file path")


def _add_dataset_flags(sp):
    sp.add_argument("--input", type=str, default=None)
    sp.add_argument("--weights", type=str, default=None,
                    help="name of the weight column")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tjdiv",
        description="total Jensen divergence toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def new(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file; explicit flags win")
        return sp

    sp = new("divergence", help="evaluate one divergence")
    sp.add_argument("--kind", choices=list(ALL_KINDS), required=True)
    _add_generator_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--p", type=str, default=None)
    sp.add_argument("--q", type=str, default=None)
    for flag in ("mu1", "cov1", "mu2", "cov2"):
        sp.add_argument(f"--{flag}", type=str, default=None)

    sp = new("project", help="orthogonal projection onto the chord")
    _add_generator_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--p", type=str, required=True)
    sp.add_argument("--q", type=str, required=True)

    sp = new("centroid", help="two-stage total Jensen centroid")
    _add_generator_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--side", choices=["right", "left"], default=None)
    sp.add_argument("--inner-iters", type=int, default=None)
    sp.add_argument("--outer-tol", type=float, default=None)
    sp.add_argument("--outer-max", type=int, default=None)
    sp.add_argument("--report", type=str, default=None,
                    help="also write the results object to this path")

    sp = new("influence", help="outlier influence sweep")
    _add_generator_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--ymax", type=float, default=None)
    sp.add_argument("--per-decade", type=int, default=None)
    sp.add_argument("--empirical", action="store_true", default=None)
    sp.add_argument("--eps", type=float, default=None)

    sp = new("seed", help="divergence-weighted center seeding")
    _add_generator_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rng-seed", type=int, default=None)

    sp = new("cluster", help="Lloyd clustering with seeded start")
    _add_generator_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rng-seed", type=int, default=None)
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.add_argument("--inner-iters", type=int, default=None)
    sp.add_argument("--outer-tol", type=float, default=None)
    sp.add_argument("--outer-max", type=int, default=None)

    sp = new("bound-experiment", help="seeding guarantee sanity check")
    _add_generator_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rng-seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None,
                    help="single eps instead of the default grid")

    sp = new("constants", help="empirical bound constants")
    _add_generator_flags(sp)
    _add_dataset_flags(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--rng-seed", type=int, default=None)

    sp = new("metric-check", help="triangle inequality probe for sqrt(tJS)")
    sp.add_argument("--search", action="store_true", default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--rng-seed", type=int, default=None)

    return ap


DEFAULTS = {
    "divergence": {"alpha": 0.5, "generator": "squared-euclidean"},
    "project": {"alpha": 0.5, "generator": "squared-euclidean"},
    "centroid": {"alpha": 0.5, "generator": "shannon", "side": "right",
                 "inner_iters": 20, "outer_tol": 1e-10, "outer_max": 1000},
    "influence": {"generator": "shannon", "ymax": 1e6, "per_decade": 40,
                  "empirical": False, "eps": 1e-4},
    "seed": {"alpha": 0.5, "generator": "shannon"},
    "cluster": {"alpha": 0.5, "generator": "shannon", "max_rounds": 100,
                "inner_iters": 20, "outer_tol": 1e-10, "outer_max": 1000},
    "bound-experiment": {"alpha": 0.5, "generator": "shannon",
                         "trials": 100, "samples": 4096},
    "constants": {"generator": "shannon", "samples": 4096, "rng_seed": 0},
    "metric-check": {"search": False, "trials": 1000, "dim": 2},
}

STOCHASTIC = {"seed", "cluster", "bound-experiment", "metric-check"}

HANDLERS = {
    "divergence": _cmd_divergence,
    "project": _cmd_project,
    "centroid": _cmd_centroid,
    "influence": _cmd_influence,
    "seed": _cmd_seed,
    "cluster": _cmd_cluster,
    "bound-experiment": _cmd_bound_experiment,
    "constants": _cmd_constants,
    "metric-check": _cmd_metric_check,
}


def _read_config(path):
    if not os.path.exists(path):
        raise ValidationError(f"no such config file: {path}")
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path} line {lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _subcommand_actions(parser, cmd):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {a.dest: a for a in action.choices[cmd]._actions}
    raise ValidationError("parser has no subcommands")


def _apply_config_and_defaults(ns, parser):
    config = {}
    if getattr(ns, "config", None):
        config = _read_config(ns.config)
    actions = _subcommand_actions(parser, ns.cmd)
    for key, raw in config.items():
        if key == "config" or key not in actions or not hasattr(ns, key):
            raise ValidationError(f"config key {key!r} is not a {ns.cmd} flag")
        if getattr(ns, key) is not None:
            continue  # explicit flag wins
        action = actions[key]
        if getattr(action, "const", None) is True:  # store_true flag
            if raw.lower() not in _BOOLS:
                raise ValidationError(
                    f"config key {key!r} wants a boolean, got {raw!r}")
            setattr(ns, key, _BOOLS[raw.lower()])
        elif action.type is not None:
            try:
                setattr(ns, key, action.type(raw))
            except ValueError:
                raise ValidationError(
                    f"config key {key!r}: cannot parse {raw!r}")
        else:
            setattr(ns, key, raw)
    for key, val in DEFAULTS[ns.cmd].items():
        if getattr(ns, key, None) is None:
            setattr(ns, key, val)
    if _is_stochastic(ns) and ns.rng_seed is None:
        ns.rng_seed = _fresh_seed()


def _is_stochastic(ns):
    if ns.cmd == "metric-check":
        return bool(ns.search)
    return ns.cmd in STOCHASTIC


def _echo(ns):
    skip = {"cmd", "config"}
    echo = {k: v for k, v in vars(ns).items() if k not in skip}
    echo["subcommand"] = ns.cmd
    echo["version"] = __version__
    return echo


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        _apply_config_and_defaults(ns, parser)
        results, summary = HANDLERS[ns.cmd](ns)
    except TjdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    report = {
        "command": _echo(ns),
        "results": results,
        "timings": {"total_s": elapsed},
    }
    sys.stdout.write(canonical_dumps(report) + "\n")
    for line in summary:
        print(line, file=sys.stderr)
    if _is_stochastic(ns):
        print(f"rng_seed={ns.rng_seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
