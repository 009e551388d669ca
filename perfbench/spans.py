"""Span tracing of tjdiv's public functions from outside the library.

Tracer.install() replaces each traced function with a wrapper that
records a span (name, start, end, parent span, op id) and bumps work
counters computed from the call's arguments or result. Because `from
... import` copies a function into the importing module, every tjdiv
module attribute that *is* the original gets the wrapper, so calls from
`cli`, `clustering` and `centroids` are seen too. Generator callables
(f, grad, grad_inverse) are traced by building generators through a
wrapped `make_builtin`. uninstall() puts every original back, so an
untraced phase in the same process runs the library unchanged.

Spans live in flat in-memory arrays and are written out once, at the
end. A span's self time is its duration minus its children's.
"""

import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import replace

import numpy as np

# Layer metrics, and what each should move: (name, unit, better,
# end-to-end metrics it moves, workloads it is mostly on, workloads it is
# on a little). Counts and self times are per timed op.
LAYER_METRICS = []


def _layer(names, unit, better, moves, on, little=()):
    for name in names:
        LAYER_METRICS.append({"name": name, "unit": unit, "better": better,
                              "moves": list(moves), "on": list(on),
                              "little_on": list(little)})


_E2E = ("op_p50_s", "ops_per_s")
_layer(["cli.load_dataset.self_s"], "s/op", "lower", _E2E,
       ["cluster-20k"], ["bound-experiment"])
_layer(["cli.load_dataset.cells"], "count/op", "lower", _E2E,
       ["cluster-20k"], ["bound-experiment"])
_layer(["cli.canonical_dumps.self_s", "cli.main.self_s"], "s/op", "lower",
       ["op_p50_s"], ["cluster-20k", "bound-experiment"])
_layer(["generators.ensure_domain.calls"], "count/op", "lower", ["ops_per_s"],
       ["cluster-20k"], ["centroid-wide", "seed-draws"])
_layer(["generators.ensure_domain.self_s"], "s/op", "lower", ["ops_per_s"],
       ["cluster-20k"], ["centroid-wide", "seed-draws"])
_layer(["generators.ensure_domain.calls_per_input_row"], "1/row", "lower",
       ["ops_per_s"], ["cluster-20k"], ["centroid-wide", "seed-draws"])
_layer(["generators.Domain.contains.calls"], "count/op", "lower",
       ["op_p50_s"], ["bound-experiment"])
for _fn in ("f", "grad", "grad_inverse"):
    _layer([f"generators.{_fn}.calls"] + (
        [f"generators.{_fn}.rows"] if _fn != "grad_inverse" else []),
        "count/op", "lower", ["ops_per_s"], ["centroid-wide"], ["seed-draws"])
    _layer([f"generators.{_fn}.self_s"], "s/op", "lower", ["ops_per_s"],
           ["centroid-wide"], ["seed-draws"])
_layer(["kernels.min_divergence_assign.calls",
        "kernels.min_divergence_assign.pairs"], "count/op", "lower",
       ["ops_per_s"], ["cluster-20k", "seed-draws", "bound-experiment"])
_layer(["kernels.min_divergence_assign.self_s"], "s/op", "lower",
       ["ops_per_s"], ["cluster-20k", "seed-draws", "bound-experiment"])
_layer(["kernels.cccp_steps.calls", "kernels.cccp_steps.row_iters"],
       "count/op", "lower", ["ops_per_s"], ["centroid-wide", "cluster-20k"])
_layer(["kernels.cccp_steps.self_s"], "s/op", "lower", ["ops_per_s"],
       ["centroid-wide", "cluster-20k"])
for _fn in ("pairwise_conformal", "pairwise_total_jensen"):
    _layer([f"kernels.{_fn}.calls", f"kernels.{_fn}.rows"], "count/op",
           "lower", ["ops_per_s"], ["centroid-wide"], ["cluster-20k"])
    _layer([f"kernels.{_fn}.self_s"], "s/op", "lower", ["ops_per_s"],
           ["centroid-wide"], ["cluster-20k"])
# bytes_in is computed from the argument arrays' sizes, not measured
_layer([f"kernels.{fn}.bytes_in" for fn in (
    "min_divergence_assign", "cccp_steps", "pairwise_conformal",
    "pairwise_total_jensen")], "B/op-computed", "lower", ["peak_rss_mb"],
    ["bound-experiment", "centroid-wide"])
_layer(["centroids.total_jensen_centroid.calls",
        "centroids.total_jensen_centroid.outer_iters"], "count/op", "lower",
       ["ops_per_s"], ["centroid-wide", "cluster-20k"])
_layer(["centroids.total_jensen_centroid.self_s"], "s/op", "lower",
       ["ops_per_s"], ["centroid-wide", "cluster-20k"])
_layer(["centroids.total_jensen_centroid.converged_frac"], "ratio", "higher",
       ["ops_per_s"], ["centroid-wide", "cluster-20k"])
_layer(["centroids.WeightedPointSet.make.calls"], "count/op", "lower",
       ["ops_per_s"], ["cluster-20k"])
_layer(["centroids.WeightedPointSet.make.self_s"], "s/op", "lower",
       ["ops_per_s"], ["cluster-20k"])
# seen from outside, seed_indices' self time also holds RNG stream set-up
# and the cumsum/searchsorted draw
_layer(["clustering.seed_indices.calls"], "count/op", "lower",
       ["ops_per_s", "op_p99_s"], ["seed-draws"], ["cluster-20k"])
_layer(["clustering.seed_indices.self_s"], "s/op", "lower",
       ["ops_per_s", "op_p99_s"], ["seed-draws"], ["cluster-20k"])
_layer(["clustering.lloyd_cluster.self_s", "clustering.seed.self_s"], "s/op",
       "lower", ["op_p50_s"], ["cluster-20k"])
_layer(["clustering.lloyd_cluster.rounds", "clustering.seed.calls"],
       "count/op", "lower", ["op_p50_s"], ["cluster-20k"])
_layer(["clustering.brute_force_discrete_optimum.self_s",
        "clustering.seeding_bound_experiment.self_s",
        "clustering.estimate_bound_constants.self_s"], "s/op", "lower",
       ["op_p50_s", "peak_rss_mb"], ["bound-experiment"], ["seed-draws"])
_layer(["clustering.brute_force_discrete_optimum.subsets"], "count/op",
       "lower", ["op_p50_s", "peak_rss_mb"], ["bound-experiment"],
       ["seed-draws"])
_layer(["trace.overhead_frac"], "ratio", "lower", [],
       ["cluster-20k", "centroid-wide", "seed-draws", "bound-experiment"])

# exact work counts: these must repeat exactly from op to op and run to run
EXACT_SUFFIXES = (".calls", ".rows", ".pairs", ".row_iters", ".rounds",
                  ".subsets", ".cells", ".outer_iters", ".bytes_in")


def _rows(a):
    a = np.asarray(a)
    return 1 if a.ndim < 2 else int(math.prod(a.shape[:-1]))


def _nbytes(*arrays):
    return sum(np.asarray(a).nbytes for a in arrays)


# per traced function: (module, attribute, counter(counts, args, result))
def _count_load(c, args, kw, out):
    c["cli.load_dataset.cells"] += int(out[0].points.size)


def _count_assign(c, args, kw, out):
    g, alpha, x, centers = args
    c["kernels.min_divergence_assign.pairs"] += _rows(x) * _rows(centers)
    c["kernels.min_divergence_assign.bytes_in"] += _nbytes(x, centers)


def _count_cccp(c, args, kw, out):
    g, alpha, x, w, c0, iters = args
    c["kernels.cccp_steps.row_iters"] += _rows(x) * int(iters)
    c["kernels.cccp_steps.bytes_in"] += _nbytes(x, w, c0)


def _count_pairwise(name):
    def count(c, args, kw, out):
        p, q = args[-2], args[-1]
        c[f"kernels.{name}.rows"] += _rows(p)
        c[f"kernels.{name}.bytes_in"] += _nbytes(p, q)
    return count


def _count_centroid(c, args, kw, out):
    c["centroids.total_jensen_centroid.outer_iters"] += out.iterations
    c["centroids.total_jensen_centroid.converged"] += bool(out.converged)


def _count_lloyd(c, args, kw, out):
    c["clustering.lloyd_cluster.rounds"] += out.rounds


def _count_brute(c, args, kw, out):
    data = np.asarray(args[2])
    c["clustering.brute_force_discrete_optimum.subsets"] += math.comb(
        data.shape[0], int(args[3]))


FUNCTIONS = [
    ("cli", "main", None),
    ("cli", "load_dataset", _count_load),
    ("cli", "canonical_dumps", None),
    ("generators", "ensure_domain", None),
    ("kernels", "min_divergence_assign", _count_assign),
    ("kernels", "cccp_steps", _count_cccp),
    ("kernels", "pairwise_conformal", _count_pairwise("pairwise_conformal")),
    ("kernels", "pairwise_total_jensen",
     _count_pairwise("pairwise_total_jensen")),
    ("centroids", "total_jensen_centroid", _count_centroid),
    ("clustering", "seed_indices", None),
    ("clustering", "seed", None),
    ("clustering", "lloyd_cluster", _count_lloyd),
    ("clustering", "brute_force_discrete_optimum", _count_brute),
    ("clustering", "seeding_bound_experiment", None),
    ("clustering", "estimate_bound_constants", None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._restore = []

    def _ix(self, name):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def wrap(self, name, fn, count=None):
        nix = self._ix(name)
        calls = name + ".calls"
        counts, stack = self.counts, self._stack
        start, end, parent, names, ops = (
            self.start, self.end, self.parent, self.name, self.op)
        clock = time.perf_counter

        def traced(*args, **kw):
            i = len(start)
            parent.append(stack[-1])
            names.append(nix)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kw)
            finally:
                end[i] = clock()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, args, kw, out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, orig, wrapper):
        """Replace `orig` in every tjdiv module that holds it, including
        the copies `from ... import` made."""
        for name, mod in list(sys.modules.items()):
            if name == "tjdiv" or name.startswith("tjdiv."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def install(self):
        # cli is imported so that its copies of library functions exist
        # to be patched even when the workload has not loaded it
        from tjdiv import centroids, cli, generators  # noqa: F401
        for modname, attr, count in FUNCTIONS:
            orig = getattr(sys.modules[f"tjdiv.{modname}"], attr)
            self._patch_everywhere(
                orig, self.wrap(f"{modname}.{attr}", orig, count))

        # bound to the class, so the wrapper can drop `cls`
        traced_make = self.wrap("centroids.WeightedPointSet.make",
                                centroids.WeightedPointSet.make)
        self._patch(centroids.WeightedPointSet, "make", classmethod(
            lambda cls, *a, **kw: traced_make(*a, **kw)))

        # Domain.contains called from ensure_domain is ensure_domain's own
        # work; only direct calls become spans
        contains = generators.Domain.contains
        traced_contains = self.wrap("generators.Domain.contains", contains)
        ensure_ix = self._ix("generators.ensure_domain")
        stack, names = self._stack, self.name

        def contains_hook(dom, x, interior=False):
            top = stack[-1]
            if top >= 0 and names[top] == ensure_ix:
                return contains(dom, x, interior)
            return traced_contains(dom, x, interior)

        self._patch(generators.Domain, "contains", contains_hook)

        make_builtin = generators.make_builtin
        f_count = self._rows_counter("generators.f.rows")
        grad_count = self._rows_counter("generators.grad.rows")

        def traced_builtin(*args, **kw):
            g = make_builtin(*args, **kw)
            return replace(
                g, f=self.wrap("generators.f", g.f, f_count),
                grad=self.wrap("generators.grad", g.grad, grad_count),
                grad_inverse=self.wrap("generators.grad_inverse",
                                       g.grad_inverse))

        self._patch_everywhere(make_builtin, traced_builtin)

    @staticmethod
    def _rows_counter(key):
        def count(c, args, kw, out):
            c[key] += _rows(args[0])
        return count

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def spans(self):
        """The spans as numpy arrays (views, no copy)."""
        return {field: np.frombuffer(getattr(self, field), dtype=dtype)
                for field, dtype in (("start", np.float64),
                                     ("end", np.float64),
                                     ("parent", np.int64), ("name", np.int64),
                                     ("op", np.int64))}

    def self_times(self):
        """Total self time per span name over spans inside ops."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has], weights=dur[has],
                            minlength=len(dur))
        keep = sp["op"] >= 0
        tot = np.bincount(sp["name"][keep], weights=(dur - child)[keep],
                          minlength=len(self.names))
        return dict(zip(self.names, tot.tolist()))

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.spans())


def layer_metrics(tracer, counts, ops, input_rows, overhead_frac):
    """Per-op layer rows from a traced phase of `ops` ops whose work
    counters summed to `counts`."""
    selft = tracer.self_times()
    out = {}
    for m in LAYER_METRICS:
        name = m["name"]
        if name == "trace.overhead_frac":
            val = overhead_frac
        elif name == "generators.ensure_domain.calls_per_input_row":
            calls = counts.get("generators.ensure_domain.calls", 0)
            val = calls / ops / input_rows
        elif name == "centroids.total_jensen_centroid.converged_frac":
            calls = counts.get("centroids.total_jensen_centroid.calls", 0)
            conv = counts.get("centroids.total_jensen_centroid.converged", 0)
            val = conv / calls if calls else 0.0
        elif name.endswith(".self_s"):
            val = selft.get(name[:-len(".self_s")], 0.0) / ops
        else:
            val = counts.get(name, 0) / ops
        out[name] = {"value": val, "unit": m["unit"]}
    return out
