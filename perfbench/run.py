#!/usr/bin/env python3
"""tjdiv benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload cluster-20k --seed 1 --seconds 20 \\
        --trace 0

Workloads (see workloads.py): cluster-20k, centroid-wide, seed-draws,
bound-experiment. tjdiv is imported from `src/` next to this directory.
The client runs ops back to back on one thread, each starting when the
previous one returns, for --seconds seconds after untimed warm-up ops.
Every op's output is checked against a benchmark-side numpy reference,
and ops sharing a seed must give byte-identical results.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first
half of the time untraced and the second half traced (spans.py), and
reports per-op layer metrics plus the tracing overhead. The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the lines
before it name every metric with its unit and sample count (plus the
op_p99_s of runs with at least 1000 ops), and record the environment. Inputs, spans and the environment record are written
to `.bench_work/` in the checkout.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 7

# one client thread: keep BLAS from adding threads of its own, which on a
# small shared machine only adds noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def import_tjdiv():
    """Import tjdiv from this checkout's src/, or exit non-zero; returns
    the kernel backend's name."""
    sys.path.insert(0, SRC)
    try:
        import tjdiv
        from tjdiv import _accel
    except ImportError as exc:
        sys.exit(f"cannot import tjdiv from {SRC}: {exc}")
    if not os.path.abspath(tjdiv.__file__).startswith(SRC + os.sep):
        sys.exit(f"tjdiv resolved to {tjdiv.__file__}, not under {SRC}")
    if _accel.backend() != "numpy":
        sys.exit(f"expected the numpy backend, got {_accel.backend()}")
    return _accel.backend()


def environment(backend):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "tjdiv_backend": backend, "git_commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload, inputs, workdir):
    """Median of SETUP_PROBES cold set-ups, each in a fresh interpreter."""
    arrays = {k: v for k, v in inputs.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in inputs.items() if k not in arrays}
    arrays_path = os.path.join(workdir, "setup_inputs.npz")
    meta_path = os.path.join(workdir, "setup_inputs.json")
    np.savez(arrays_path, **arrays)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           workload.name, arrays_path, meta_path, *workload.imports]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def attempt(workload, state, i):
    try:
        return workload.op(state, i)
    except Exception as exc:  # a failed op is counted, not fatal
        return exc


class Checks:
    """Checks each output as it arrives, so memory stays flat however many
    ops a run makes. Fingerprints are kept for the first KEEP keys, which
    covers every key that warm-up ops and replays repeat."""

    KEEP = 1024

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.problems = []
        self.prints = {}
        self.tally = workload.new_tally()

    def _report(self, what, exc):
        if len(self.problems) < 3:
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exception(exc, file=sys.stderr)

    def __call__(self, i, out, timed=True):
        w = self.workload
        self.attempted += 1
        try:
            if isinstance(out, Exception):
                raise out
            w.check(self.inputs, out)
            key, fp = w.key(i), w.fingerprint(out)
            if key in self.prints:
                if self.prints[key] != fp:
                    raise CheckFailed(
                        f"repeated seeded op {key} with different results")
            elif len(self.prints) < self.KEEP:
                self.prints[key] = fp
            if timed:
                w.tally(self.tally, out)
        except Exception as exc:  # every failure mode counts the same
            self.failed += 1
            self._report(f"op {i}", exc)

    def finish(self):
        try:
            self.workload.check_all(self.inputs, self.tally)
        except Exception as exc:  # a failed joint check fails every op
            self.failed = self.attempted
            self._report("joint check", exc)


def timed_phase(workload, state, seconds, first, checks, before_op=None,
                after_op=None):
    """Closed loop for `seconds`. Returns the op latencies and the phase's
    wall time less the time spent checking outputs."""
    lat = array("d")
    clock = time.perf_counter
    t_start = clock()
    deadline = t_start + seconds
    aside = 0.0
    i = first
    while True:
        if before_op is not None:
            before_op(i)
        t0 = clock()
        out = attempt(workload, state, i)
        t1 = clock()
        lat.append(t1 - t0)
        if after_op is not None:
            after_op(i)
        checks(i, out)
        aside += clock() - t1
        i += 1
        if t1 >= deadline:
            break
    return lat, clock() - t_start - aside


def traced_phase(workload, inputs, seconds, first, checks, untraced_rate):
    """timed_phase with tjdiv's public functions traced. Returns the
    latencies, wall time, per-op layer metrics, problems found and the
    tracer holding the spans."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        # rebuilt so that generators come from the traced make_builtin
        state = workload.construct(inputs)
        base = dict(tracer.counts)
        first_op = {}

        def before(i):
            tracer.op_id = i

        def after(i):
            tracer.op_id = -1
            if not first_op:
                first_op.update({k: v - base.get(k, 0)
                                 for k, v in tracer.counts.items()})

        lat, wall = timed_phase(workload, state, seconds, first, checks,
                                before, after)
    finally:
        tracer.uninstall()
    counts = {k: v - base.get(k, 0) for k, v in tracer.counts.items()}
    n = len(lat)
    problems = [
        f"count {k} did not repeat exactly: {v} over {n} ops, "
        f"{first_op.get(k, 0)} in the first"
        for k, v in counts.items()
        if k.endswith(spans.EXACT_SUFFIXES) and v != n * first_op.get(k, 0)]
    overhead = 1.0 - (n / wall) / untraced_rate
    metrics = spans.layer_metrics(tracer, counts, n, inputs["rows"], overhead)
    return lat, wall, metrics, problems, tracer


def end_to_end(lat, wall, setup_s, peak_rss_mb):
    return {
        "ops_per_s": {"value": len(lat) / wall, "unit": "1/s"},
        "op_p50_s": {"value": float(np.median(lat)), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    backend = import_tjdiv()
    env = environment(backend)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, workload.name)
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "environment.json"), "w",
              encoding="utf-8") as fh:
        json.dump(env, fh, indent=1)

    inputs = workload.make_inputs(args.seed, workdir)
    setup_s, setup_times = measure_setup(workload, inputs, workdir)
    state = workload.construct(inputs)

    checks = Checks(workload, inputs)
    for _ in range(workload.warmup_ops):
        checks(0, attempt(workload, state, 0), timed=False)

    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {workload.name} seed {args.seed}: {workload.why}",
             f"setup_s = {setup_s:.6f} s (median of {len(setup_times)} "
             f"cold set-ups: {', '.join(f'{t:.4f}' for t in setup_times)})"]
    run_problems = []
    if not args.trace:
        lat, wall = timed_phase(workload, state, args.seconds, 0, checks)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(lat, wall, setup_s, rss)
    else:
        half = args.seconds / 2.0
        lat, wall = timed_phase(workload, state, half, 0, checks)
        lat_t, wall_t, metrics, problems, tracer = traced_phase(
            workload, inputs, half, len(lat), checks, len(lat) / wall)
        run_problems.extend(problems)
        tracer.save(os.path.join(workdir, "spans.npz"))
        lines.append(f"traced {len(lat_t)} ops in {wall_t:.3f} s after "
                     f"{len(lat)} untraced ops in {wall:.3f} s; spans in "
                     f"{os.path.relpath(workdir, ROOT)}/spans.npz")
        lat, wall = lat + lat_t, wall + wall_t

    for i in range(min(workload.replays, len(lat))):
        checks(i, attempt(workload, state, i), timed=False)
    checks.finish()
    attempted, failed = checks.attempted, checks.failed
    run_problems.extend(checks.problems)

    lines.append(f"ops: {len(lat)} timed in {wall:.3f} s (checking excluded), "
                 f"{attempted} attempted with warm-up and replays, "
                 f"{failed} failed, fail_frac = {failed / attempted:.6g}")
    for name, m in metrics.items():
        note = f" ({len(lat)} latency samples)" if name == "op_p50_s" else ""
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if len(lat) >= 1000:
        # printed only: at least 10 samples lie beyond it, but interference
        # from outside the process moves it too much between runs to bound
        lines.append(f"op_p99_s = {np.percentile(lat, 99):.6g} s "
                     f"({len(lat)} latency samples; not in the result line)")
    for problem in run_problems:
        lines.append(f"FAILED {problem}")
    print("\n".join(lines))
    print(json.dumps({"correct": not run_problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
