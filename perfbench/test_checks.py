"""Tests of the benchmark itself: the output checks accept tjdiv's output
and catch a perturbed one, traced counts repeat exactly, and
BENCHMARK.json matches the code.

    python3 -m pytest -q perfbench/test_checks.py

Workloads are shrunk here (fewer rows) to keep the tests quick; the
checks are the same code the benchmark runs.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _small(cls, **sizes):
    w = cls()
    for key, val in sizes.items():
        setattr(w, key, val)
    return w


def _one_op(w, tmp_path, seed=5):
    inputs = w.make_inputs(seed, str(tmp_path))
    return inputs, w.op(w.construct(inputs), 0)


def _edit_results(text, edit):
    rep = json.loads(text)
    edit(rep["results"])
    return json.dumps(rep, sort_keys=True, separators=(",", ":"))


def test_cluster_check(tmp_path):
    w = _small(wl.Cluster20k, n=2000)
    inputs, out = _one_op(w, tmp_path)
    w.check(inputs, out)

    res = json.loads(out)["results"]
    x, centers = inputs["x"], np.asarray(res["centers"])
    d = wl.ref.divergence_matrix(wl.ref.shannon_f, wl.ALPHA, x, centers)
    worst = int(np.argmax(d.max(axis=1) - d.min(axis=1)))

    def misassign(r):
        r["assignments"][worst] = int(np.argmax(d[worst]))

    def scale_potential(r):
        r["potential"] *= 1.0 + 1e-7

    for edit in (misassign, scale_potential):
        with pytest.raises(wl.CheckFailed):
            w.check(inputs, _edit_results(out, edit))


def test_centroid_check(tmp_path):
    w = _small(wl.CentroidWide, n=2000)
    inputs, res = _one_op(w, tmp_path)
    w.check(inputs, res)

    moved = res.center.copy()
    moved[0] *= 1.01
    trace = list(res.loss_trace)
    trace[int(np.argmin(trace))] *= 1.0 - 1e-7
    for bad in (dataclasses.replace(res, center=moved),
                dataclasses.replace(res, loss_trace=trace)):
        with pytest.raises(wl.CheckFailed):
            w.check(inputs, bad)


def test_seed_draw_checks(tmp_path):
    w = wl.SeedDraws()
    inputs = w.make_inputs(5, str(tmp_path))
    state = w.construct(inputs)
    counts = w.new_tally()
    for i in range(4000):
        idx = w.op(state, i)
        w.check(inputs, idx)
        w.tally(counts, idx)
    w.check_all(inputs, counts)

    with pytest.raises(wl.CheckFailed):
        w.check(inputs, np.array([3, 3]))
    # a run's worth of draws: the exact expectation passes, and moving a
    # tenth of one pair's draws to another pair fails
    expected = 95000 * w.pair_probabilities(inputs["y"])
    w.check_all(inputs, expected)
    biased = expected.copy()
    biased[2, 0] += 0.1 * expected[2, 4]
    biased[2, 4] *= 0.9
    with pytest.raises(wl.CheckFailed):
        w.check_all(inputs, biased)
    # the same total with every draw starting from point 0 puts the
    # first-draw frequencies far outside 4 sigma
    skewed = np.zeros_like(counts)
    skewed[0, 1:] = counts.sum() / 4
    with pytest.raises(wl.CheckFailed):
        w.check_all(inputs, skewed)


def test_seed_pair_probabilities_sum_to_one():
    w = wl.SeedDraws()
    p = w.pair_probabilities(w.make_inputs(0, None)["y"])
    assert np.allclose(p.sum(), 1.0) and np.all(np.diag(p) == 0.0)
    assert np.allclose(p.sum(axis=1), 1.0 / len(w.points))


def test_bound_experiment_check(tmp_path):
    w = _small(wl.BoundExperiment, trials=50)
    inputs, out = _one_op(w, tmp_path)
    w.check(inputs, out)

    def scale_opt(r):
        r["opt_potential"] *= 1.0 + 1e-7

    with pytest.raises(wl.CheckFailed):
        w.check(inputs, _edit_results(out, scale_opt))


def test_repeated_seeded_ops_must_match(tmp_path):
    w = _small(wl.BoundExperiment, trials=50)
    inputs, out = _one_op(w, tmp_path)
    checks = run.Checks(w, inputs)
    checks(0, out)
    checks(1, out)
    assert (checks.attempted, checks.failed) == (2, 0)

    checks(2, _edit_results(out, lambda r: r["curve"].reverse()))
    assert checks.failed == 1 and "repeated seeded op" in checks.problems[0]


def _traced_counts(w, inputs, ops):
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = w.construct(inputs)
        for i in range(ops):
            tracer.op_id = i
            w.op(state, i)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.counts.items()
            if k.endswith(spans.EXACT_SUFFIXES)}, tracer


def test_traced_counts_repeat_and_uninstall_restores(tmp_path):
    from tjdiv import centroids, cli, clustering, generators, kernels
    originals = (cli.ensure_domain, clustering.ensure_domain,
                 cli.make_builtin, kernels.min_divergence_assign,
                 centroids.WeightedPointSet.__dict__["make"],
                 generators.Domain.contains)

    w = _small(wl.BoundExperiment, trials=20)
    inputs = w.make_inputs(5, str(tmp_path))
    first, tracer = _traced_counts(w, inputs, 2)
    second, _ = _traced_counts(w, inputs, 2)
    assert first == second
    assert first["generators.ensure_domain.calls"] == 2 * 4 * w.n
    assert first["clustering.brute_force_discrete_optimum.subsets"] == 2 * 2024

    assert tracer.self_times()["cli.main"] > 0.0
    assert (cli.ensure_domain, clustering.ensure_domain, cli.make_builtin,
            kernels.min_divergence_assign,
            centroids.WeightedPointSet.__dict__["make"],
            generators.Domain.contains) == originals


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in spans.LAYER_METRICS]
    assert bench["workloads"] == [
        {"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()]
    e2e = run.end_to_end(run.array("d", [1.0]), 1.0, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, m["unit"]) for name, m in e2e.items()]
