"""End-to-end command tests: run main() in process and parse the report."""

import dataclasses
import importlib.util
import inspect
import json
import math
import pathlib
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from tjdiv import cli, divergences, generators, kernels
from tjdiv.centroids import CentroidConfig, WeightedPointSet
from tjdiv.cli import canonical_dumps, load_dataset, main
from tjdiv.clustering import (
    SeedingConfig, estimate_bound_constants, lloyd_cluster,
    seeding_bound_experiment)
from tjdiv.divergences import KINDS, conformal_factors, total_jensen
from tjdiv.errors import ValidationError
from tjdiv.generators import BUILTIN_NAMES, make_builtin
from tjdiv.robustness import boundedness_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


# serialization


def test_canonical_dumps_shapes_and_ordering():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert canonical_dumps([True, False, None]) == "[true,false,null]"
    assert canonical_dumps(0.1) == format(0.1, ".17g")
    assert canonical_dumps(float("nan")) == "null"
    assert canonical_dumps(float("inf")) == "null"
    assert canonical_dumps(np.float64(2.5)) == "2.5"
    assert canonical_dumps(np.int64(7)) == "7"
    assert canonical_dumps(np.bool_(True)) == "true"
    assert canonical_dumps(np.array([[1.0, 2.0]])) == "[[1,2]]"
    assert canonical_dumps("a\"b") == '"a\\"b"'


def test_canonical_dumps_rejects_junk():
    with pytest.raises(ValidationError):
        canonical_dumps({1: "non-string key"})
    with pytest.raises(ValidationError):
        canonical_dumps(object())


def _canon_reference(x):
    """The item-by-item serializer that the flat-list joins replace."""
    if isinstance(x, dict):
        return "{" + ",".join(
            json.dumps(k, ensure_ascii=False) + ":" + _canon_reference(x[k])
            for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon_reference(v) for v in x) + "]"
    if isinstance(x, np.ndarray):
        return _canon_reference(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if x is None:
        return "null"
    return json.dumps(x, ensure_ascii=False)


@pytest.mark.parametrize("obj", [
    list(range(-3, 2000)),
    [2**70, 0, -1],
    [True, False, True],
    [1, True],
    [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300],
    [1, 2.5, 3],
    [np.float64(0.5), 0.25],
    [np.int64(4), 5],
    [],
    (),
    [[], [1], [1.5, float("nan")], [[2, 3], [4.0]]],
    np.array([1.5, -0.0, np.inf, 3.0]),
    np.array([[1.0, 2.0], [np.nan, 1e-310]]),
    np.arange(12).reshape(3, 4),
    np.array([True, False]),
    {"assignments": [0, 1, 1, 0], "centers": [[0.1, 0.2], [0.3, np.nan]],
     "k": 2, "flags": (None, "a")},
])
def test_canonical_dumps_matches_the_item_by_item_form(obj):
    assert canonical_dumps(obj) == _canon_reference(obj)


# divergence command


def test_divergence_matches_library(capsys):
    code, rep, _ = run_cli(capsys, "divergence", "--kind", "total-jensen",
                           "--generator", "shannon", "--p", "2", "--q", "1")
    assert code == 0
    assert set(rep) == {"command", "results", "timings"}
    g = make_builtin("shannon")
    want = total_jensen(g, 0.5, [2.0], [1.0]).value
    assert rep["results"]["value"] == pytest.approx(want, rel=1e-15)
    assert rep["results"]["rho_j"] == pytest.approx(
        conformal_factors(g, [2.0], [1.0]).rho_j, rel=1e-15)
    assert rep["command"]["subcommand"] == "divergence"
    assert rep["command"]["alpha"] == 0.5
    assert rep["timings"]["total_s"] >= 0.0
    assert "load_s" not in rep["timings"]  # no --input to load


def test_divergence_rejects_alpha_outside_unit_interval(capsys):
    code, rep, err = run_cli(capsys, "divergence", "--kind", "jensen-raw",
                             "--generator", "shannon", "--alpha", "-0.5",
                             "--p", "0.5", "--q", "1")
    assert code == 1 and rep is None
    assert "alpha must lie in [0,1], got -0.5" in err


def test_dimension_inferred_from_vectors(capsys):
    code, rep, _ = run_cli(capsys, "divergence", "--kind", "bregman",
                           "--generator", "squared-euclidean",
                           "--p", "1,2", "--q", "0,0")
    assert code == 0
    assert rep["results"]["value"] == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["divergence", "--kind", "total-jensen", "--generator", "shannon",
     "--p", "1,2", "--q", "2,1"],
    ["divergence", "--kind", "jensen-shannon", "--p", "0.2,0.8",
     "--q", "0.5,0.5"],
    ["project", "--p", "1,2", "--q", "2,1"],
    ["centroid"], ["influence", "--p", "1.0"], ["seed", "--k", "2"],
    ["cluster", "--k", "2"], ["bound-experiment", "--k", "2"],
    ["constants"]], ids=lambda v: " ".join(v[:3]))
def test_dim_is_a_usage_error_where_the_inputs_fix_it(tmp_path, capsys, argv):
    # --dim could only repeat the dimension of --p, of the file, or 1,
    # or fail later with "points have dimension 2, generator expects 3"
    if argv[0] in ("centroid", "seed", "cluster", "bound-experiment",
                   "constants"):
        argv = argv + ["--input", _write(tmp_path / "d.csv", "1,2\n2,1\n")]
    for dim in ("2", "3"):
        code, rep, err = run_cli(capsys, *argv, "--dim", dim)
        assert code == 2 and rep is None
        assert "unrecognized arguments: --dim" in err
    assert run_cli(capsys, *argv)[0] == 0


_TJ = ["--kind", "total-jensen", "--generator", "shannon"]


@pytest.mark.parametrize("argv, text", [
    (_TJ + ["--p", "1,,2", "--q", "2,1"], "vector '1,,2'"),
    (_TJ + ["--p", "1,", "--q", "2"], "vector '1,'"),
    (_TJ + ["--p", ",1", "--q", "2"], "vector ',1'"),
    (_TJ + ["--p", "", "--q", "2"], "vector ''"),
    (["--kind", "kl-gaussian", "--mu1", "0,0", "--cov1", "1,0;;0,1",
      "--mu2", "0,0", "--cov2", "1,0;0,1"], "matrix '1,0;;0,1'"),
], ids=["inner", "trailing", "leading", "empty", "matrix-row"])
def test_empty_coordinate_is_an_error(capsys, argv, text):
    # 1,,2 once read as [1, 2] and exited 0; 1, read as [1]
    code, rep, err = run_cli(capsys, "divergence", *argv)
    assert code == 1 and rep is None
    assert err == f"error: cannot parse {text}\n"


def test_negative_first_coordinate_follows_its_flag(capsys):
    # argparse took -1,2 for a flag: "argument --p: expected one argument"
    pair = ["divergence", "--kind", "bregman"]
    spaced = run_cli(capsys, *pair, "--p", "-1,2", "--q", "0,0")
    joined = run_cli(capsys, *pair, "--p=-1,2", "--q", "0,0")
    assert spaced[0] == joined[0] == 0
    assert spaced[1]["results"] == joined[1]["results"]
    assert spaced[1]["results"]["value"] == 2.5
    assert run_cli(capsys, *pair, "--p", "1,2", "--q", "-0.5,3")[0] == 0
    code, rep, _ = run_cli(capsys, "divergence", "--kind", "kl-gaussian",
                           "--mu1", "-1,0", "--cov1", "1,0;0,1",
                           "--mu2", "0,0", "--cov2", "1,0;0,1")
    assert code == 0 and rep["results"]["value"] == 0.5


@pytest.mark.parametrize("kind", ["jensen-shannon", "total-jensen-shannon"])
def test_jensen_shannon_kinds_build_shannon_once(capsys, monkeypatch, kind):
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return make_builtin(*args, **kw)

    monkeypatch.setattr(divergences, "make_builtin", counting)
    monkeypatch.setattr(cli, "make_builtin", counting)
    code, rep, _ = run_cli(capsys, "divergence", "--kind", kind,
                           "--p", "0.2,0.8", "--q", "0.5,0.5")
    assert code == 0 and rep["results"]["rho_j"] is not None
    assert calls == [("shannon", 2)]


_SHANNON_PAIR = ["--generator", "shannon", "--p", "0.2,0.3", "--q", "0.6,0.1"]


def _run_id(argv):
    return "-".join(a.lstrip("-") for a in argv
                    if a not in _SHANNON_PAIR and not a.startswith("0."))


@pytest.mark.parametrize("argv", [
    *[["divergence", "--kind", kind, *_SHANNON_PAIR]
      for kind in ("jensen-raw", "jensen-scaled", "bregman", "total-bregman",
                   "total-jensen")],
    *[["divergence", "--kind", kind, "--alpha", alpha, *_SHANNON_PAIR]
      for kind in ("jensen-scaled", "total-jensen") for alpha in ("0", "1")],
    *[["divergence", "--kind", kind, "--p", "0.2,0.8", "--q", "0.5,0.5"]
      for kind in ("jensen-shannon", "total-jensen-shannon")],
    ["project", *_SHANNON_PAIR],
], ids=_run_id)
def test_each_point_is_checked_once_per_run(capsys, monkeypatch, argv):
    # a divergence run once checked its two points 5 to 7 times, and
    # project 10 times, through public functions that re-checked them
    calls = _count_domain_checks(monkeypatch)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert 0 < len(calls) <= (4 if argv[0] == "project" else 2)


def test_empirical_influence_checks_the_sweep_once(capsys, monkeypatch):
    # every row's empirical solve once checked p and y again: 690 checks
    calls = _count_domain_checks(monkeypatch)
    code, rep, _ = run_cli(capsys, "influence", "--generator", "burg",
                           "--p", "1", "--empirical")
    assert code == 0 and len(rep["results"]["table"]) > 200
    assert len(calls) == 3


def _count_domain_checks(monkeypatch):
    """The list that every generators.ensure_domain call, from any
    tjdiv module, now appends its arguments to."""
    calls = []
    real = generators.ensure_domain

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("tjdiv")
                and getattr(mod, "ensure_domain", None) is real):
            monkeypatch.setattr(mod, "ensure_domain", counting)
    return calls


def test_eps_help_is_the_commands_own(capsys):
    # one help string once described both meanings of --eps
    assert main(["influence", "-h"]) == 0
    text = capsys.readouterr().out
    assert "outlier mass" in text and "grid" not in text
    assert main(["bound-experiment", "-h"]) == 0
    text = capsys.readouterr().out
    assert "grid" in text and "outlier mass" not in text


def test_kl_gaussian_paths(capsys):
    code, rep, _ = run_cli(capsys, "divergence", "--kind", "kl-gaussian",
                           "--mu1", "0", "--cov1", "1", "--mu2", "1",
                           "--cov2", "1")
    assert code == 0
    assert rep["results"]["value"] == pytest.approx(0.5, abs=1e-15)
    # a flag the kind reads is required, a usage error like any other
    code, _, err = run_cli(capsys, "divergence", "--kind", "kl-gaussian",
                           "--mu1", "0", "--mu2", "1")
    assert code == 2
    assert "--cov1 is required, as a flag or a config key" in err
    code, _, err = run_cli(capsys, "divergence", "--kind", "bregman",
                           "--p", "1")
    assert code == 2
    assert "--q is required, as a flag or a config key" in err


def test_ragged_matrix_is_an_error(tmp_path, capsys):
    # ragged rows, inline or in a file, once ended in a numpy traceback
    code, _, err = run_cli(capsys, "divergence", "--kind", "kl-gaussian",
                           "--mu1", "0,0", "--cov1", "1,0;1", "--mu2", "0,0",
                           "--cov2", "1,0;0,1")
    assert code == 1
    assert err == "error: covariance is not a rectangular array of numbers\n"
    bad = _write(tmp_path / "m.csv", "1,0\n0\n")
    code, _, err = run_cli(capsys, "divergence", "--kind", "total-jensen",
                           "--generator", "squared-mahalanobis", "--matrix",
                           bad, "--p", "1,2", "--q", "2,1")
    assert code == 1
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("p", ["1", "1e-320"])
@pytest.mark.parametrize("kind", ["bregman", "total-bregman"])
def test_a_bregman_gap_that_overflows_is_an_error(kind, p, capsys):
    # it was printed as value null (total-bregman) or inf, with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, err = run_cli(capsys, "divergence", "--kind", kind,
                                 "--generator", "burg", "--p", p,
                                 "--q", "1e-320")
    assert code == 1 and rep is None
    assert err == ("error: B(p:q) overflows float64: grad F at [1e-320] "
                   "or F lies beyond the float64 range\n")


def test_exit_codes_for_usage_and_domain_errors(capsys):
    code, _, _ = run_cli(capsys, "divergence", "--no-such-flag")
    assert code == 2
    code, _, _ = run_cli(capsys, "divergence")  # --kind is required
    assert code == 2
    code, _, err = run_cli(capsys, "divergence", "--kind", "bregman",
                           "--generator", "burg", "--p", "1", "--q", "0")
    assert code == 1
    assert "error:" in err


_PAIR = ["--p", "0.2,0.8", "--q", "0.5,0.5"]
_GAUSS = ["--mu1", "0", "--cov1", "1", "--mu2", "1", "--cov2", "1"]


@pytest.mark.parametrize("kind, extra, flag", [
    # generator flags on the fixed-generator kinds once went unread
    ("total-jensen-shannon", ["--generator", "burg", "--alpha", "0.9"]
     + _PAIR, "--generator"),
    ("jensen-shannon", ["--alpha", "0.3"] + _PAIR, "--alpha"),
    ("kl-gaussian", ["--alpha", "0.3"] + _GAUSS, "--alpha"),
    ("kl-gaussian", ["--matrix", "1"] + _GAUSS, "--matrix"),
    # a point pair on the Gaussian kind
    ("kl-gaussian", ["--p", "1"] + _GAUSS, "--p"),
    # Gaussian parameters on a generator kind
    ("total-jensen", ["--generator", "shannon", "--cov2", "1"] + _PAIR,
     "--cov2"),
    # alpha on the kinds that take no skew
    ("bregman", ["--generator", "shannon", "--alpha", "0.3"] + _PAIR,
     "--alpha"),
])
def test_divergence_rejects_flags_its_kind_does_not_use(
        capsys, kind, extra, flag):
    code, rep, err = run_cli(capsys, "divergence", "--kind", kind, *extra)
    assert code == 1
    assert rep is None
    assert f"does not use {flag}" in err


def test_divergence_rejects_unused_config_keys(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "generator=burg\n")
    code, _, err = run_cli(capsys, "divergence", "--config", cfg,
                           "--kind", "jensen-shannon", *_PAIR)
    assert code == 1
    assert "does not use --generator" in err


def test_divergence_echoes_no_default_for_unused_flags(capsys):
    # the defaults generator=squared-euclidean and alpha=0.5 were echoed
    # for kinds that never read them
    code, rep, _ = run_cli(capsys, "divergence", "--kind", "kl-gaussian",
                           *_GAUSS)
    assert code == 0
    assert rep["command"]["generator"] is None
    assert rep["command"]["alpha"] is None
    code, rep, err = run_cli(capsys, "divergence", "--kind", "bregman",
                             "--generator", "burg", "--p", "1", "--q", "2")
    assert code == 0
    assert rep["command"]["alpha"] is None
    assert "bregman(burg) = " in err
    code, rep, err = run_cli(capsys, "divergence", "--kind", "total-jensen",
                             "--generator", "burg", "--p", "1", "--q", "2")
    assert rep["command"]["alpha"] == 0.5
    assert "total-jensen(burg, alpha=0.5) = " in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0


# projection command


def test_project_frozen_half_square(capsys):
    code, rep, _ = run_cli(capsys, "project", "--alpha", "0.4",
                           "--p", "0", "--q", "1")
    assert code == 0
    assert rep["results"]["beta"] == pytest.approx(0.448, rel=1e-12)
    assert rep["results"]["pythagoras_residual"] == pytest.approx(0.0, abs=1e-12)


# dataset commands


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_centroid_weight_column_changes_the_answer(tmp_path, capsys):
    plain = _write(tmp_path / "plain.csv", "1.0\n4.0\n")
    weighted = _write(tmp_path / "weighted.csv", "x,weight\n1.0,9\n4.0,1\n")
    code, rep_plain, _ = run_cli(capsys, "centroid", "--input", plain)
    assert code == 0
    code, rep_w, _ = run_cli(capsys, "centroid", "--input", weighted)
    assert code == 0
    assert rep_w["results"]["center"][0] < rep_plain["results"]["center"][0]
    assert rep_plain["results"]["n_points"] == 2
    assert rep_plain["results"]["best_loss"] == min(
        rep_plain["results"]["loss_trace"])

    named = _write(tmp_path / "named.csv", "x,mass\n1.0,9\n4.0,1\n")
    code, rep_named, _ = run_cli(capsys, "centroid", "--input", named,
                                 "--weights", "mass")
    assert code == 0
    assert rep_named["results"]["center"] == rep_w["results"]["center"]


def test_centroid_report_file_holds_canonical_results(tmp_path, capsys):
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    out = tmp_path / "res.json"
    code, rep, _ = run_cli(capsys, "centroid", "--input", data,
                           "--report", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == canonical_dumps(rep["results"])


def test_centroid_report_that_cannot_be_written_is_an_error(
        tmp_path, capsys):
    # once a FileNotFoundError traceback, after the centroid was computed
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    out = tmp_path / "missing" / "res.json"
    code, rep, err = run_cli(capsys, "centroid", "--input", data,
                             "--report", str(out))
    assert code == 1 and rep is None
    assert err == (f"error: cannot write {out}: No such file or "
                   "directory\n")


def test_centroid_summary_names_the_stop_reason(tmp_path, capsys):
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    code, rep, err = run_cli(capsys, "centroid", "--input", data)
    assert code == 0 and rep["results"]["converged"] is True
    assert "(stop: converged)" in err
    code, rep, err = run_cli(capsys, "centroid", "--input", data,
                             "--outer-max", "1", "--outer-tol", "1e-300")
    assert code == 0 and rep["results"]["converged"] is False
    assert "after 1 stages (stop: max_iters)" in err
    # the stop reason and the stage records stay out of the results
    assert sorted(rep["results"]) == [
        "best_loss", "center", "converged", "iterations", "loss_trace",
        "n_points", "side"]


def test_loader_error_messages(tmp_path, capsys):
    bad_cell = _write(tmp_path / "a.csv", "x\n1.0\nfoo\n")
    code, _, err = run_cli(capsys, "centroid", "--input", bad_cell)
    assert code == 1
    assert "line 3, column 1" in err

    ragged = _write(tmp_path / "b.csv", "1,2\n3\n")
    code, _, err = run_cli(capsys, "centroid", "--input", ragged,
                           "--generator", "squared-euclidean")
    assert code == 1
    assert "line 2" in err and "columns" in err

    negw = _write(tmp_path / "c.csv", "x,weight\n1.0,2\n2.0,-1\n")
    code, _, err = run_cli(capsys, "centroid", "--input", negw)
    assert code == 1
    assert "negative weight" in err

    headerless = _write(tmp_path / "d.csv", "1.0\n2.0\n")
    code, _, err = run_cli(capsys, "centroid", "--input", headerless,
                           "--weights", "mass")
    assert code == 1
    assert "no header" in err

    code, _, err = run_cli(capsys, "centroid", "--input",
                           str(tmp_path / "missing.csv"))
    assert code == 1
    assert "no such file" in err

    empty = _write(tmp_path / "e.csv", "")
    code, _, err = run_cli(capsys, "centroid", "--input", empty)
    assert code == 1
    assert "no data rows" in err

    header_only = _write(tmp_path / "f.csv", "x\n")
    code, _, err = run_cli(capsys, "centroid", "--input", header_only)
    assert code == 1
    assert "no data rows" in err

    nonfinite = _write(tmp_path / "g.csv", "inf\n")
    code, _, err = run_cli(capsys, "centroid", "--input", nonfinite)
    assert code == 1
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ["centroid"], ["seed", "--k", "1"], ["cluster", "--k", "1"],
    ["bound-experiment", "--k", "1"], ["constants"]])
def test_missing_input_is_a_usage_error(tmp_path, capsys, argv):
    code, rep, err = run_cli(capsys, *argv)
    assert code == 2 and rep is None
    assert "--input is required" in err
    # a config file may supply it instead of the flag
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    cfg = _write(tmp_path / "c.cfg", f"input={data}\n")
    code, rep, _ = run_cli(capsys, *argv, "--config", cfg)
    assert code == 0 and rep["command"]["input"] == data


@pytest.mark.parametrize("argv, config, flag", [
    (["seed", "--rng-seed", "0"], "k=2", "k"),
    (["divergence", "--p", "2", "--q", "1"], "kind=total-jensen", "kind"),
    (["project", "--q", "1"], "p=0", "p"),
    (["project", "--p", "0"], "q=1", "q"),
    (["influence", "--ymax", "50", "--per-decade", "4"], "p=1.5", "p"),
])
def test_any_required_flag_may_come_from_a_config(
        tmp_path, capsys, argv, config, flag):
    # a config key once could not stand in for a flag argparse required
    if argv[0] == "seed":
        argv = argv + ["--input", _write(tmp_path / "d.csv", "1.0\n2.0\n")]
    code, rep, err = run_cli(capsys, *argv)
    assert code == 2 and rep is None
    assert err.startswith(f"usage: tjdiv {argv[0]} ")
    assert err.endswith(
        f"error: --{flag} is required, as a flag or a config key\n")
    cfg = _write(tmp_path / "c.cfg", config + "\n")
    code, rep, _ = run_cli(capsys, *argv, "--config", cfg)
    assert code == 0
    assert str(rep["command"][flag]) == config.partition("=")[2]


@pytest.mark.parametrize("raw, line", [
    (b"x\xe9\n1.0\n", 1),
    (b"x\n1.0\n\n2\xe9\n", 4),
    # CRLF ends one line, a bare CR one more
    (b"x\r\n1.0\r2.0\r\n\xff\r\n", 4)],
    ids=["first-line", "after-blank", "cr-endings"])
def test_non_utf8_dataset_names_file_and_line(tmp_path, capsys, raw, line):
    path = tmp_path / "latin1.csv"
    path.write_bytes(raw)
    code, _, err = run_cli(capsys, "centroid", "--input", str(path))
    assert code == 1
    assert f"{path} line {line}: not UTF-8" in err
    # a config file is read the same way
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(raw)
    ok = _write(tmp_path / "ok.csv", "1.0\n2.0\n")
    code, _, err = run_cli(capsys, "centroid", "--input", ok,
                           "--config", str(cfg))
    assert code == 1
    assert f"{cfg} line {line}: not UTF-8" in err


def test_domain_errors_carry_file_line_numbers(tmp_path, capsys):
    data = _write(tmp_path / "h.csv", "1.0\n0.0\n")  # burg rejects 0
    code, _, err = run_cli(capsys, "seed", "--input", data, "--generator",
                           "burg", "--k", "1", "--rng-seed", "0")
    assert code == 1
    assert "line 2" in err

    # the whole file is checked in one pass; the error still names the
    # first bad row's line
    rows = ["1.5,2.5"] * 4999 + ["1.5,-2.5"]
    big = _write(tmp_path / "big.csv", "\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "cluster", "--input", big, "--k", "2",
                           "--rng-seed", "0")
    assert code == 1
    assert err == (f"error: {big} line 5000: point [1.5, -2.5] is outside "
                   "the interior of shannon's domain [0.0, inf)\n")


def test_error_lines_count_blank_rows(tmp_path, capsys):
    bad_cell = _write(tmp_path / "a.csv", "1.0\n\n2.0\nfoo\n")
    code, _, err = run_cli(capsys, "centroid", "--input", bad_cell)
    assert code == 1
    assert err == f"error: {bad_cell} line 4, column 1: cannot parse 'foo'\n"

    for name, eol in (("lf.csv", "\n"), ("crlf.csv", "\r\n"),
                      ("cr.csv", "\r")):
        data = _write(tmp_path / name, eol.join(
            ["x", "1.0", "", "", "2.0", "0.0", ""]))
        code, _, err = run_cli(capsys, "cluster", "--input", data, "--k", "1",
                               "--rng-seed", "0")
        assert code == 1
        assert err == (f"error: {data} line 6: point [0.0] is outside the "
                       "interior of shannon's domain [0.0, inf)\n")


@pytest.mark.parametrize("text, weights, want", [
    ("x,weight\n1\n2\n", None, "line 2: expected 2 columns, got 1"),
    ("a,b,c\n1,2\n3,4\n", None, "line 2: expected 3 columns, got 2"),
    ("a,mass,c\n1,2\n3,4\n", "mass", "line 2: expected 3 columns, got 2"),
    ('"a",b,c\n"1",2\n', None, "line 2: expected 3 columns, got 2"),
])
def test_header_fixes_the_width(tmp_path, capsys, text, weights, want):
    data = _write(tmp_path / "w.csv", text)
    argv = ["--weights", weights] if weights else []
    code, rep, err = run_cli(capsys, "centroid", "--input", data,
                             "--generator", "squared-euclidean", *argv)
    assert code == 1 and rep is None
    assert err == f"error: {data} {want}\n"


# load_dataset on files the vectorised parse takes and files it leaves to
# the per-line parse; the expected values are the ones the item-by-item
# loader it replaced returned: (points, normalized weights) or an error
LOADER_TABLE = [
    ("headerless", "1.5,2\n3,4.25\n", None,
     ([[1.5, 2.0], [3.0, 4.25]], [0.5, 0.5])),
    ("header", "x,y\n1,2\n3,4\n", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("auto weight", "x,Weight\n1,9\n4,1\n", None,
     ([[1.0], [4.0]], [0.9, 0.1])),
    ("named weight", "a,mass,b\n1,2,3\n4,5,6\n", "mass",
     ([[1.0, 3.0], [4.0, 6.0]], [0.2857142857142857, 0.7142857142857143])),
    ("named weight without a header", "1,2\n3,4\n", "mass",
     "a weight column was requested but the file has no header"),
    ("crlf", "x,y\r\n1,2\r\n3,4\r\n", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("bare cr", "1,2\r3,4\r", None, ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("padded cells", " 1 , 2 \n\t3,4 \n", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("whitespace-only rows", "1,2\n   \n3,4\n , \n", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("quoted cells", '"1","2"\n3,"4"\n', None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("underscore digits", "1_0,2\n3,4\n", None,
     ([[10.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("unicode digits", "\u0661,2\n3,\uff14\n", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("bom first cell", "\ufeff1,2\n3,4\n", None, ([[3.0, 4.0]], [1.0])),
    ("no final newline", "1,2\n3,4", None,
     ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5])),
    ("leading blank lines", "\n\nx,y\n1,2\n", None, ([[1.0, 2.0]], [1.0])),
    ("bare cr before the data", "x\ry\n1\n", None,
     "{path} line 2, column 1: cannot parse 'y'"),
    ("separator control char", "1,2\n3\x1c,4\n", None,
     "{path} line 2, column 1: cannot parse '3'"),
    ("trailing comma", "1,2,\n3,4,\n", None,
     "{path} line 2, column 3: cannot parse ''"),
    ("hash in a cell", "x,y\n1,2#\n", None,
     "{path} line 2, column 2: cannot parse '2#'"),
    ("nan", "1,2\nnan,4\n", None, "{path} line 2, column 1: non-finite value"),
    ("inf", "1,2\n3,-inf\n", None,
     "{path} line 2, column 2: non-finite value"),
    ("overflow", "1e400,2\n", None,
     "{path} line 1, column 1: non-finite value"),
]


def test_load_dataset_needs_a_path():
    with pytest.raises(ValidationError, match="expected a file path"):
        load_dataset(None)


@pytest.mark.parametrize("name, text, weights, want", LOADER_TABLE,
                         ids=[case[0] for case in LOADER_TABLE])
def test_load_dataset_table(tmp_path, name, text, weights, want):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, str):
        with pytest.raises(ValidationError) as info:
            load_dataset(str(path), weight_column=weights)
        assert str(info.value) == want.format(path=path)
        return
    data, meta = load_dataset(str(path), weight_column=weights)
    points, normalized = want
    assert data.points.tolist() == points
    assert data.weights.tolist() == normalized
    assert meta["rows"] == len(points)
    assert meta["has_weights"] == name.endswith("weight")


def test_vectorised_and_per_line_parses_agree(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.lognormal(0.0, 2.0, size=(300, 3)) * rng.choice([-1.0, 1.0], 3)
    w = rng.uniform(0.0, 5.0, size=300)
    rows = [",".join(map(repr, r)) for r in np.column_stack([x, w]).tolist()]
    vectorised = {"lf": "\n".join(rows[:150] + [""] + rows[150:]),
                  "crlf": "\r\n".join(rows)}
    per_line = {"cr": "\r".join(rows),
                "quoted": "\n".join('"' + r.replace(",", '","') + '"'
                                    for r in rows)}
    loaded = {}
    for name, body in (*per_line.items(), *vectorised.items()):
        if name in vectorised:
            monkeypatch.setattr(cli, "_parse_rows", None)  # not reached
        path = tmp_path / f"{name}.csv"
        path.write_bytes(("a,b,c,weight\n" + body + "\n").encode("utf-8"))
        loaded[name], _ = load_dataset(str(path))
    for name, data in loaded.items():
        assert np.array_equal(data.points, x), name
        assert np.array_equal(data.weights, w / w.sum()), name


def test_seed_takes_closed_domain_points_cluster_needs_interior(
        tmp_path, capsys):
    data = _write(tmp_path / "z.csv", "1.0\n0.0\n2.0\n")
    code, _, _ = run_cli(capsys, "seed", "--input", data, "--k", "2",
                         "--rng-seed", "0")
    assert code == 0
    code, _, err = run_cli(capsys, "cluster", "--input", data, "--k", "2",
                           "--rng-seed", "0")
    assert code == 1
    assert "line 2: point [0.0] is outside the interior of shannon" in err


@pytest.mark.parametrize("cmd, extra", [
    ("seed", ["--k", "1", "--rng-seed", "0"]),
    ("cluster", ["--k", "1", "--rng-seed", "0"]),
    ("bound-experiment", ["--k", "1", "--trials", "2", "--rng-seed", "0"]),
    ("constants", []),
])
def test_commands_without_weights_reject_a_weight_column(
        tmp_path, capsys, cmd, extra):
    auto = _write(tmp_path / "auto.csv", "x,weight\n1.0,9\n4.0,1\n")
    named = _write(tmp_path / "named.csv", "x,mass\n1.0,9\n4.0,1\n")
    for argv in (["--input", auto], ["--input", named, "--weights", "mass"]):
        code, rep, err = run_cli(capsys, cmd, *argv, *extra)
        assert code == 1 and rep is None
        assert err.startswith(f"error: {cmd} does not use point weights")


def test_seed_reruns_reproduce_from_echoed_seed(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv",
                  "0.4\n0.7\n1.1\n1.6\n2.3\n3.1\n4.0\n5.2\n6.5\n8.0\n")
    code, rep1, err1 = run_cli(capsys, "seed", "--input", data, "--k", "2")
    assert code == 0
    echoed = rep1["command"]["rng_seed"]
    assert isinstance(echoed, int)
    assert f"rng_seed={echoed}" in err1
    code, rep2, _ = run_cli(capsys, "seed", "--input", data, "--k", "2",
                            "--rng-seed", str(echoed))
    assert code == 0
    assert canonical_dumps(rep1["results"]) == canonical_dumps(rep2["results"])
    idx = [c["index"] for c in rep2["results"]["centers"]]
    assert len(set(idx)) == 2


def test_cluster_command_round_trip(tmp_path, capsys):
    data = _write(tmp_path / "two.csv",
                  "1.0\n1.1\n1.2\n1.3\n9.0\n9.2\n9.4\n9.6\n")
    code, rep, err = run_cli(capsys, "cluster", "--input", data, "--k", "2",
                             "--rng-seed", "5")
    assert code == 0
    assert "(converged)" in err
    _, _, err = run_cli(capsys, "cluster", "--input", data, "--k", "2",
                        "--rng-seed", "5", "--max-rounds", "1")
    assert "in 1 rounds (stopped at max-rounds)" in err
    timings = rep["timings"]
    stages = ("parse_s", "load_s", "seed_s", "assign_s", "centroid_s")
    assert set(timings) == {"total_s", *stages}
    assert all(timings[s] >= 0.0 for s in stages)
    assert sum(timings[s] for s in stages) <= timings["total_s"]
    res = rep["results"]
    assert len(res["assignments"]) == 8
    assert len(res["centers"]) == 2
    assert res["potential"] >= 0.0
    assert len(set(res["assignments"][:4])) == 1
    assert len(set(res["assignments"][4:])) == 1


def test_constants_command_euclidean(tmp_path, capsys):
    data = _write(tmp_path / "e.csv", "-2.0\n0.5\n3.0\n")
    code, rep, _ = run_cli(capsys, "constants", "--input", data,
                           "--generator", "squared-euclidean")
    assert code == 0
    res = rep["results"]
    assert res["k1_hat"] == 1.0
    for row in res["curve"]:
        assert row["u"] == pytest.approx(2.0 * row["v"], rel=1e-14)
    # deterministic command: no seed line on stderr
    _, _, err = run_cli(capsys, "constants", "--input", data,
                        "--generator", "squared-euclidean")
    assert "rng_seed=" not in err


@pytest.mark.parametrize("cmd, key, extra", [
    ("constants", "samples", []), ("constants", "rng_seed", []),
    ("bound-experiment", "samples", ["--k", "1", "--rng-seed", "0"])])
def test_sampling_knobs_of_the_bound_constants_are_usage_errors(
        tmp_path, capsys, cmd, key, extra):
    # the constants are closed forms, which no sample count or seed
    # changes: the knob is refused, as a flag and as a config key
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    flag = "--" + key.replace("_", "-")
    code, rep, err = run_cli(capsys, cmd, "--input", data, *extra, flag, "64")
    assert code == 2 and rep is None
    assert f"unrecognized arguments: {flag} 64" in err
    cfg = _write(tmp_path / "c.cfg", f"{key}=64\n")
    code, rep, err = run_cli(capsys, cmd, "--input", data, *extra,
                             "--config", cfg)
    assert code == 2 and rep is None
    assert f"error: config key {key!r} is not a {cmd} flag" in err


def test_constants_of_one_row_are_its_gradient(tmp_path, capsys):
    # K2 once read 2, the squared slope of two samples an ulp apart
    data = _write(tmp_path / "one.csv", "1.5,2.0\n")
    code, rep, _ = run_cli(capsys, "constants", "--input", data)
    assert code == 0
    res = rep["results"]
    k2 = float(mp.log(1.5) ** 2 + mp.log(2) ** 2)  # |grad F|^2 at the row
    assert res["k2_hat"] == pytest.approx(k2, rel=1e-15)
    assert res["rho_min"] == res["rho_max"] == pytest.approx(
        1.0 / math.sqrt(1.0 + k2), rel=1e-15)
    assert res["k1_hat"] == pytest.approx(2.0 / 1.5, rel=1e-15)


def test_constants_read_a_boundary_row_as_an_infinite_bound(
        tmp_path, capsys):
    data = _write(tmp_path / "z.csv", "0.0,1.0\n1.5,2.0\n3.0,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep, _ = run_cli(capsys, "constants", "--input", data)
    assert code == 0
    res = rep["results"]
    assert res["boundary_excluded"] == 1
    # non-finite floats are written as null
    assert res["k1_hat"] is None and res["k2_hat"] is None
    # log x changes sign in both coordinates' ranges
    assert (res["rho_min"], res["rho_max"]) == (0.0, 1.0)
    assert all(row["u"] is None and row["v"] is None for row in res["curve"])


def _results_hashes():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "results_hashes.py"
    spec = importlib.util.spec_from_file_location("results_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_k2_bounds_every_pair_slope_of_the_fingerprinted_inputs(
        tmp_path, capsys):
    rh = _results_hashes()
    runs = [argv for _, argv in rh._commands(rh._datasets(str(tmp_path)))
            if argv[0] in ("constants", "bound-experiment")]
    assert len(runs) >= 10
    for argv in runs:
        code, rep, _ = run_cli(capsys, *argv)
        assert code == 0
        res = rep["results"]
        k2 = res.get("constants", res)["k2_hat"]
        k2 = math.inf if k2 is None else k2
        ns = cli._parser().parse_args(argv)
        cli._apply_config_and_defaults(ns, cli._parser())
        x = load_dataset(ns.input)[0].points
        g = cli._generator_from(ns, x.shape[1])
        i, j = np.triu_indices(len(x), 1)
        keep = np.any(x[i] != x[j], axis=1)
        slopes = kernels.chord_factors(g, x[i[keep]], x[j[keep]])[1]
        assert not len(slopes) or k2 >= slopes.max(), argv


def test_bound_experiment_single_eps(tmp_path, capsys):
    data = _write(tmp_path / "pts.csv", "0.5\n1.0\n2.0\n4.0\n8.0\n")
    code, rep, _ = run_cli(capsys, "bound-experiment", "--input", data,
                           "--k", "2", "--rng-seed", "3", "--trials", "20",
                           "--eps", "0.5")
    assert code == 0
    res = rep["results"]
    assert len(res["curve"]) == 1
    assert res["curve"][0]["eps"] == 0.5
    assert res["ratio"] >= 1.0 - 1e-12
    assert res["curve"][0]["satisfied"] is True
    timings = rep["timings"]
    stages = ("parse_s", "load_s", "table_s", "scan_s", "trials_s",
              "constants_s")
    assert set(timings) == {"total_s", *stages}
    assert all(timings[s] >= 0.0 for s in stages)
    assert sum(timings[s] for s in stages) <= timings["total_s"]


def test_bound_experiment_k1_over_the_table_budget_is_an_error(
        tmp_path, capsys):
    # C(1415, 1) passes the subset budget, but k = 1 reads the n x n table
    # too, and its C(1415, 2) = 1000405 pairs exceed the table budget
    rows = "".join(f"{1.0 + i / 1415!r}\n" for i in range(1415))
    data = _write(tmp_path / "big.csv", rows)
    code, rep, err = run_cli(capsys, "bound-experiment", "--input", data,
                             "--k", "1")
    assert code == 1 and rep is None
    assert "table budget of 1e6" in err


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    data = _write(tmp_path / "pts.csv", "0.5\n1.0\n2.0\n4.0\n8.0\n")
    cfg = _write(tmp_path / "c.cfg",
                 f"input={data}\nalpha=0.3\nrng-seed=4\n")
    runs = [("seed", "--k", "0.5"),
            ("seed", "--input", data, "--k", "3", "--rng-seed", "7"),
            ("bound-experiment", "--config", cfg, "--k", "2",
             "--trials", "5")]
    reused = [run_cli(capsys, *argv) for argv in runs]
    parser = cli._parser()
    assert cli._parser() is parser
    # a parser built afresh for each call gives the same reports
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in runs]
    assert [r[0] for r in reused] == [r[0] for r in fresh] == [2, 0, 0]
    assert reused[0][2] == fresh[0][2]
    for (_, a, _), (_, b, _) in zip(reused[1:], fresh[1:]):
        assert canonical_dumps(a["results"]) == canonical_dumps(b["results"])
        assert a["command"] == b["command"]


def test_importing_the_cli_builds_no_parser():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import tjdiv, tjdiv.cli as c; "
            "sys.exit(0 if c._PARSER is None else 3)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0


# influence command


def test_influence_empirical_table(capsys):
    code, rep, _ = run_cli(capsys, "influence", "--generator", "burg",
                           "--p", "1.0", "--ymax", "100", "--per-decade", "5",
                           "--empirical")
    assert code == 0
    res = rep["results"]
    assert res["classification"] in ("bounded-flat", "unbounded-trending")
    assert all("z_empirical" in row for row in res["table"])
    assert all(abs(row["z_empirical"] - row["z_analytic"]) < 0.05
               for row in res["table"])


def test_influence_rejects_eps_without_empirical(capsys):
    # --eps 0.9 once exited 0 and echoed an eps that was never used
    code, rep, err = run_cli(capsys, "influence", "--p", "1", "--ymax", "100",
                             "--eps", "0.9")
    assert code == 1 and rep is None
    assert err.startswith(
        "error: influence without --empirical does not use --eps")


def test_sweep_that_no_y_max_fits_is_one_error(capsys):
    # the sweep starts at 2p = 1.2 on bit: --ymax 0.9 was told to exceed
    # 1.2, and --ymax 1.5 that it lies outside [0, 1]
    for ymax in ("0.9", "1.5"):
        code, rep, err = run_cli(capsys, "influence", "--generator", "bit",
                                 "--p", "0.6", "--ymax", ymax)
        assert code == 1 and rep is None
        assert err == ("error: the sweep starts at y = 1.2, which leaves "
                       "no y_max in bit's domain [0.0, 1.0]\n")


# metric-check command


def test_metric_check_fixed_counterexample(capsys):
    code, rep, err = run_cli(capsys, "metric-check")
    assert code == 0
    res = rep["results"]
    assert res["triangle_violated"] is True
    assert res["deficiency"] == pytest.approx(0.042885833013117658, rel=1e-12)
    assert rep["command"]["rng_seed"] is None
    assert "rng_seed=" not in err
    # nor the search mode's defaults, which it never reads
    assert rep["command"]["trials"] is None and rep["command"]["dim"] is None


def test_metric_check_search_mode(capsys):
    code, rep, err = run_cli(capsys, "metric-check", "--search", "--trials",
                             "200", "--rng-seed", "77")
    assert code == 0
    res = rep["results"]
    assert res["trials"] == 200
    assert res["violations_found"] > 0
    assert res["worst_deficiency"] > 0.0
    assert "rng_seed=77" in err


@pytest.mark.parametrize("argv, flag", [
    (["--trials", "5"], "--trials"), (["--dim", "3"], "--dim"),
    (["--rng-seed", "4"], "--rng-seed")])
def test_metric_check_rejects_search_flags_without_search(capsys, argv, flag):
    # --trials 5 once exited 0 and printed the fixed counterexample
    code, rep, err = run_cli(capsys, "metric-check", *argv)
    assert code == 1 and rep is None
    assert err.startswith(
        f"error: metric-check without --search does not use {flag}")


def test_mode_flags_from_a_config_file_are_checked_too(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "eps=1e-3\n")
    code, _, err = run_cli(capsys, "influence", "--config", cfg,
                           "--p", "1.0", "--ymax", "50")
    assert code == 1 and "does not use --eps" in err
    code, rep, _ = run_cli(capsys, "influence", "--config", cfg, "--p", "1.0",
                           "--ymax", "50", "--per-decade", "4", "--empirical")
    assert code == 0 and rep["command"]["eps"] == 1e-3


@pytest.mark.parametrize("argv, name", [
    (["centroid", "--outer-tol", "nan"], "outer_tol"),
    (["cluster", "--k", "2", "--max-rounds", "-4"], "max_rounds"),
    (["seed", "--k", "2", "--rng-seed", "-3"], "rng_seed"),
    (["influence", "--p", "1.0", "--per-decade", "-5"], "per_decade"),
    (["metric-check", "--search", "--trials", "0"], "trials"),
    (["metric-check", "--search", "--dim", "1"], "dim"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_numeric_option_out_of_range_is_an_error(tmp_path, capsys, argv, name):
    # each of these once exited 0 or ended in a traceback
    if argv[0] not in ("influence", "metric-check"):
        argv = argv + ["--input", _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")]
    code, rep, err = run_cli(capsys, *argv)
    assert code == 1 and rep is None
    assert err.startswith(f"error: {name} must ")


# config files


def test_config_sets_unset_flags_only(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg",
                 "# comment\nalpha=0.3\ngenerator=burg\n")
    code, rep, _ = run_cli(capsys, "divergence", "--config", cfg,
                           "--kind", "total-jensen", "--p", "2", "--q", "1")
    assert code == 0
    g = make_builtin("burg")
    assert rep["results"]["value"] == pytest.approx(
        total_jensen(g, 0.3, [2.0], [1.0]).value, rel=1e-14)
    # explicit flag beats the config value
    code, rep, _ = run_cli(capsys, "divergence", "--config", cfg,
                           "--kind", "total-jensen", "--alpha", "0.5",
                           "--p", "2", "--q", "1")
    assert rep["command"]["alpha"] == 0.5


def test_config_rejects_unknown_and_bad_values(tmp_path, capsys):
    bogus = _write(tmp_path / "b.cfg", "bogus=1\n")
    code, _, err = run_cli(capsys, "divergence", "--config", bogus,
                           "--kind", "bregman", "--p", "1", "--q", "0.5")
    # a key that names no flag is a usage error, as such a flag is
    assert code == 2
    assert "bogus" in err

    # a value the flag would refuse is a usage error too, as the flag is
    badbool = _write(tmp_path / "bb.cfg", "empirical=maybe\n")
    code, _, err = run_cli(capsys, "influence", "--config", badbool,
                           "--p", "1.0", "--ymax", "50")
    assert code == 2
    assert err.endswith(
        "error: config key 'empirical': wants a boolean, got 'maybe'\n")

    badfloat = _write(tmp_path / "bf.cfg", "alpha=pretty-high\n")
    argv = ["divergence", "--kind", "bregman", "--p", "1", "--q", "0.5"]
    code, _, err = run_cli(capsys, *argv, "--config", badfloat)
    assert code == 2
    assert err.endswith(
        "error: config key 'alpha': invalid float value: 'pretty-high'\n")
    code, _, flag_err = run_cli(capsys, *argv, "--alpha", "pretty-high")
    assert code == 2
    assert flag_err.endswith(
        "error: argument --alpha: invalid float value: 'pretty-high'\n")


def test_config_boolean_flag(tmp_path, capsys):
    cfg = _write(tmp_path / "c.cfg", "empirical=true\neps=1e-3\n")
    code, rep, _ = run_cli(capsys, "influence", "--config", cfg,
                           "--generator", "burg", "--p", "1.0",
                           "--ymax", "50", "--per-decade", "4")
    assert code == 0
    assert all("z_empirical" in row for row in rep["results"]["table"])


@pytest.mark.parametrize("cmd, argv, config, want", [
    # side=middle once exited 0 with a "middle-sided centroid"
    ("centroid", ["--input"], "side=middle", "right, left"),
    ("centroid", ["--input"], "generator=nope", ", ".join(BUILTIN_NAMES)),
    ("divergence", ["--p", "2", "--q", "1"], "kind=nope", ", ".join(KINDS)),
])
def test_config_values_meet_the_flags_choices(
        tmp_path, capsys, cmd, argv, config, want):
    if argv == ["--input"]:
        argv = argv + [_write(tmp_path / "d.csv", "1.0\n2.0\n")]
    cfg = _write(tmp_path / "c.cfg", config + "\n")
    key, _, value = config.partition("=")
    explicit = {"side": "left", "generator": "burg", "kind": "bregman"}[key]
    code, _, flag_err = run_cli(capsys, cmd, *argv, f"--{key}", value)
    assert code == 2
    # the flag's own choices check, and its message, name the config key
    want_line = flag_err.splitlines()[-1].replace(
        f"argument --{key}:", f"config key {key!r}:")
    assert all(c in want_line for c in want.split(", "))
    # the whole file is checked, also a key that an explicit flag overrides
    for extra in ([], [f"--{key}", explicit]):
        code, rep, err = run_cli(capsys, cmd, *argv, *extra, "--config", cfg)
        assert code == 2 and rep is None
        assert err.splitlines()[-1] == want_line


def test_config_key_given_twice_is_an_error(tmp_path, capsys):
    # the later of the two once won without a word
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    cfg = _write(tmp_path / "c.cfg", "rng-seed=1\n# again\nrng_seed=2\n")
    code, rep, err = run_cli(capsys, "seed", "--input", data, "--k", "1",
                             "--config", cfg)
    assert code == 1 and rep is None
    assert err == (f"error: {cfg} line 3: config key 'rng_seed' repeats "
                   "line 1\n")


def test_config_line_without_equals_is_an_error(tmp_path, capsys):
    data = _write(tmp_path / "d.csv", "1.0\n2.0\n4.0\n")
    cfg = _write(tmp_path / "c.cfg", "# k first\nk 1\n")
    code, rep, err = run_cli(capsys, "seed", "--input", data, "--k", "1",
                             "--config", cfg)
    assert code == 1 and rep is None
    assert err == f"error: {cfg} line 2: expected key=value\n"


def _library_defaults(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)}
    params = inspect.signature(obj).parameters
    return {n: p.default for n, p in params.items()}


@pytest.mark.parametrize("argv, echoed", [
    (["centroid"], {"alpha": (CentroidConfig, "alpha"),
                    "inner_iters": (CentroidConfig, "inner_cccp_iters"),
                    "outer_tol": (CentroidConfig, "outer_tol"),
                    "outer_max": (CentroidConfig, "outer_max_iters")}),
    (["cluster", "--k", "1"], {
        "alpha": (SeedingConfig, "alpha"),
        "inner_iters": (CentroidConfig, "inner_cccp_iters"),
        "outer_tol": (CentroidConfig, "outer_tol"),
        "outer_max": (CentroidConfig, "outer_max_iters"),
        "max_rounds": (lloyd_cluster, "max_rounds")}),
    (["bound-experiment", "--k", "1", "--trials", "2"], {
        "alpha": (SeedingConfig, "alpha")}),
    (["constants"], {}),
    (["influence", "--p", "1.0", "--ymax", "10"], {
        "per_decade": (boundedness_sweep, "per_decade")}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_echoed_defaults_are_the_library_defaults(
        tmp_path, capsys, argv, echoed):
    if argv[0] != "influence":
        argv = argv + ["--input", _write(tmp_path / "d.csv", "1.0\n2.0\n")]
    code, rep, _ = run_cli(capsys, *argv)
    assert code == 0
    for flag, (owner, name) in echoed.items():
        assert rep["command"][flag] == _library_defaults(owner)[name], flag
    # cluster's one alpha serves both its configs
    assert CentroidConfig.alpha == SeedingConfig.alpha


def test_empirical_influence_packs_no_checked_point_set(capsys, monkeypatch):
    # each row's solve packed its pair with WeightedPointSet.make
    made = []
    real = WeightedPointSet.make
    monkeypatch.setattr(WeightedPointSet, "make", classmethod(
        lambda cls, *args: made.append(args) or real(*args)))
    code, rep, _ = run_cli(capsys, "influence", "--generator", "burg",
                           "--p", "1", "--empirical")
    assert code == 0 and len(rep["results"]["table"]) > 200
    assert made == []


def test_seed_checks_its_file_once(tmp_path, capsys, monkeypatch):
    # the loader checked the rows, then the seeding checked them again
    data = _write(tmp_path / "z.csv", "1.0\n0.0\n2.0\n4.0\n")
    calls = _count_domain_checks(monkeypatch)
    code, _, _ = run_cli(capsys, "seed", "--input", data, "--k", "2",
                         "--rng-seed", "0")
    assert code == 0 and len(calls) == 1


def test_centroid_weights_whose_sum_overflows(tmp_path, capsys):
    # the weights came out 0 and the run ended in numpy's LinAlgError
    results = []
    for w in ("1e308", "1"):
        data = _write(tmp_path / "w.csv", f"x,weight\n1.0,{w}\n3.0,{w}\n")
        code, rep, _ = run_cli(capsys, "centroid", "--generator",
                               "squared-euclidean", "--input", data)
        assert code == 0
        results.append(rep["results"])
    assert results[0] == results[1]


def test_influence_checks_p_before_the_sweep_range(capsys):
    # a p outside the domain was reported as a sweep-range error
    code, rep, err = run_cli(capsys, "influence", "--generator", "bit",
                             "--p=-1")
    assert code == 1 and rep is None
    assert err.startswith("error: point [-1.0] is outside the interior "
                          "of bit's domain [0.0, 1.0]")
