"""Every function the benchmark's span tracer wraps still exists.

`perfbench/spans.py` patches tjdiv functions by module and attribute
name. A renamed or deleted function would break `perfbench/run.py
--trace 1` only when a traced run starts; here it fails the suite. The
tracer is loaded by path and only read, never installed.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS_MODULE = _load_spans()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in SPANS_MODULE.FUNCTIONS],
    ids=[f"{m}.{a}" for m, a, _ in SPANS_MODULE.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"tjdiv.{module}"), attr))


def test_patched_hooks_resolve():
    from tjdiv import centroids, generators
    # Tracer.install patches these three outside FUNCTIONS; make and
    # contains through the class __dict__, make_builtin in each module
    assert isinstance(vars(centroids.WeightedPointSet)["make"], classmethod)
    assert callable(vars(generators.Domain)["contains"])
    assert callable(generators.make_builtin)
    # the traced make_builtin rebuilds each generator with these fields
    fields = {f.name for f in dataclasses.fields(generators.Generator)}
    assert {"f", "grad", "grad_inverse"} <= fields
