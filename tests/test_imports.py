"""Every module of the package uses each name it imports, and none
holds an `assert` statement: `python -O` strips those, and a check the
package relies on must raise whatever the interpreter's flags.

`__init__` is exempt from the import check: its imports are the
package's public surface.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "tjdiv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that no other node reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    src = "import os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(src) == ["os", "t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_check_sees_an_assert():
    src = "def f(x):\n    assert x > 0\n    return x\nassert f(1)\n"
    assert sorted(assert_lines(src)) == [2, 4]
    assert assert_lines("x = 'assert'  # assert\n") == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_every_error_class_is_exported():
    # lloyd_cluster raises InvariantError, which the package once did
    # not export
    import tjdiv
    from tjdiv import errors

    classes = [obj for obj in vars(errors).values() if isinstance(obj, type)
               and issubclass(obj, errors.TjdivError)]
    assert errors.InvariantError in classes
    for cls in classes:
        assert cls.__name__ in tjdiv.__all__
        assert getattr(tjdiv, cls.__name__) is cls
