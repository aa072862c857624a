"""Checks over the repository itself: the scripts run, the exports exist and are documented, the
library holds no asserts and no unused imports, and it has one elimination loop."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, argv", [("p0_report", []), ("rank_families", ["--max-n", "4"])])
def test_script_exits_zero(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(argv) == 0
    assert capsys.readouterr().out


def test_every_exported_name_exists():
    # a name left in __all__ after its object is gone breaks `from delrank import *`
    import delrank

    assert [name for name in delrank.__all__ if not hasattr(delrank, name)] == []


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so library invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "delrank").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_function_has_a_docstring():
    import delrank

    missing = [
        name for name in delrank.__all__
        if inspect.isfunction(getattr(delrank, name)) and not inspect.getdoc(getattr(delrank, name))
    ]
    assert missing == []


def _unused_imports(source):
    """Names a module imports and never reads, except on import lines marked # noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    # no linter runs in CI; an import left behind by a removal fails here
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted((ROOT / "src" / "delrank").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_scan_sees_plain_and_marked_imports():
    source = "import os\nfrom math import gcd, lcm\nfrom .deps import f  # noqa: F401\nx = lcm(1, 2)\n"
    assert _unused_imports(source) == ["gcd:2", "os:1"]


def _step_users(source, module):
    """module.function for every function that names _step, innermost first; <module> outside any function."""
    tree = ast.parse(source)
    owner = {}
    # ast.walk is breadth first, so a nested function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                owner[node] = getattr(fn, "name", "<lambda>")
    return sorted(
        f"{module}.{owner.get(node, '<module>')}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_step") or (isinstance(node, ast.Attribute) and node.attr == "_step")
    )


def test_step_runs_only_in_the_echelon_loop():
    # one elimination loop: _echelon reduces the rows and rref clears its pivot rows back
    found = {
        user
        for path in sorted((ROOT / "src" / "delrank").glob("*.py"))
        for user in _step_users(path.read_text(), path.stem)
    }
    assert found == {"exact._echelon", "exact.rref"}


def test_step_scan_sees_calls_and_aliases():
    source = "def f(r):\n    return _step(r, r, 0)\n\ndef g():\n    h = exact._step\n    return lambda r: _step(r, r, 0)\n"
    assert _step_users(source, "m") == ["m.<lambda>", "m.f", "m.g"]
