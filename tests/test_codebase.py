"""Checks over the repository itself: the scripts run, the exports exist and are documented, the
library holds no asserts and no unused imports, it has one elimination loop, and its integer edges
name no Fraction."""

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


def _functions_naming(source, module, name):
    """{module.qualified name: whether it names `name`} for every function; a nested function's body counts for the
    functions around it, and methods are Class.method."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[f"{module}.{qualified}"] = any(
                        (isinstance(n, ast.Name) and n.id == name) or (isinstance(n, ast.Attribute) and n.attr == name)
                        for n in ast.walk(child)
                    )
                visit(child, qualified + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


# the layers hand each other integers over one denominator; Fractions are made
# only where a public function returns rationals
INTEGER_EDGES = (
    "exact._echelon",
    "exact._int_rows",
    "exact.rref",
    "model._frame",
    "model.Frame.dependencies",
    "model._distance_matrix",
    "basis.is_affine_basis",
    "basis.classify_basicity",
    "rank.bspace_constraints",
)


def test_integer_edges_name_no_fraction():
    found = {}
    for path in sorted((ROOT / "src" / "delrank").glob("*.py")):
        found.update(_functions_naming(path.read_text(), path.stem, "Fraction"))
    # a renamed or deleted function reads None here, so it cannot drop out of the list unseen
    assert {f: found.get(f) for f in INTEGER_EDGES} == dict.fromkeys(INTEGER_EDGES, False)


def test_fraction_scan_sees_annotations_attributes_methods_and_nested_functions():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n\n"
        "class C:\n"
        "    def f(self):\n        return fractions.Fraction(1)\n\n"
        "    def g(self) -> int:\n        return 1\n\n"
        "def h(x: Fraction):\n    return x\n\n"
        "def k():\n    def inner():\n        return Fraction(1, 2)\n    return inner\n\n"
        "def z():\n    return 'Fraction'\n"
    )
    assert _functions_naming(source, "m", "Fraction") == {
        "m.C.f": True,
        "m.C.g": False,
        "m.h": True,
        "m.k": True,
        "m.k.inner": True,
        "m.z": False,
    }
