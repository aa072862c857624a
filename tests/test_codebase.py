"""Checks over the repository itself: the scripts and README's example run, the exports exist, are
documented and are named outside the tests, the library holds no asserts and no unused imports, it has one
elimination loop, and its integer edges name no Fraction."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, argv", [
    ("p0_report", []),
    ("bench_pairs", [str(ROOT), str(ROOT), "--workload", "smoke", "--pairs", "1", "--seconds", "0"]),
])
def test_script_exits_zero(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(argv) == 0
    assert capsys.readouterr().out


def test_readme_python_block_runs():
    # a public name removed from the library cannot stay in the documented example unseen
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_exported_name_exists():
    # a name left in __all__ after its object is gone breaks `from delrank import *`
    import delrank

    assert [name for name in delrank.__all__ if not hasattr(delrank, name)] == []


def _names_outside_own_def(source):
    """Every name a module reads, as a Name or an Attribute, except inside the function of that name."""
    found = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside | {child.name})
                continue
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name is not None and name not in inside:
                found.add(name)
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def test_every_exported_function_is_used_or_documented():
    # no public API that exists only so tests can call it: a library module, a script or README names each function
    import delrank

    used = {
        name
        for path in [*(ROOT / "src" / "delrank").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
        if path.name != "__init__.py"
        for name in _names_outside_own_def(path.read_text())
    }
    readme = (ROOT / "README.md").read_text()
    unused = [
        name for name in delrank.__all__
        if inspect.isfunction(getattr(delrank, name)) and name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_name_scan_skips_the_own_def_only():
    # f names itself only inside f; h is named inside g as an attribute
    source = "def f(x):\n    return f(x) + g(x)\n\ndef g(x):\n    return m.h\n\ndef h():\n    return h()\n"
    assert _names_outside_own_def(source) == {"g", "h", "m", "x"}


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


def _cancel_users(source, module):
    """module.function for every function that names _cancel, innermost first; <module> outside any function."""
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
        if (isinstance(node, ast.Name) and node.id == "_cancel")
        or (isinstance(node, ast.Attribute) and node.attr == "_cancel")
    )


def test_cancel_runs_only_in_the_echelon_loop():
    # one elimination loop: _extend grows a reduced form by one row, and every rational elimination goes through it
    found = {
        user
        for path in sorted((ROOT / "src" / "delrank").glob("*.py"))
        for user in _cancel_users(path.read_text(), path.stem)
    }
    assert found == {"exact._extend"}


def test_cancel_scan_sees_calls_and_aliases():
    source = "def f(r):\n    return _cancel(r, ())\n\ndef g():\n    h = exact._cancel\n    return lambda r: _cancel(r, ())\n"
    assert _cancel_users(source, "m") == ["m.<lambda>", "m.f", "m.g"]


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
    "exact._reduced",
    "exact._int_rows",
    "exact.rref",
    "exact._extend",
    "exact._cancel",
    "exact._scaled",
    "model.from_coords",
    "model._from_integers",
    "model._norm",
    "model._frame",
    "model._distance_matrix",
    "model._from_distances",
    "model._validate_gram_shape",
    "model._validate_distance_matrix",
    "model._is_vertex_index",
    "model._check_support",
    "deps.dependency_module",
    "deps.check_dist_system",
    "deps.check_negative_type",
    "basis.is_affine_basis",
    "basis.classify_basicity",
    "rank.bspace_constraints",
    "rank.rank_of",
    "rank.check_symmetric_reduction",
    "hyp.face_system",
    "hyp.face_dimension",
    "hyp.restricted_face_dimension",
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
