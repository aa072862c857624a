"""Checks over the repository itself: the scripts run, the exports exist, and the library holds no asserts."""

import ast
import importlib.util
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
