"""Rules on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ulklab"


def test_no_assert_in_the_package():
    # runtime invariants raise typed errors: `python -O` strips asserts
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
