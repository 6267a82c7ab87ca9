"""Checks on the library source itself."""

import ast
from pathlib import Path

import tropi


def test_no_assert_statements():
    """Internal invariants raise typed errors: asserts vanish under -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(tropi.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
