"""Checks on the library source itself."""

import ast
import sys
from pathlib import Path

import tropi


def _trees():
    for path in sorted(Path(tropi.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_no_assert_statements():
    """Internal invariants raise typed errors: asserts vanish under -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_standard_library_imports_only():
    """The library has no runtime dependencies: every import names a
    standard-library module or is relative to the package."""
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
