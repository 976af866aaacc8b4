"""Checks on the library source itself."""

import ast
import pathlib

import qjt


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must be exceptions
    found = []
    for path in sorted(pathlib.Path(qjt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
