"""Source-level rules for the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import frcodes

SOURCES = sorted(Path(frcodes.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so none may carry behaviour.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
