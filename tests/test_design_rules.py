"""Rules that hold for every module of the library."""

import ast
from pathlib import Path

import quantoid

SOURCES = sorted(Path(quantoid.__file__).parent.glob("*.py"))


def test_no_assert_or_debug_in_library():
    # python -O strips both, so with either the library would not run the
    # same code under -O
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert len(SOURCES) >= 10 and found == []
