import ast
from pathlib import Path

import lltgraphs

SOURCES = sorted(Path(lltgraphs.__file__).parent.rglob("*.py"))


def test_library_has_no_assert_statements():
    """`python -O` strips `assert`, so library control flow must raise
    typed errors instead."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
