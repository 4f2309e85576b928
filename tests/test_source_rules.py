import ast
from pathlib import Path

import lltgraphs

SOURCES = sorted(Path(lltgraphs.__file__).parent.rglob("*.py"))


def _library_nodes():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    """`python -O` strips `assert`, so library control flow must raise
    typed errors instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_float_literals():
    """All arithmetic is exact: no float constant and no call to float."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert found == []


def test_library_has_no_unused_private_helpers():
    """Every module-level private function or class is used somewhere in
    the library other than inside its own definition."""
    defined, used = {}, set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                defined[own] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    assert defined
    assert sorted(where for name, where in defined.items() if name not in used) == []
