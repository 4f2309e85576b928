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


def test_only_qsymfunc_reads_coefficient_maps():
    """QPoly, SymFunc and BasisExpansion keep their coefficient maps to
    qsymfunc.py; other modules read them through coeff, items and terms."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if path.name != "qsymfunc.py" and isinstance(node, ast.Attribute)
        and node.attr in ("_coeffs", "_coords")
    ]
    assert found == []


# Public module-level names, and public methods as Class.name, that nothing
# in the library calls yet, each with the ROADMAP item or benchmark file
# that will call it. Anything else public must have a caller in the
# library; closed forms that only tests compare against live in
# tests/formulas.py.
PUBLIC_WITHOUT_LIBRARY_CALLER = {
    "dc_triple": "ROADMAP item 5 (proof certificates); criterion 5 checks it",
    "eval_basis": "bench/tracing.py traces qsymfunc.eval_basis (ROADMAP item 1)",
    "llt_of_graph": "ROADMAP items 3 and 4 (llt --graph, deletion-contraction on graphs)",
    "predict_dc_graphs": "ROADMAP item 4 (deletion-contraction on graphs)",
    "verify_plethysm_bridge": "ROADMAP item 9 (the bridge far past the sweeps); criterion 9",
}


def test_every_allow_listed_name_says_which_roadmap_item_or_bench_file_needs_it():
    assert sorted(name for name, why in PUBLIC_WITHOUT_LIBRARY_CALLER.items()
                  if not why.startswith(("ROADMAP item", "bench/"))) == []


def test_every_name_in_all_resolves_on_the_package():
    """A name left in __all__ after its definition moves away fails only
    on `from lltgraphs import *`, so check each one directly."""
    assert [name for name in lltgraphs.__all__ if not hasattr(lltgraphs, name)] == []


def _click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _module_aliases(tree) -> set[str]:
    """Names bound to package modules, as by `from . import compositions
    as comps`."""
    modules = {path.stem for path in SOURCES}
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names if alias.name in modules
    }


def _uncalled(private: bool) -> dict[str, str]:
    """Module-level functions and classes, private or public ones, that no
    name in the library refers to outside their own definition; an
    attribute counts only on a package module alias, as in comps.compose,
    so a method of the same name is no use. Imports and __all__ strings
    do not count. Click commands are called by click."""
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _module_aliases(tree)
        for top in tree.body:
            own = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and own.startswith("_") == private and not _click_command(top)):
                defined[own] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in aliases):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    assert defined
    return {name: where for name, where in defined.items() if name not in used}


def _attributes(node, within=()):
    """(name, names of the functions around it) of each attribute under node."""
    if isinstance(node, ast.Attribute):
        yield node.attr, within
    if isinstance(node, ast.FunctionDef):
        within += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _attributes(child, within)


def _uncalled_methods() -> dict[str, str]:
    """Public methods and properties of module-level classes, as
    Class.name, whose name no attribute in the library reads outside a
    function of that name; an attribute on any object counts, so a
    method is kept whenever some other object's member shares its name."""
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{top.name}.{item.name}"] = f"{path.name}:{item.lineno}"
        used.update(name for name, within in _attributes(tree) if name not in within)
    assert defined
    return {name: where for name, where in defined.items()
            if name.split(".")[1] not in used}


def test_library_has_no_unused_private_helpers():
    """Every module-level private function or class is used somewhere in
    the library other than inside its own definition."""
    assert sorted(_uncalled(private=True).values()) == []


def test_every_public_name_has_a_library_caller_or_a_stated_need():
    """A public module-level function or class, or a public method or
    property, is called in the library, is a click command, or is on the
    allow-list with what needs it; an allow-listed name that gains a
    caller or goes away leaves the list."""
    uncalled = _uncalled(private=False) | _uncalled_methods()
    assert sorted(f"{where} {name}" for name, where in uncalled.items()
                  if name not in PUBLIC_WITHOUT_LIBRARY_CALLER) == []
    assert sorted(set(PUBLIC_WITHOUT_LIBRARY_CALLER) - set(uncalled)) == []
