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


# Public module-level names that nothing in the library calls, each with
# the acceptance criterion, benchmark entry or paper-relation test that
# needs it. Anything else public must have a caller in the library.
PUBLIC_WITHOUT_LIBRARY_CALLER = {
    "compositions_of": "criteria 7 and 8 enumerate the path strips with it",
    "concat": "test_path_product_splits_into_concatenations (concatenation identity)",
    "dc_triple": "criterion 5 (deletion-contraction on strips)",
    "eval_basis": "bench/tracing.py traces qsymfunc.eval_basis",
    "hl_strip": "criterion 11 (maximal overlap gives the left-justified strip)",
    "is_minimal_ncp": "criterion 10 (minimal noncommuting paths)",
    "llt_of_graph": "test_llt_of_graph_agrees_with_direct_polynomial (graph-indexed polynomial)",
    "multiset_equal": "criterion 7 (paths classified by coarsening multiset)",
    "n_lambda": "criterion 11 (total edge weight equals n(lambda))",
    "path_graph": "criterion 7 (chromatic side of the path classification)",
    "path_p_expansion": "test_path_p_expansion_evaluates_to_chromatic (path power-sum formula)",
    "predict_dc_graphs": "criterion 5 (deletion-contraction on graphs)",
    "ribbon": "test_ribbon_product_identity and test_ribbon_equality_tracks_coarsening_multiset",
    "strip_compose": "test_composed_strips_share_polynomial",
    "total_edge_weight": "criterion 11 (total edge weight equals n(lambda))",
    "two_row_schur": "criterion 6 (two-row formula)",
    "verify_plethysm_bridge": "criterion 9 (plethysm bridge)",
}


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


def test_library_has_no_unused_private_helpers():
    """Every module-level private function or class is used somewhere in
    the library other than inside its own definition."""
    assert sorted(_uncalled(private=True).values()) == []


def test_every_public_name_has_a_library_caller_or_a_stated_need():
    """A public module-level function or class is called in the library,
    is a click command, or is on the allow-list with what needs it; an
    allow-listed name that gains a caller or goes away leaves the list."""
    uncalled = _uncalled(private=False)
    assert sorted(f"{where} {name}" for name, where in uncalled.items()
                  if name not in PUBLIC_WITHOUT_LIBRARY_CALLER) == []
    assert sorted(set(PUBLIC_WITHOUT_LIBRARY_CALLER) - set(uncalled)) == []
