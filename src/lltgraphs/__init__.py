"""Exact arithmetic for horizontal-strip polynomials, the weighted interval
graphs that control them, their chromatic relatives, and batch
verification of the graph-determines-polynomial property."""

__version__ = "0.1.0"

from .compositions import (
    coarsening_multiset,
    coarsenings,
    compose,
    format_composition,
    near_concat,
    parse_composition,
)
from .qsymfunc import BasisExpansion, QPoly, SymFunc, eval_basis, to_basis
from .strips import (
    HorizontalStrip,
    Row,
    commute_swap,
    commutes,
    cycle,
    dc_triple,
    m_ij,
    parse_strip,
    prec,
    rotate,
    strip_of_composition,
    translate,
)
from .llt import llt_poly
from .wgraph import (
    WeightedGraph,
    canonical_form,
    gamma_graph,
    is_isomorphic,
    llt_of_graph,
    pi_graph,
    predict_dc_graphs,
    realize,
)
from .chromatic import (
    chrom_quasisym,
    extended_chromatic,
    path_llt_h_expansion,
    verify_plethysm_bridge,
)
from .structure import (
    apply_move,
    find_minimal_ncp,
    is_nesting,
    is_strict_pair,
    local_rotate,
    similarity_witness,
    strict_pairs,
    strict_sequences,
)

__all__ = [
    "__version__",
    "BasisExpansion",
    "HorizontalStrip",
    "QPoly",
    "Row",
    "SymFunc",
    "WeightedGraph",
    "apply_move",
    "canonical_form",
    "chrom_quasisym",
    "coarsening_multiset",
    "coarsenings",
    "commute_swap",
    "commutes",
    "compose",
    "cycle",
    "dc_triple",
    "eval_basis",
    "extended_chromatic",
    "find_minimal_ncp",
    "format_composition",
    "gamma_graph",
    "is_isomorphic",
    "is_nesting",
    "is_strict_pair",
    "llt_of_graph",
    "llt_poly",
    "local_rotate",
    "m_ij",
    "near_concat",
    "parse_composition",
    "parse_strip",
    "path_llt_h_expansion",
    "pi_graph",
    "prec",
    "predict_dc_graphs",
    "realize",
    "rotate",
    "similarity_witness",
    "strict_pairs",
    "strict_sequences",
    "strip_of_composition",
    "to_basis",
    "translate",
    "verify_plethysm_bridge",
]
