from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    QPoly,
    SymFunc,
    WeightedGraph,
    eval_basis,
    extended_chromatic,
    gamma_graph,
    llt_poly,
    coarsenings,
    near_concat,
    parse_strip,
    path_llt_h_expansion,
    pi_graph,
    strip_of_composition,
    to_basis,
    verify_plethysm_bridge,
)
import lltgraphs.chromatic as chromatic
from lltgraphs.chromatic import chrom_quasisym
from lltgraphs.errors import NotSymmetric, NotUnicellular, PreconditionViolated
from lltgraphs.qsymfunc import partitions_of
from lltgraphs.strips import HorizontalStrip, Row

from formulas import path_graph, path_p_expansion, q_coefficients, strip_compose
from oracle import brute_chrom_quasisym, brute_extended_chromatic, llt_via_colourings


def _int_terms(f):
    return {exps: c.coeff(0) for exps, c in f.terms()}


def _q_terms(f):
    return {exps: q_coefficients(c) for exps, c in f.terms()}


def _pairs(graph):
    return [(a, b) for a, b, _ in graph.edge_list()]


def test_path_graph_shape():
    g = path_graph((2, 1, 2, 3, 1))
    assert g.weights == (2, 1, 2, 3, 1)
    assert g.edge_list() == [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]
    assert path_graph((4,)).edge_list() == []


def test_path_strip_realizes_path_graph():
    # consecutive prefix rows meet in exactly one shifted cell, so the
    # interval graph is the path on the reversed parts with unit edges
    g = pi_graph(strip_of_composition((2, 1, 3)))
    assert g.weights == (3, 1, 2)
    assert g.edge_list() == [(1, 2, 1), (2, 3, 1)]


def test_single_vertex_is_power_sum():
    g = path_graph((4,))
    assert extended_chromatic(g, 3) == eval_basis("p", (4,), 3)


def test_two_vertex_path_at_two_colours():
    f = extended_chromatic(path_graph((1, 1)), 2)
    assert _int_terms(f) == {(1, 1): 2}


def test_edgeless_graph_multiplies_power_sums():
    g = WeightedGraph.from_edges((2, 3), [])
    assert extended_chromatic(g, 3) == eval_basis("p", (3, 2), 3)


@given(
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    edge_bits=st.integers(0, 2**15 - 1),
    k=st.integers(1, 4),
)
def test_extended_chromatic_matches_brute_force(weights, edge_bits, k):
    n = len(weights)
    possible = list(combinations(range(1, n + 1), 2))
    edges = frozenset(
        e for idx, e in enumerate(possible) if edge_bits >> idx & 1
    )
    # each edge at its largest allowed weight: any nonzero weight is an edge
    g = WeightedGraph.from_edges(
        weights, [(a, b, min(weights[a - 1], weights[b - 1])) for a, b in edges]
    )
    f = extended_chromatic(g, k)
    want = brute_extended_chromatic(weights, sorted(edges), k)
    assert _int_terms(f) == want


def test_path_p_expansion_two_cells():
    exp = path_p_expansion((1, 1))
    assert dict(exp.items()) == {
        (1, 1): QPoly.one(),
        (2,): QPoly.constant(-1),
    }
    assert dict(path_p_expansion((3,)).items()) == {(3,): QPoly.one()}


def test_path_p_expansion_evaluates_to_chromatic():
    for alpha in [(2, 1, 2), (1, 1, 1), (2, 2), (1, 3, 1)]:
        n = sum(alpha)
        lhs = path_p_expansion(alpha).evaluate(n)
        assert lhs == extended_chromatic(path_graph(alpha), n), alpha


def test_path_product_splits_into_concatenations():
    cache = {}

    def x(alpha):
        if alpha not in cache:
            cache[alpha] = extended_chromatic(path_graph(alpha), 6)
        return cache[alpha]

    for total_a in range(1, 5):
        for alpha in coarsenings((1,) * total_a):
            for total_b in range(1, 7 - total_a):
                for beta in coarsenings((1,) * total_b):
                    lhs = x(alpha) * x(beta)
                    rhs = x(alpha + beta) + x(near_concat(alpha, beta))
                    assert lhs == rhs, (alpha, beta)


def test_h_expansion_two_cells_alternating_sign():
    exp = path_llt_h_expansion((1, 1))
    assert dict(exp.items()) == {
        (1, 1): QPoly.q_power(1),
        (2,): QPoly({1: -1, 0: 1}),
    }
    f = exp.evaluate(2)
    assert f == llt_poly(strip_of_composition((1, 1)), 2)
    assert to_basis(f, "s").coeff((2,)) == QPoly.one()
    assert to_basis(f, "s").coeff((1, 1)) == QPoly.q_power(1)


def test_h_expansion_printed_sign_is_wrong_at_two_cells():
    printed = path_llt_h_expansion((1, 1), printed_sign=True)
    assert printed.coeff((2,)) == QPoly({1: 1, 0: -1})
    assert printed.evaluate(2) != llt_poly(strip_of_composition((1, 1)), 2)


@pytest.mark.parametrize("alpha", [(2,), (1, 1), (2, 1), (1, 2, 1), (3, 2)])
def test_h_expansion_reproduces_path_polynomial(alpha):
    exp = path_llt_h_expansion(alpha)
    n = sum(alpha)
    assert exp.evaluate(n) == llt_poly(strip_of_composition(alpha), n)


def test_cleared_path_product_identity():
    # q * G_a * G_b = G_{a.b} + (q-1) * G_{a(.)b} for single-cell a, b
    k = 2
    g1 = llt_poly(strip_of_composition((1,)), k)
    lhs = g1 * g1 * QPoly.q_power(1)
    cat = llt_poly(strip_of_composition((1, 1)), k)
    merged = llt_poly(strip_of_composition((2,)), k)
    rhs = cat + merged * QPoly({1: 1, 0: -1})
    assert lhs == rhs


def test_chrom_quasisym_single_edge():
    gamma = gamma_graph(parse_strip("1/0,1/0"))
    f = chrom_quasisym(gamma, 2)
    assert _q_terms(f) == {(1, 1): {0: 1, 1: 1}}


def test_chrom_quasisym_edgeless():
    gamma = gamma_graph(parse_strip("1/0,3/2,5/4"))
    f = chrom_quasisym(gamma, 2)
    assert f == eval_basis("h", (1, 1, 1), 2)


def test_chrom_quasisym_matches_brute_force(sweep_uni):
    for strip in sweep_uni[:60]:
        gamma = gamma_graph(strip)
        f = chrom_quasisym(gamma, 3)
        want = brute_chrom_quasisym(gamma.n, _pairs(gamma), 3)
        assert _q_terms(f) == want, strip.literal


@given(
    contents=st.lists(st.integers(0, 3), min_size=1, max_size=7),
    k=st.integers(1, 4),
)
def test_chrom_quasisym_of_gamma_graph_matches_brute_force(contents, k):
    gamma = gamma_graph(HorizontalStrip(tuple(Row(c, c) for c in contents)))
    want = brute_chrom_quasisym(gamma.n, _pairs(gamma), k)
    assert _q_terms(chrom_quasisym(gamma, k)) == want


@settings(max_examples=60)
@given(
    contents=st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)), min_size=1, max_size=6),
    k=st.integers(1, 7),
)
def test_colouring_sums_match_brute_force_between_other_dp_runs(contents, k):
    """Both colouring sums run on partition_dp, as llt_poly does. Called in
    turn on two gamma graphs with as many vertices, with a strip
    polynomial between them, each still matches brute force."""
    left, right = (HorizontalStrip(tuple(Row(c, c) for c in side)) for side in zip(*contents))
    g, h = gamma_graph(left), gamma_graph(right)
    n = len(contents)
    while k ** n > 5000:
        k -= 1
    for first, second in ((g, h), (h, g)):
        assert _int_terms(extended_chromatic(first, k)) == brute_extended_chromatic(
            first.weights, _pairs(first), k)
        assert _q_terms(chrom_quasisym(second, k)) == brute_chrom_quasisym(n, _pairs(second), k)
        assert _q_terms(llt_poly(left, k)) == llt_via_colourings(n, _pairs(g), k)


@settings(max_examples=60)
@given(
    contents=st.lists(st.integers(-2, 3), min_size=1, max_size=6),
    weights=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    k=st.integers(1, 4),
    lead=st.integers(0, 8),
)
def test_a_lead_stops_both_colouring_sums_after_the_leading_partitions(
        contents, weights, k, lead):
    """partition_dp with a lead gives, for both colouring sums, the whole
    sum's m-coordinates on the partitions whose first part is at least
    lead, and no others."""
    cells = gamma_graph(HorizontalStrip(tuple(Row(c, c) for c in contents)))
    weighted = WeightedGraph.from_edges(weights[:cells.n], cells.edge_list())
    real = chromatic.partition_dp
    for colouring_sum, graph in ((chrom_quasisym, cells), (extended_chromatic, weighted)):
        whole = colouring_sum(graph, k)
        with patch.object(chromatic, "partition_dp", lambda *args: real(*args, lead)):
            early = colouring_sum(graph, k)
        assert (early.k, early.degree) == (whole.k, whole.degree)
        for lam in partitions_of(whole.degree, k):
            exps = lam + (0,) * (k - len(lam))
            want = whole.coeff(exps) if lam[0] >= lead else QPoly.zero()
            assert early.coeff(exps) == want


def test_chrom_quasisym_refuses_or_matches_brute_force_on_small_graphs():
    graphs = [
        WeightedGraph.from_edges(
            (1,) * n, [(a, b, 1) for i, (a, b) in enumerate(pairs) if bits >> i & 1]
        )
        for n in range(1, 5)
        for pairs in [list(combinations(range(1, n + 1), 2))]
        for bits in range(2 ** len(pairs))
    ]
    assert len(graphs) == 75
    refused = 0
    for graph in graphs:
        for k in range(1, 5):
            try:
                f = chrom_quasisym(graph, k)
            except NotSymmetric:
                refused += 1
                continue
            want = brute_chrom_quasisym(graph.n, _pairs(graph), k)
            assert _q_terms(f) == want, (graph, k)
    assert 0 < refused < 4 * len(graphs)


def test_bridge_on_tiny_strips():
    assert verify_plethysm_bridge(parse_strip("1/0"))
    assert verify_plethysm_bridge(parse_strip("1/0,1/0"))
    assert verify_plethysm_bridge(parse_strip("1/0,2/1"))


def test_bridge_on_five_cell_pair():
    assert verify_plethysm_bridge(parse_strip("2/1,1/0,1/0,2/1,2/1"))
    assert verify_plethysm_bridge(parse_strip("1/0,2/1,2/1,1/0,2/1"))


def test_bridge_requires_unicellular():
    with pytest.raises(NotUnicellular, match="^2/0,1/0 has a row with more than one cell$"):
        verify_plethysm_bridge(parse_strip("2/0,1/0"))


def test_extended_chromatic_reads_nonzero_edges_as_adjacency():
    g = pi_graph(parse_strip("4/0,5/4,8/5,6/1"))
    assert g.weights == (4, 1, 3, 5)
    assert _pairs(g) == [(1, 4), (2, 4), (3, 4)]
    star = WeightedGraph.from_edges(g.weights, [(1, 4, 1), (2, 4, 1), (3, 4, 1)])
    assert g != star
    assert extended_chromatic(g, 4) == extended_chromatic(star, 4)


def test_chrom_quasisym_refuses_vertex_weights_other_than_one():
    with pytest.raises(PreconditionViolated):
        chrom_quasisym(WeightedGraph.from_edges((1, 2), [(1, 2, 1)]), 2)
    with pytest.raises(PreconditionViolated):
        chrom_quasisym(path_graph((2,)), 2)


@pytest.mark.parametrize("alpha", [(1.5, 2), (2.0, 1), (True, 1)], ids=["float", "float-integral", "bool"])
def test_path_graph_refuses_non_int_parts(alpha):
    with pytest.raises(TypeError):
        path_graph(alpha)


def test_composed_strips_share_polynomial():
    base = parse_strip("1/0,2/1")
    left = strip_compose((1, 2), base)
    right = strip_compose((2, 1), base)
    assert left != right
    assert llt_poly(left, 6) == llt_poly(right, 6)


@pytest.mark.parametrize("wrong", ["llt", "chromatic"])
def test_bridge_says_no_when_one_side_is_wrong(monkeypatch, wrong):
    """An extra m_(n) term on the strip side is not a multiple of (q-1)^n;
    a chromatic side times q is a multiple of the wrong quotient."""
    strip = parse_strip("1/0,2/1,1/0")
    assert verify_plethysm_bridge(strip)
    if wrong == "llt":
        llt = chromatic.llt_poly
        monkeypatch.setattr(chromatic, "llt_poly",
                            lambda s, k: llt(s, k) + SymFunc(k, s.n, [((s.n,), 1)]))
    else:
        chrom = chromatic.chrom_quasisym
        monkeypatch.setattr(chromatic, "chrom_quasisym",
                            lambda g, k: chrom(g, k) * QPoly.q_power(1))
    assert not verify_plethysm_bridge(strip)
