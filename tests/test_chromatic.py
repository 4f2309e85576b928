from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from lltgraphs import (
    QPoly,
    WeightedGraph,
    eval_basis,
    extended_chromatic,
    gamma_graph,
    llt_poly,
    parse_strip,
    path_graph,
    path_llt_h_expansion,
    path_p_expansion,
    pi_graph,
    strip_compose,
    strip_of_composition,
    to_basis,
    verify_plethysm_bridge,
)
from lltgraphs.chromatic import chrom_quasisym
from lltgraphs.compositions import compositions_of, concat, near_concat
from lltgraphs.errors import NotSymmetric, NotUnicellular, PreconditionViolated
from lltgraphs.strips import HorizontalStrip, Row

from oracle import brute_chrom_quasisym, brute_extended_chromatic


def _int_terms(f):
    return {exps: c.coeff(0) for exps, c in f.terms()}


def _q_terms(f):
    return {exps: dict(c.pairs()) for exps, c in f.terms()}


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
        for alpha in compositions_of(total_a):
            for total_b in range(1, 7 - total_a):
                for beta in compositions_of(total_b):
                    lhs = x(alpha) * x(beta)
                    rhs = x(concat(alpha, beta)) + x(near_concat(alpha, beta))
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
    with pytest.raises(NotUnicellular):
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
