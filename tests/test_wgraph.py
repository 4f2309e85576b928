import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    WeightedGraph,
    canonical_form,
    dc_triple,
    gamma_graph,
    is_isomorphic,
    llt_poly,
    parse_strip,
    pi_graph,
    predict_dc_graphs,
    realize,
)
from lltgraphs.cli import main
from lltgraphs.errors import (
    IndexOutOfRange,
    NotRealizedWithinBound,
    PreconditionViolated,
)
from lltgraphs.strips import HorizontalStrip, Row
from lltgraphs.wgraph import llt_of_graph

from oracle import brute_isomorphic

DATA = Path(__file__).parent / "data"

RUNNING = "4/0,5/4,8/5,6/1"
PARTNER = "5/4,9/5,7/2,3/0"


def load_graph(name):
    return WeightedGraph.from_json_dict(json.loads((DATA / name).read_text()))


def test_pi_graph_of_running_example():
    g = pi_graph(parse_strip(RUNNING))
    assert g.weights == (4, 1, 3, 5)
    assert g.edge_list() == [(1, 4, 3), (2, 4, 1), (3, 4, 2)]


def test_graph_json_round_trip():
    g = pi_graph(parse_strip(RUNNING))
    assert WeightedGraph.from_json_dict(g.to_json_dict()) == g
    assert g.to_json_dict() == {
        "weights": [4, 1, 3, 5],
        "edges": [[1, 4, 3], [2, 4, 1], [3, 4, 2]],
    }


@pytest.mark.parametrize(
    "weights, matrix",
    [((2.0, 1), ((0, 1), (1, 0))), ((True, 1), ((0, 1), (1, 0))),
     ((2, 1), ((0, 1.0), (1.0, 0))), ((2, 1), ((0, True), (True, 0)))],
    ids=["float-vertex", "bool-vertex", "float-edge", "bool-edge"],
)
def test_constructor_refuses_non_int_weights(weights, matrix):
    with pytest.raises(TypeError):
        WeightedGraph(weights, matrix)


def test_frozen_graph_files_match_strips():
    assert load_graph("wgraph_pair_a.json") == pi_graph(parse_strip(RUNNING))
    assert load_graph("wgraph_pair_b.json") == pi_graph(parse_strip(PARTNER))


def test_isomorphism_of_running_pair():
    a = load_graph("wgraph_pair_a.json")
    b = load_graph("wgraph_pair_b.json")
    assert is_isomorphic(a, b) == (2, 1, 4, 3)
    assert canonical_form(a) == canonical_form(b)


def test_isomorphism_respects_edge_weights():
    a = WeightedGraph.from_edges((1, 1), [(1, 2, 1)])
    b = WeightedGraph.from_edges((1, 1), [])
    assert is_isomorphic(a, b) is None
    assert canonical_form(a) != canonical_form(b)


def test_canonical_form_is_relabelling_invariant():
    g = pi_graph(parse_strip(RUNNING))
    perms = [(2, 1, 4, 3), (4, 3, 2, 1), (3, 1, 4, 2)]
    for perm in perms:
        weights = tuple(g.weights[perm[t] - 1] for t in range(g.n))
        edges = []
        inverse = {v: t + 1 for t, v in enumerate(perm)}
        for i, j, w in g.edge_list():
            a, b = sorted((inverse[i], inverse[j]))
            edges.append((a, b, w))
        relabelled = WeightedGraph.from_edges(weights, edges)
        assert canonical_form(relabelled) == canonical_form(g)


def test_predicted_companions_match_strip_route():
    lam = parse_strip("3/0,5/2")
    g = pi_graph(lam)
    swapped, merged = dc_triple(lam, 1)
    g1, g2 = predict_dc_graphs(g, 1, 2, 1)
    assert canonical_form(g1) == canonical_form(pi_graph(swapped))
    assert canonical_form(g2) == canonical_form(pi_graph(merged))
    # here the weights are symmetric, so the match is exact, not just
    # up to relabelling
    assert g1 == pi_graph(swapped)
    assert g2 == pi_graph(merged)


def test_predicted_companions_drop_empty_intersection():
    lam = parse_strip("1/0,2/1")
    g = pi_graph(lam)
    g1, g2 = predict_dc_graphs(g, 1, 2, 0)
    assert g2.weights == (2,)
    swapped, merged = dc_triple(lam, 1)
    assert g2 == pi_graph(merged)
    assert canonical_form(g1) == canonical_form(pi_graph(swapped))


def test_predict_dc_graphs_preconditions():
    g = pi_graph(parse_strip("3/0,5/2"))
    with pytest.raises(PreconditionViolated):
        predict_dc_graphs(g, 1, 2, 2)  # wrong stated weight
    with pytest.raises(IndexOutOfRange):
        predict_dc_graphs(g, 1, 1, 0)
    full = WeightedGraph.from_edges((2, 2), [(1, 2, 2)])
    with pytest.raises(PreconditionViolated):
        predict_dc_graphs(full, 1, 2, 2)  # edge not below both weights


def test_realize_unit_triangle():
    g = WeightedGraph.from_edges((1, 1, 1), [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    strip = realize(g)
    assert strip is not None
    assert is_isomorphic(pi_graph(strip), g) is not None


def test_realize_unit_path():
    g = WeightedGraph.from_edges((1, 1, 1), [(1, 2, 1), (2, 3, 1)])
    strip = realize(g)
    assert strip is not None
    assert canonical_form(pi_graph(strip)) == canonical_form(g)


def test_claw_is_not_realized():
    claw = WeightedGraph.from_edges(
        (1, 1, 1, 1), [(1, 2, 1), (1, 3, 1), (1, 4, 1)]
    )
    assert realize(claw, bound=4) is None
    with pytest.raises(NotRealizedWithinBound):
        llt_of_graph(claw, bound=4)


def test_llt_of_graph_agrees_with_direct_polynomial():
    lam = parse_strip("3/0,5/2")
    assert llt_of_graph(pi_graph(lam)) == llt_poly(lam, 2)


def test_gamma_graph_is_a_unit_weight_graph():
    g = gamma_graph(parse_strip("1/0,1/0"))
    assert isinstance(g, WeightedGraph)
    assert g.weights == (1, 1)
    assert g.edge_list() == [(1, 2, 1)]


@st.composite
def weighted_graphs(draw, n=None):
    """Vertex weights 1-3; each pair gets an edge weight up to the
    smaller endpoint weight, zero meaning no edge."""
    if n is None:
        n = draw(st.integers(1, 7))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    edges = [
        (i + 1, j + 1, draw(st.integers(0, min(weights[i], weights[j]))))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return WeightedGraph.from_edges(weights, edges)


def relabel(g, perm):
    """The graph with vertex v of g renamed perm[v] (0-based)."""
    weights = [0] * g.n
    for v, w in enumerate(g.weights):
        weights[perm[v]] = w
    edges = [(perm[i - 1] + 1, perm[j - 1] + 1, w) for i, j, w in g.edge_list()]
    return WeightedGraph.from_edges(weights, edges)


@st.composite
def graph_pairs(draw):
    g = draw(weighted_graphs())
    if draw(st.booleans()):
        return g, relabel(g, draw(st.permutations(range(g.n))))
    return g, draw(weighted_graphs(n=g.n))


@settings(max_examples=200)
@given(pair=graph_pairs())
def test_canonical_form_equality_matches_brute_isomorphism(pair):
    g, h = pair
    expected = brute_isomorphic(
        g.weights, g.edge_list(), h.weights, h.edge_list()
    )
    assert (canonical_form(g) == canonical_form(h)) == expected
    perm = is_isomorphic(g, h)
    if not expected:
        assert perm is None
        return
    assert relabel(g, [t - 1 for t in perm]) == h


def test_is_isomorphic_answers_a_near_miss_without_searching():
    # without comparing canonical forms first, the backtrack tries nearly
    # every bijection before giving up
    g = WeightedGraph.from_edges((1,) * 11, [])
    h = WeightedGraph.from_edges((1,) * 11, [(4, 9, 1)])
    assert is_isomorphic(g, h) is None
    assert is_isomorphic(h, g) is None


def cycles(*lengths):
    """Disjoint unit-weight cycles of the given lengths."""
    edges, base = [], 0
    for length in lengths:
        edges += [
            (base + t + 1, base + (t + 1) % length + 1, 1) for t in range(length)
        ]
        base += length
    return WeightedGraph.from_edges((1,) * base, edges)


def complete(n, weight, edge):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return WeightedGraph.from_edges((weight,) * n, [(i, j, edge) for i, j in pairs])


def matching(weight, edges):
    """Disjoint edges (2t+1, 2t+2) with the given edge weights."""
    return WeightedGraph.from_edges(
        (weight,) * (2 * len(edges)),
        [(2 * t + 1, 2 * t + 2, e) for t, e in enumerate(edges)],
    )


def lighter_edge(g, i, j):
    """g with the weight of its nonzero edge (i, j) lowered by one."""
    matrix = [list(row) for row in g.matrix]
    matrix[i - 1][j - 1] -= 1
    matrix[j - 1][i - 1] -= 1
    return WeightedGraph(g.weights, tuple(tuple(row) for row in matrix))


# a 12-row strip whose rows all have two cells
TWELVE_ROWS = HorizontalStrip(
    tuple(Row(lo, lo + 1) for lo in (2, 4, 4, 1, 2, 4, 3, 5, 4, 0, 4, 0))
)

SYMMETRIC = {
    "edgeless-10": WeightedGraph.from_edges((1,) * 10, []),
    "edgeless-12": WeightedGraph.from_edges((1,) * 12, []),
    "complete-11": complete(11, 1, 1),
    "complete-12": complete(12, 2, 2),
    "matching-12": matching(1, [1] * 6),
    "cycle-12": cycles(12),
    "two-6-cycles": cycles(6, 6),
    "four-triangles": cycles(3, 3, 3, 3),
    "cycles-3-4-5": cycles(3, 4, 5),
    "twelve-row-strip": pi_graph(TWELVE_ROWS),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_form_of_symmetric_graph_survives_relabelling(name):
    g = SYMMETRIC[name]
    rng = random.Random(name)
    form = canonical_form(g)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == form


@pytest.mark.parametrize(
    "g, h",
    [
        (cycles(12), cycles(6, 6)),
        (cycles(6, 6), cycles(4, 4, 4)),
        (cycles(6, 6), cycles(3, 3, 3, 3)),
        (
            WeightedGraph.from_edges((1,) * 12, []),
            WeightedGraph.from_edges((1,) * 12, [(3, 7, 1)]),
        ),
        (complete(12, 2, 2), lighter_edge(complete(12, 2, 2), 5, 9)),
        (matching(2, [1, 1, 1, 2, 2, 2]), matching(2, [1, 1, 2, 2, 2, 2])),
        (pi_graph(TWELVE_ROWS), lighter_edge(pi_graph(TWELVE_ROWS), 2, 3)),
    ],
    ids=[
        "cycle-12-vs-two-6-cycles",
        "two-6-cycles-vs-three-4-cycles",
        "two-6-cycles-vs-four-triangles",
        "edgeless-vs-one-edge",
        "complete-vs-one-lighter-edge",
        "matching-edge-weights",
        "twelve-row-strip-vs-one-lighter-edge",
    ],
)
def test_canonical_forms_of_near_miss_pairs_differ(g, h):
    assert canonical_form(g) != canonical_form(h)


@settings(max_examples=100)
@given(g=weighted_graphs())
def test_graph_json_text_round_trip(g):
    assert WeightedGraph.from_json_dict(json.loads(json.dumps(g.to_json_dict()))) == g


@settings(max_examples=50)
@given(
    rows=st.lists(
        st.tuples(st.integers(-2, 4), st.integers(1, 4)), min_size=1, max_size=6
    )
)
def test_pi_cli_payload_loads_back_to_the_graph(rows):
    strip = HorizontalStrip(tuple(Row(lo, lo + size - 1) for lo, size in rows))
    result = CliRunner().invoke(main, ["pi", "--strip", strip.literal])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert WeightedGraph.from_json_dict(payload) == pi_graph(strip)
