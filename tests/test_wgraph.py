import itertools
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
    NotRealizable,
    ParseError,
    PreconditionViolated,
)
from lltgraphs.strips import HorizontalStrip, Row
from lltgraphs.llt import llt_input
from lltgraphs.qsymfunc import partitions_of
from lltgraphs.wgraph import llt_of_graph

from formulas import graph_of_input
from oracle import brute_isomorphic, m_pair as oracle_m_pair

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


@pytest.mark.parametrize(
    "weights, matrix, message",
    [
        ((), (), "graph needs at least one vertex"),
        ((1, 1), ((0,),), "edge matrix shape must match vertex count"),
        ((1, 1), ((0, 0), (0,)), "edge matrix shape must match vertex count"),
        ((2, 0), ((0, 0), (0, 0)), "vertex weights must be positive"),
        ((2, 2), ((0, 1), (1, 1)), "diagonal must be zero"),
        ((2, 2), ((0, 1), (2, 0)), "edge matrix must be symmetric"),
        ((2, 2, 2), ((0, 0, 0), (0, 0, 0), (1, 0, 0)), "edge matrix must be symmetric"),
        ((2, 2), ((0, -1), (-1, 0)), "edge weights must be nonnegative"),
        ((3, 2, 4), ((0, 0, 0), (0, 0, 3), (0, 3, 0)), "edge (2,3) weight 3 exceeds vertex weights"),
    ],
    ids=["empty", "short-matrix", "short-row", "vertex-weight-0", "diagonal",
         "asymmetric", "lower-triangle-only", "negative-edge", "edge-above-vertex-weight"],
)
def test_constructor_names_the_first_fault(weights, matrix, message):
    with pytest.raises(ValueError) as info:
        WeightedGraph(weights, matrix)
    assert str(info.value) == message


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
    g1, g2 = predict_dc_graphs(g, 1, 2)
    assert canonical_form(g1) == canonical_form(pi_graph(swapped))
    assert canonical_form(g2) == canonical_form(pi_graph(merged))
    # here the weights are symmetric, so the match is exact, not just
    # up to relabelling
    assert g1 == pi_graph(swapped)
    assert g2 == pi_graph(merged)


def test_predicted_companions_drop_empty_intersection():
    lam = parse_strip("1/0,2/1")
    g = pi_graph(lam)
    g1, g2 = predict_dc_graphs(g, 1, 2)
    assert g2.weights == (2,)
    swapped, merged = dc_triple(lam, 1)
    assert g2 == pi_graph(merged)
    assert canonical_form(g1) == canonical_form(pi_graph(swapped))


def test_predict_dc_graphs_preconditions():
    g = pi_graph(parse_strip("3/0,5/2"))
    with pytest.raises(IndexOutOfRange, match="^need two distinct vertices$"):
        predict_dc_graphs(g, 1, 1)
    for i, j in ((0, 1), (1, 3), (3, 1)):
        with pytest.raises(IndexOutOfRange, match=r"^vertex index not in 1\.\.2$"):
            predict_dc_graphs(g, i, j)
    full = WeightedGraph.from_edges((2, 2), [(1, 2, 2)])
    with pytest.raises(PreconditionViolated):
        predict_dc_graphs(full, 1, 2)  # edge not below both weights


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
    assert realize(claw) is None
    with pytest.raises(NotRealizable, match="^no horizontal strip has this graph$"):
        llt_of_graph(claw)


@pytest.mark.parametrize("n", [4, 5])
def test_unit_cycle_is_not_realized(n):
    cycle = WeightedGraph.from_edges((1,) * n, [(i, i % n + 1, 1) for i in range(1, n + 1)])
    assert realize(cycle) is None


@pytest.mark.parametrize(
    "edges", [[(1, 2, 1), (2, 1, 2)], [(1, 2, 1), (1, 2, 0)], [(1, 3, 1), (1, 3, 1)]],
    ids=["reversed-pair", "zero-weight-repeat", "same-weight-repeat"],
)
def test_from_edges_refuses_a_pair_given_twice(edges):
    with pytest.raises(ValueError, match=r"edge \(1, [23]\) given more than once"):
        WeightedGraph.from_edges((2, 2, 2), edges)
    payload = {"weights": [2, 2, 2], "edges": [list(e) for e in edges]}
    with pytest.raises(ParseError, match="given more than once"):
        WeightedGraph.from_json_dict(payload)


def test_realize_decides_every_graph_of_total_weight_at_most_4():
    """realize's docstring proves its offset window complete. Here every
    graph of total weight n <= 4, weights sorted, is checked against all
    strips of those row sizes with row starts in 0..3n-1: their graphs,
    read with the oracle's pairing and closed under relabelling, are
    exactly the graphs realize finds a strip for."""
    graphs = refused = 0
    for n in range(1, 5):
        for weights in partitions_of(n):
            pairs = list(itertools.combinations(range(len(weights)), 2))
            labelled = set()
            for sizes in set(itertools.permutations(weights)):
                for starts in itertools.product(range(3 * n), repeat=len(sizes)):
                    rows = [(lo, lo + size - 1) for lo, size in zip(starts, sizes)]
                    labelled.add((sizes, tuple(oracle_m_pair(rows[i], rows[j])
                                               for i, j in pairs)))
            found_by_brute = set()
            for sizes, edges in labelled:
                edge = dict(zip(pairs, edges))
                for perm in itertools.permutations(range(len(sizes))):
                    if tuple(sizes[v] for v in perm) == weights:
                        found_by_brute.add(tuple(edge[min(perm[a], perm[b]), max(perm[a], perm[b])]
                                                 for a, b in pairs))
            ranges = [range(min(weights[i], weights[j]) + 1) for i, j in pairs]
            for edges in itertools.product(*ranges):
                g = WeightedGraph.from_edges(
                    weights, [(i + 1, j + 1, w) for (i, j), w in zip(pairs, edges)])
                strip = realize(g)
                graphs += 1
                refused += strip is None
                assert (strip is not None) == (edges in found_by_brute), g
                if strip is not None:
                    rows = [(r.lo, r.hi) for r in strip.rows]
                    assert brute_isomorphic(
                        g.weights, g.edge_list(), strip.sizes,
                        [(i + 1, j + 1, oracle_m_pair(rows[i], rows[j]))
                         for i, j in itertools.combinations(range(len(rows)), 2)])
    assert (graphs, refused) == (93, 7)


def test_llt_of_graph_agrees_with_direct_polynomial():
    lam = parse_strip("3/0,5/2")
    assert llt_of_graph(pi_graph(lam)) == llt_poly(lam, 2)


def test_gamma_graph_is_a_unit_weight_graph():
    g = gamma_graph(parse_strip("1/0,1/0"))
    assert isinstance(g, WeightedGraph)
    assert g.weights == (1, 1)
    assert g.edge_list() == [(1, 2, 1)]


def reference_gamma_graph(strip):
    """The cell pairs that can invert, stated on contents: cells in
    decreasing content order, later row first within one content, joined
    when they share a content or the earlier row's is one higher."""
    cells = sorted(((r.lo, i) for i, r in enumerate(strip.rows)), reverse=True)
    edges = [(a + 1, b + 1, 1)
             for a, (ca, ra) in enumerate(cells) for b, (cb, rb) in enumerate(cells)
             if a < b and (ca == cb or ca == cb + 1 and ra < rb)]
    return WeightedGraph.from_edges((1,) * len(cells), edges)


def test_gamma_graph_matches_the_content_rule_on_every_small_strip():
    strips = [HorizontalStrip(tuple(Row(c, c) for c in contents))
              for n in range(1, 7) for contents in itertools.product(range(4), repeat=n)]
    assert len(strips) == 5460
    assert [s for s in strips if gamma_graph(s) != reference_gamma_graph(s)] == []


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(st.integers(-2, 6), st.integers(1, 4)), min_size=1, max_size=7))
def test_pi_graph_is_read_from_the_engine_input(rows):
    """pi_graph's docstring: each pair's weight is a count of mask bits
    between the two rows, which the bits themselves pick, so strips with
    equal llt_input have equal labelled graphs."""
    strip = HorizontalStrip(tuple(Row(lo, lo + size - 1) for lo, size in rows))
    sizes, out = llt_input(strip)
    assert pi_graph(strip).weights == sizes
    assert pi_graph(strip).matrix == graph_of_input(sizes, out)


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
def small_strips(draw, max_rows=6):
    """1-max_rows rows of 1-3 cells, every content in 0..6."""
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        lo = draw(st.integers(0, 6))
        size = draw(st.integers(1, min(3, 7 - lo)))
        rows.append(Row(lo, lo + size - 1))
    return HorizontalStrip(tuple(rows))


@settings(max_examples=100)
@given(strip=small_strips(), data=st.data())
def test_realize_finds_a_strip_for_a_relabelled_strip_graph(strip, data):
    g = pi_graph(strip)
    found = realize(relabel(g, data.draw(st.permutations(range(g.n)))))
    assert found is not None
    assert canonical_form(pi_graph(found)) == canonical_form(g)


@settings(max_examples=40)
@given(strip=small_strips(max_rows=5), data=st.data())
def test_llt_of_graph_of_a_relabelled_strip_graph_is_the_strip_polynomial(strip, data):
    """The paper's theorem through the graph alone: any relabelling of a
    strip's graph indexes the strip's own polynomial."""
    g = relabel(pi_graph(strip), data.draw(st.permutations(range(strip.n))))
    assert llt_of_graph(g) == llt_poly(strip, strip.n)


def test_twin_rule_reads_labels():
    """A 10-cycle of weight-2 edges with a weight-1 perfect matching.
    Every vertex sees one edge of weight 1 and two of weight 2, so
    refinement leaves one cell. Vertices 2 and 4 both see 1, 3 and 5,
    with other weights, and no automorphism maps one to the other. A
    twin rule in least_reading blind to labels would skip whichever of
    them comes second, and give this graph and the copy with the two
    swapped different forms."""
    cycle = [(i, i % 10 + 1, 2) for i in range(1, 11)]
    matching = [(2, 5, 1), (3, 10, 1), (4, 1, 1), (6, 8, 1), (9, 7, 1)]
    g = WeightedGraph.from_edges((2,) * 10, cycle + matching)
    swapped = relabel(g, [0, 3, 2, 1, 4, 5, 6, 7, 8, 9])
    assert swapped != g
    assert canonical_form(swapped) == canonical_form(g)


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


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda g: g.edge(0, 1), IndexOutOfRange),
        (lambda g: g.edge(1, 3), IndexOutOfRange),
        (lambda g: WeightedGraph.from_edges((1, 1), [(2, 2, 1)]), ValueError),
        (lambda g: WeightedGraph.from_edges((1, 1), [(1, 3, 1)]), ValueError),
        (lambda g: predict_dc_graphs(g, 1, 3), IndexOutOfRange),
    ],
    ids=["edge-below", "edge-above", "loop", "endpoint-out-of-range",
         "dc-vertex-out-of-range"],
)
def test_error_paths(call, error):
    with pytest.raises(error):
        call(WeightedGraph.from_edges((2, 2), [(1, 2, 1)]))
