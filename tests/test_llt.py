from itertools import combinations, permutations
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    BasisExpansion,
    QPoly,
    WeightedGraph,
    extended_chromatic,
    gamma_graph,
    llt_poly,
    parse_strip,
    pi_graph,
    to_basis,
)
from lltgraphs.errors import MismatchedVariableCount, NotUnicellular, PreconditionViolated
from lltgraphs.llt import least_reading, llt_input, llt_of_input, normal_form, row_components
from lltgraphs.qsymfunc import SymFunc
from lltgraphs.strips import HorizontalStrip, Row

from formulas import mask_components, q_coefficients, two_row_schur
from oracle import brute_inversions, brute_llt, llt_via_colourings

RUNNING = "4/0,5/4,8/5,6/1"
MAX_FILLINGS = 8000


def _poly_as_nested_dict(f):
    return {exps: q_coefficients(c) for exps, c in f.terms()}


def top_q_degree(f):
    """Largest q-exponent appearing in any coefficient."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no top q-degree")
    return max(c.degree for _, c in f.terms())


def degree_multiset(graph):
    degs = [0] * graph.n
    for a, b, _ in graph.edge_list():
        degs[a - 1] += 1
        degs[b - 1] += 1
    return tuple(sorted(degs, reverse=True))


def _fillings(rows, k):
    out = 1
    for lo, hi in rows:
        out *= comb(k + hi - lo, hi - lo + 1)
    return out


def test_inversion_counts_of_worked_fillings():
    rows = [(r.lo, r.hi) for r in parse_strip(RUNNING).rows]
    assert brute_inversions(rows, ((1, 2, 2, 3), (5,), (1, 1, 3), (1, 4, 4, 4, 5))) == 5
    assert brute_inversions(rows, ((4, 4, 4, 4), (3,), (1, 1, 1), (2, 2, 2, 2, 2))) == 6


@pytest.mark.parametrize(
    "literal,k",
    [
        ("2/0", 2),
        ("1/0,1/0", 2),
        ("2/0,2/1", 3),
        ("1/0,2/1,2/0", 2),
        ("3/0,3/2", 3),
        ("4/0,5/4", 2),
        ("3/0,2/1,4/2", 5),  # more variables than rows
        (RUNNING, 1),  # every cell holds the letter 1
    ],
)
def test_llt_poly_matches_brute_enumeration(literal, k):
    strip = parse_strip(literal)
    rows = [(r.lo, r.hi) for r in strip.rows]
    assert _poly_as_nested_dict(llt_poly(strip, k)) == brute_llt(rows, k)


@st.composite
def brute_strips(draw, max_rows=5):
    """Rows (lo, hi) with contents from -3 on; half the strips are
    unicellular, the rest have rows of 1-3 cells."""
    unicellular = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        lo = draw(st.integers(-3, 4))
        rows.append((lo, lo + (0 if unicellular else draw(st.integers(0, 2)))))
    return rows


def _strip(rows):
    return HorizontalStrip(tuple(Row(lo, hi) for lo, hi in rows))


def _variables(rows, k):
    """k, lowered until brute enumeration stays small."""
    while _fillings(rows, k) > MAX_FILLINGS:
        k -= 1
    return k


@settings(max_examples=150)
@given(rows=brute_strips(), data=st.data())
def test_llt_poly_matches_brute_enumeration_on_random_strips(rows, data):
    k = _variables(rows, data.draw(st.integers(1, len(rows) + 2)))
    assert _poly_as_nested_dict(llt_poly(_strip(rows), k)) == brute_llt(rows, k)


@settings(max_examples=40)
@given(first=brute_strips(max_rows=4), data=st.data())
def test_back_to_back_strips_match_fresh_runs(first, data):
    """A strip with the same row sizes has the same cell-bitmask states,
    so anything one call left behind would show in the next."""
    los = data.draw(st.lists(st.integers(-3, 4), min_size=len(first), max_size=len(first)))
    second = [(lo, lo + hi - was) for (was, hi), lo in zip(first, los)]
    k = _variables(first, len(first))
    runs = [llt_poly(_strip(rows), k) for rows in (first, second, first, second)]
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert _poly_as_nested_dict(runs[0]) == brute_llt(first, k)
    assert _poly_as_nested_dict(runs[1]) == brute_llt(second, k)


def test_llt_poly_defaults_to_row_count():
    strip = parse_strip("2/0,2/1")
    assert llt_poly(strip) == llt_poly(strip, 2)


def test_polynomials_in_different_variable_counts_do_not_add():
    strip = parse_strip("2/0,2/1")
    with pytest.raises(MismatchedVariableCount, match="in 2 and 3 variables"):
        llt_poly(strip, 2) + llt_poly(strip, 3)


def test_llt_poly_is_symmetric():
    strip = parse_strip("3/0,3/2,4/1")
    rows = [(r.lo, r.hi) for r in strip.rows]
    assert _poly_as_nested_dict(llt_poly(strip, 3)) == brute_llt(rows, 3)


def test_top_degree_is_total_edge_weight(sweep_main, sweep_main_polys):
    for strip, f in zip(sweep_main, sweep_main_polys):
        assert top_q_degree(f) == sum(w for _, _, w in pi_graph(strip).edge_list())


def test_top_degree_of_zero_polynomial_raises():
    with pytest.raises(ValueError):
        top_q_degree(SymFunc(2, 3))


@st.composite
def theory_strips(draw, max_rows=6, max_cells=13):
    """Strips of 1 to max_rows rows and at most max_cells cells, contents
    from -3 on: many are past the brute-force oracle's reach."""
    rows, cells = [], 0
    for left in range(draw(st.integers(1, max_rows)), 0, -1):
        size = draw(st.integers(1, min(4, max_cells - cells - (left - 1))))
        lo = draw(st.integers(-3, 4))
        rows.append(Row(lo, lo + size - 1))
        cells += size
    return HorizontalStrip(tuple(rows))


@given(strip=theory_strips())
def test_llt_poly_is_schur_positive(strip):
    """Grojnowski and Haiman (2007): every LLT polynomial is a sum of
    Schur functions with coefficients in N[q]."""
    for lam, c in to_basis(llt_poly(strip), "s").items():
        assert all(a > 0 for a in q_coefficients(c).values()), (strip.literal, lam)


@given(strip=theory_strips())
def test_llt_poly_at_q_one_is_h_of_the_row_sizes(strip):
    """Haglund, Haiman and Loehr (JAMS 2005): at q = 1 the LLT
    polynomial is the product of h over the row sizes. Its top q-degree
    is the total edge weight of the graph, checked here as evidence only."""
    k = strip.n
    sizes = tuple(sorted(strip.sizes, reverse=True))
    want = BasisExpansion("h", sum(sizes), {sizes: QPoly.one()}).evaluate(k)

    def at_q_one(f):
        return {lam: c.evaluate(1) for lam, c in to_basis(f, "m").items()}

    f = llt_poly(strip, k)
    assert at_q_one(f) == at_q_one(want), strip.literal
    weight = sum(w for _, _, w in pi_graph(strip).edge_list())
    assert top_q_degree(f) == weight, strip.literal


@st.composite
def disconnected_strips(draw):
    """A theory strip of 2 or more rows with a nonempty proper subset of
    its rows moved 20 contents up, out of reach of the others."""
    strip = draw(theory_strips().filter(lambda s: s.n > 1))
    far = draw(st.sets(st.integers(0, strip.n - 1), min_size=1, max_size=strip.n - 1))
    return HorizontalStrip(tuple(r.shifted(20) if i in far else r
                                 for i, r in enumerate(strip.rows)))


@given(strip=disconnected_strips(), data=st.data())
def test_llt_poly_is_the_product_over_row_components(strip, data):
    """The components of the graph's nonzero edges are those of the
    inversion masks, and the unfactored engine's polynomial is the
    product of the polynomials of the components, rows kept in order."""
    k = data.draw(st.integers(1, strip.n))
    groups = row_components(pi_graph(strip).matrix)
    assert len(groups) > 1
    assert list(groups) == mask_components(*llt_input(strip)), strip.literal
    product = None
    for group in groups:
        f = llt_poly(HorizontalStrip(tuple(strip.rows[i] for i in group)), k)
        product = f if product is None else f * product
    assert product == llt_of_input(*llt_input(strip), k), strip.literal


def test_two_row_formula_smallest_case():
    exp = two_row_schur(2, 1, 1)
    assert dict(exp.items()) == {(3,): QPoly.one(), (2, 1): QPoly.q_power(1)}


def test_two_row_formula_caps_q_at_edge_weight():
    exp = two_row_schur(3, 2, 1)
    assert dict(exp.items()) == {
        (5,): QPoly.one(),
        (4, 1): QPoly.q_power(1),
        (3, 2): QPoly.q_power(1),
    }


def test_two_row_formula_preconditions():
    with pytest.raises(PreconditionViolated):
        two_row_schur(1, 2, 1)
    with pytest.raises(PreconditionViolated):
        two_row_schur(3, 2, 3)
    with pytest.raises(PreconditionViolated):
        two_row_schur(3, 2, -1)


def test_gamma_graph_of_five_cell_pair():
    lam = parse_strip("2/1,1/0,1/0,2/1,2/1")
    mu = parse_strip("1/0,2/1,2/1,1/0,2/1")
    g_lam = gamma_graph(lam)
    g_mu = gamma_graph(mu)
    assert g_lam.weights == g_mu.weights == (1,) * 5
    assert g_lam.edge_list() == [
        (1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)
    ]
    assert g_mu.edge_list() == [
        (1, 2, 1), (1, 3, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1), (4, 5, 1)
    ]
    assert degree_multiset(g_lam) == (4, 2, 2, 2, 2)
    assert degree_multiset(g_mu) == (3, 3, 3, 2, 1)


def test_gamma_graph_rejects_wide_rows():
    with pytest.raises(NotUnicellular):
        gamma_graph(parse_strip(RUNNING))


def test_colouring_route_agrees_with_tableau_route(sweep_uni):
    for strip in sweep_uni:
        graph = gamma_graph(strip)
        edges = [(a, b) for a, b, _ in graph.edge_list()]
        want = llt_via_colourings(graph.n, edges, 3)
        assert _poly_as_nested_dict(llt_poly(strip, 3)) == want


def test_running_example_top_coefficient():
    lam = parse_strip(RUNNING)
    exp = to_basis(llt_poly(lam, 4), "s")
    # the lone highest-q term sits on the sorted row sizes
    assert exp.coeff((5, 4, 3, 1)) == QPoly.q_power(6)


def test_llt_poly_reads_only_the_engine_input():
    """A translate, and a strip whose rows differ but whose cells invert
    alike, give the same engine input and so the same polynomial."""
    strip = parse_strip("3/0,4/2")
    # the second row's first cell sits at the first row's last content
    assert llt_input(strip) == ((3, 2), (0, 0, 0, 0b00100, 0))
    assert llt_input(parse_strip("5/2,6/4")) == llt_input(strip)
    apart = llt_input(parse_strip("1/0,3/2"))
    assert apart == ((1, 1), (0, 0))
    assert llt_input(parse_strip("1/0,5/4")) == apart
    assert llt_poly(parse_strip("1/0,5/4"), 2) == llt_of_input(*apart, 2)


def relabelled(sizes, out, order, reverse):
    """The engine input with its rows listed in order, by their old
    indices, after the reversal when reverse is true: a bit from cell p
    of row r to cell q of row s becomes one from cell size_s - 1 - q of
    row s to cell size_r - 1 - p of row r."""
    cells = [(r, p) for r, size in enumerate(sizes) for p in range(size)]
    arcs = [(cells[c], cells[d]) for c, mask in enumerate(out)
            for d in range(len(out)) if mask >> d & 1]
    if reverse:
        arcs = [((s, sizes[s] - 1 - q), (r, sizes[r] - 1 - p)) for (r, p), (s, q) in arcs]
    place = {cell: c for c, cell in enumerate((r, p) for r in order for p in range(sizes[r]))}
    masks = [0] * len(cells)
    for a, b in arcs:
        masks[place[a]] |= 1 << place[b]
    return tuple(sizes[r] for r in order), tuple(masks)


@settings(max_examples=60)
@given(rows=brute_strips(), k=st.integers(1, 4), data=st.data())
def test_a_relabelled_input_keeps_its_polynomial(rows, k, data):
    """A reordering of the rows, with or without the reversal, keeps
    llt_of_input. On single-cell rows, where a filling is any colouring,
    the relabelled input's polynomial is the colouring sum over its bits."""
    sizes, out = llt_input(_strip(rows))
    order = data.draw(st.permutations(range(len(sizes))))
    moved = relabelled(sizes, out, order, data.draw(st.booleans()))
    f = llt_of_input(*moved, k)
    assert f == llt_of_input(sizes, out, k)
    if set(sizes) == {1}:
        bits = [(c + 1, d + 1) for c, mask in enumerate(moved[1])
                for d in range(len(out)) if mask >> d & 1]
        assert _poly_as_nested_dict(f) == llt_via_colourings(len(out), bits, k)


@settings(max_examples=60)
@given(rows=brute_strips(), data=st.data())
def test_normal_form_picks_one_input_of_each_relabelling_class(rows, data):
    """normal_form gives every relabelling of an input the same value, and
    that value is itself one of the relabellings."""
    sizes, out = llt_input(_strip(rows))
    order = data.draw(st.permutations(range(len(sizes))))
    form = normal_form(sizes, out)
    assert normal_form(*relabelled(sizes, out, order, data.draw(st.booleans()))) == form
    assert form in {relabelled(sizes, out, order, reverse)
                    for order in permutations(range(len(sizes))) for reverse in (False, True)}


# partitions of 3..7 into cycles of at least three vertices
CYCLE_LENGTHS = [(3,), (4,), (5,), (6,), (3, 3), (7,), (3, 4)]
LABELS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@st.composite
def labelled_structures(draw):
    """(keys, arcs) on up to 7 vertices: arcs[u, v] is the label of v seen
    from u, and arcs[v, u] its swap. Half are unions of cycles with one key
    and one label throughout, where refinement splits nothing."""
    if draw(st.booleans()):
        lengths = draw(st.sampled_from(CYCLE_LENGTHS))
        a, b = draw(st.sampled_from(LABELS))
        keys, arcs = [0] * sum(lengths), {}
        first = 0
        for length in lengths:
            for t in range(length):
                u, v = first + t, first + (t + 1) % length
                arcs[u, v], arcs[v, u] = (a, b), (b, a)
            first += length
        return keys, arcs
    n = draw(st.integers(1, 7))
    keys = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    arcs = {}
    for u, v in combinations(range(n), 2):
        label = draw(st.sampled_from([None, *LABELS]))
        if label:
            arcs[u, v], arcs[v, u] = label, label[::-1]
    return keys, arcs


def _least(keys, arcs):
    """least_reading of the structure, read as its keys and every arc's
    label (or (0, 0) for none) in the leaf order: a complete reading."""
    n = len(keys)
    neighbours = [[(v, arcs[u, v]) for v in range(n) if (u, v) in arcs] for u in range(n)]
    return least_reading(keys, neighbours, lambda order: (
        [keys[v] for v in order], [arcs.get((u, v), (0, 0)) for u in order for v in order]))


def _moved(keys, arcs, perm):
    """The structure with vertex v renamed perm[v]."""
    moved = [0] * len(keys)
    for v, key in enumerate(keys):
        moved[perm[v]] = key
    return moved, {(perm[u], perm[v]): label for (u, v), label in arcs.items()}


def _isomorphic(first, second) -> bool:
    """Whether some renaming of the first structure's vertices gives the
    second, by trying every permutation."""
    if len(first[0]) != len(second[0]):
        return False
    return any(_moved(*first, perm) == second for perm in permutations(range(len(first[0]))))


@settings(max_examples=150)
@given(structure=labelled_structures(), data=st.data())
def test_least_reading_is_kept_by_relabelling_and_separates_non_isomorphic(structure, data):
    """Renaming the vertices keeps least_reading: a random renaming, and each
    that swaps vertex 0 with another, so that every vertex comes first once.
    Two structures have equal least readings exactly when one is a renaming
    of the other."""
    keys, arcs = structure
    n = len(keys)
    least = _least(keys, arcs)
    swaps = [[v if u == 0 else 0 if u == v else u for u in range(n)] for v in range(n)]
    for perm in [data.draw(st.permutations(range(n))), *swaps]:
        assert _least(*_moved(keys, arcs, perm)) == least
    other = data.draw(labelled_structures())
    assert (_least(*other) == least) == _isomorphic(structure, other)


@pytest.mark.parametrize("k", [0, -1])
def test_llt_poly_needs_a_variable(k):
    with pytest.raises(ValueError, match="need at least one variable"):
        llt_poly(parse_strip("2/0"), k)


def _checked_of_counts(cls, k, degree, counts):
    return SymFunc(k, degree, ((lam, QPoly(c)) for lam, c in counts.items()))


def _trusted_and_checked(build):
    """build() through the trusted result path of partition_dp and again
    with that path swapped for the checking constructors."""
    trusted = build()
    with patch.object(SymFunc, "_of_counts", classmethod(_checked_of_counts)):
        checked = build()
    return trusted, checked


def _same_result(trusted, checked):
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.is_zero == checked.is_zero
    assert trusted.terms() == checked.terms() and str(trusted) == str(checked)
    assert all(type(c) is int for _, poly in trusted.terms()
               for c in q_coefficients(poly).values())


@settings(max_examples=60)
@given(rows=brute_strips(), k=st.integers(1, 4))
def test_trusted_result_path_equals_checked_construction_on_strips(rows, k):
    _same_result(*_trusted_and_checked(lambda: llt_poly(_strip(rows), k)))


@settings(max_examples=60)
@given(
    weights=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    edge_bits=st.integers(0, 2**10 - 1),
    k=st.integers(1, 3),
)
def test_trusted_result_path_equals_checked_construction_on_colourings(weights, edge_bits, k):
    pairs = combinations(range(1, len(weights) + 1), 2)
    edges = [(a, b, 1) for t, (a, b) in enumerate(pairs) if edge_bits >> t & 1]
    graph = WeightedGraph.from_edges(weights, edges)
    _same_result(*_trusted_and_checked(lambda: extended_chromatic(graph, k)))


def test_trusted_result_path_drops_empty_coordinates():
    """A triangle has no proper colouring in two colours: the DP reaches
    its end state with no counts, and both paths give zero."""
    triangle = WeightedGraph.from_edges((1, 1, 1), [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    trusted, checked = _trusted_and_checked(lambda: extended_chromatic(triangle, 2))
    assert trusted.is_zero and checked.is_zero
    _same_result(trusted, checked)
