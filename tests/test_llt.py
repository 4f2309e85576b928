from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    QPoly,
    gamma_graph,
    inversions,
    llt_poly,
    parse_strip,
    to_basis,
    two_row_schur,
)
from lltgraphs.errors import NotUnicellular, PreconditionViolated
from lltgraphs.llt import validate_tableau
from lltgraphs.qsymfunc import SymFunc
from lltgraphs.strips import HorizontalStrip, Row

from oracle import brute_inversions, brute_llt, llt_via_colourings

RUNNING = "4/0,5/4,8/5,6/1"
MAX_FILLINGS = 2000


def _poly_as_nested_dict(f):
    return {exps: dict(c.pairs()) for exps, c in f.terms()}


def top_q_degree(f):
    """Largest q-exponent appearing in any coefficient."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no top q-degree")
    return max(c.degree for _, c in f.terms())


def degree_multiset(graph):
    degs = [0] * graph.n
    for a, b in graph.edges:
        degs[a - 1] += 1
        degs[b - 1] += 1
    return tuple(sorted(degs, reverse=True))


def _fillings(rows, k):
    out = 1
    for lo, hi in rows:
        out *= comb(k + hi - lo, hi - lo + 1)
    return out


def test_validate_tableau_checks_shape_and_rows():
    lam = parse_strip(RUNNING)
    validate_tableau(lam, ((1, 2, 2, 3), (5,), (1, 1, 3), (1, 4, 4, 4, 5)))
    with pytest.raises(ValueError):
        validate_tableau(lam, ((1, 2), (5,), (1, 1, 3), (1, 4, 4, 4, 5)))
    with pytest.raises(ValueError):
        validate_tableau(lam, ((2, 1, 2, 3), (5,), (1, 1, 3), (1, 4, 4, 4, 5)))


def test_inversion_counts_of_worked_fillings():
    lam = parse_strip(RUNNING)
    assert inversions(lam, ((1, 2, 2, 3), (5,), (1, 1, 3), (1, 4, 4, 4, 5))) == 5
    assert inversions(lam, ((4, 4, 4, 4), (3,), (1, 1, 1), (2, 2, 2, 2, 2))) == 6


def test_inversions_match_cell_pair_scan():
    strips = ["2/0,3/1", "1/0,1/0,2/1", "3/0,3/2,4/1"]
    from itertools import combinations_with_replacement, product

    for literal in strips:
        strip = parse_strip(literal)
        rows = [(r.lo, r.hi) for r in strip.rows]
        fillings = [
            list(combinations_with_replacement(range(1, 4), r.size))
            for r in strip.rows
        ]
        for tableau in product(*fillings):
            assert inversions(strip, tableau) == brute_inversions(rows, tableau)


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


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.tuples(st.integers(-2, 4), st.integers(1, 3)), min_size=1, max_size=4
    ),
    k=st.integers(1, 4),
)
def test_llt_poly_matches_brute_enumeration_on_random_strips(rows, k):
    rows = [(lo, lo + size - 1) for lo, size in rows]
    while _fillings(rows, k) > MAX_FILLINGS:
        k -= 1
    strip = HorizontalStrip(tuple(Row(lo, hi) for lo, hi in rows))
    assert _poly_as_nested_dict(llt_poly(strip, k)) == brute_llt(rows, k)


def test_llt_poly_defaults_to_row_count():
    strip = parse_strip("2/0,2/1")
    assert llt_poly(strip) == llt_poly(strip, 2)


def test_llt_poly_is_symmetric():
    strip = parse_strip("3/0,3/2,4/1")
    rows = [(r.lo, r.hi) for r in strip.rows]
    assert _poly_as_nested_dict(llt_poly(strip, 3)) == brute_llt(rows, 3)


def test_top_degree_is_total_edge_weight(sweep_main, sweep_main_polys):
    from lltgraphs import total_edge_weight

    for strip, f in zip(sweep_main, sweep_main_polys):
        assert top_q_degree(f) == total_edge_weight(strip)


def test_top_degree_of_zero_polynomial_raises():
    with pytest.raises(ValueError):
        top_q_degree(SymFunc.zero(2, 3))


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
    assert g_lam.edges == frozenset(
        {(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)}
    )
    assert g_mu.edges == frozenset(
        {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)}
    )
    assert degree_multiset(g_lam) == (4, 2, 2, 2, 2)
    assert degree_multiset(g_mu) == (3, 3, 3, 2, 1)


def test_gamma_graph_rejects_wide_rows():
    with pytest.raises(NotUnicellular):
        gamma_graph(parse_strip(RUNNING))


def test_colouring_route_agrees_with_tableau_route(sweep_uni):
    for strip in sweep_uni:
        graph = gamma_graph(strip)
        want = llt_via_colourings(graph.n, graph.edges, 3)
        assert _poly_as_nested_dict(llt_poly(strip, 3)) == want


def test_running_example_top_coefficient():
    lam = parse_strip(RUNNING)
    exp = to_basis(llt_poly(lam, 4), "s")
    # the lone highest-q term sits on the sorted row sizes
    assert exp.coeff((5, 4, 3, 1)) == QPoly.q_power(6)
