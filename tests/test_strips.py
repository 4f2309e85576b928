import pytest

from lltgraphs import (
    HorizontalStrip,
    Row,
    commute_swap,
    cycle,
    dc_triple,
    llt_poly,
    m_ij,
    parse_strip,
    pi_graph,
    prec,
    rotate,
    strip_of_composition,
    translate,
)
from lltgraphs.errors import (
    IndexOutOfRange,
    NonCommutingSwap,
    ParseError,
    PreconditionViolated,
)
from lltgraphs.strips import commutes, m_pair

import oracle
from formulas import strip_compose, strip_concat, strip_near_concat

RUNNING = "4/0,5/4,8/5,6/1"


@pytest.fixture()
def lam():
    return parse_strip(RUNNING)


def test_parse_running_example(lam):
    assert lam.rows == (Row(0, 3), Row(4, 4), Row(5, 7), Row(1, 5))
    assert lam.sizes == (4, 1, 3, 5)
    assert sum(lam.sizes) == 13
    assert lam.literal == RUNNING


@pytest.mark.parametrize("bad", ["", "4/4", "3/5", "4-0", "4/0,", "x/y", "4/0 5/4", "\u0663/0"])
def test_parse_rejects_bad_literals(bad):
    with pytest.raises(ParseError):
        parse_strip(bad)


def test_rows_allow_negative_contents():
    strip = parse_strip("0/-2,-1/-3")
    assert strip.rows == (Row(-2, -1), Row(-3, -2))


def test_edge_weights_of_running_example(lam):
    weights = {
        (i, j): m_ij(lam, i, j) for i in range(1, 5) for j in range(i + 1, 5)
    }
    assert weights == {
        (1, 2): 0,
        (1, 3): 0,
        (1, 4): 3,
        (2, 3): 0,
        (2, 4): 1,
        (3, 4): 2,
    }
    assert sum(w for _, _, w in pi_graph(lam).edge_list()) == 6
    sizes = sorted(lam.sizes, reverse=True)
    assert sum(i * size for i, size in enumerate(sizes)) == 13


def test_m_ij_matches_plain_interval_oracle(sweep_main):
    for strip in sweep_main:
        rows = [(r.lo, r.hi) for r in strip.rows]
        for i in range(1, strip.n + 1):
            for j in range(i + 1, strip.n + 1):
                assert m_ij(strip, i, j) == oracle.edge_weight(rows, i, j)


def test_m_ij_bound(sweep_main):
    for strip in sweep_main:
        for i in range(1, strip.n + 1):
            for j in range(i + 1, strip.n + 1):
                w = m_ij(strip, i, j)
                assert 0 <= w <= min(strip.sizes[i - 1], strip.sizes[j - 1])


def test_asymmetric_pair_does_not_commute():
    # adjacent but not overlapping: order matters because of the shift
    assert m_pair(Row(0, 3), Row(4, 4)) == 0
    assert m_pair(Row(4, 4), Row(0, 3)) == 1
    assert not commutes(Row(0, 3), Row(4, 4))
    assert commutes(Row(0, 1), Row(1, 1))


def test_prec_examples(lam):
    assert prec(lam, 2, 4)
    assert not prec(lam, 1, 4)
    assert not prec(lam, 4, 1)


def test_translate_and_normalize(lam):
    up = translate(lam, 2)
    assert up.rows[0] == Row(2, 5)
    assert translate(up, -up.min_content).rows == lam.rows
    assert translate(up, -up.min_content).min_content == 0


def test_cycle_of_translated_running_example(lam):
    assert cycle(translate(lam, 1)) == parse_strip("6/5,9/6,7/2,4/0")


def test_cycle_preserves_polynomial(lam):
    assert llt_poly(cycle(lam), 4) == llt_poly(lam, 4)


def test_rotate_running_example(lam):
    assert rotate(lam, 7) == parse_strip("7/2,3/0,4/3,8/4")


def test_rotate_preserves_polynomial(lam):
    assert llt_poly(rotate(lam, 7), 4) == llt_poly(lam, 4)


def test_commute_swap_swaps_nested_pair():
    strip = parse_strip("2/0,2/1")
    assert commute_swap(strip, 1) == parse_strip("2/1,2/0")


def test_commute_swap_rejects_noncommuting(lam):
    with pytest.raises(NonCommutingSwap):
        commute_swap(lam, 3)
    with pytest.raises(IndexOutOfRange):
        commute_swap(lam, 4)


def test_dc_triple_running_variant():
    strip = parse_strip("4/0,5/4,6/1,8/5")
    swapped, merged = dc_triple(strip, 3)
    assert swapped == parse_strip("4/0,5/4,8/5,6/1")
    assert merged == parse_strip("4/0,5/4,8/1,6/5")


def test_dc_triple_drops_empty_intersection():
    swapped, merged = dc_triple(parse_strip("1/0,2/1"), 1)
    assert swapped == parse_strip("2/1,1/0")
    assert merged == parse_strip("2/0")


def test_dc_triple_keeps_single_cell_intersection():
    swapped, merged = dc_triple(parse_strip("3/0,5/2"), 1)
    assert swapped == parse_strip("5/2,3/0")
    assert merged == parse_strip("5/0,3/2")


def test_dc_triple_preconditions(lam):
    with pytest.raises(PreconditionViolated):
        dc_triple(parse_strip("2/0,2/1"), 1)  # commuting pair
    with pytest.raises(PreconditionViolated):
        dc_triple(parse_strip("2/1,2/0"), 1)  # later row starts left
    with pytest.raises(IndexOutOfRange):
        dc_triple(lam, 0)


def test_strip_of_composition():
    assert strip_of_composition((2, 1, 2, 3, 1)) == parse_strip(
        "9/8,8/5,5/3,3/2,2/0"
    )
    assert strip_of_composition((3,)) == parse_strip("3/0")


@pytest.mark.parametrize(
    "build",
    [lambda: Row(0, 2.5), lambda: Row(True, 2), lambda: strip_of_composition((1.5, 2))],
    ids=["float-bound", "bool-bound", "float-part"],
)
def test_rows_refuse_non_int_bounds(build):
    with pytest.raises(TypeError):
        build()


def test_strip_concat_and_near_concat():
    one = parse_strip("1/0")
    assert strip_concat(one, one) == parse_strip("2/1,1/0")
    assert strip_near_concat(one, one) == parse_strip("2/0")


def test_strip_compose_matches_composition_route():
    got = strip_compose((2, 1), parse_strip("1/0"))
    assert got == strip_of_composition((2, 1))


def test_strip_equality_is_positional():
    assert parse_strip("2/0,1/0") != parse_strip("1/0,2/0")
    assert HorizontalStrip((Row(0, 1),)) == parse_strip("2/0")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Row(2, 1), ValueError),
        (lambda: HorizontalStrip(()), ValueError),
        (lambda: m_ij(parse_strip(RUNNING), 2, 2), IndexOutOfRange),
    ],
    ids=["empty-row", "no-rows", "same-row"],
)
def test_error_paths(call, error):
    with pytest.raises(error):
        call()
