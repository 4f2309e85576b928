import hashlib
import re
import random
from collections import deque
from itertools import combinations
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from lltgraphs import (
    apply_move,
    canonical_form,
    find_minimal_ncp,
    is_nesting,
    is_strict_pair,
    llt_poly,
    local_rotate,
    m_ij,
    parse_strip,
    pi_graph,
    prec,
    realize,
    similarity_witness,
    strict_pairs,
    strict_sequences,
)
from lltgraphs.cli import sweep_family
from lltgraphs.errors import (
    BlockNotSeparable,
    GraphsNotIsomorphic,
    HypothesisViolated,
    IndexOutOfRange,
    NonCommutingSwap,
    PreconditionViolated,
    WitnessReplayFailed,
)
from lltgraphs.strips import (
    HorizontalStrip,
    Row,
    commute_swap,
    cycle,
    dc_triple,
    rotate,
    translate,
)
from lltgraphs import structure

from formulas import is_minimal_ncp, is_noncommuting_path
from oracle import (
    commutes as brute_commutes,
    raw_is_nesting,
    raw_is_strict_pair,
    raw_strict_sequences,
)


def strip_of(pairs):
    return HorizontalStrip(tuple(Row(a, b) for a, b in pairs))


# ---- noncommuting paths ------------------------------------------------------

def test_five_row_chain_is_minimal():
    strip = parse_strip("6/0,7/5,6/3,4/1,8/3")
    p = find_minimal_ncp(strip, 1, 5)
    assert p == (1, 2, 3, 4, 5)
    assert is_minimal_ncp(strip, p)
    assert is_noncommuting_path(strip, p)
    # no interior subset survives
    assert not is_noncommuting_path(strip, (1, 2, 5))
    assert not is_noncommuting_path(strip, (1, 4, 5))


def test_no_path_between_commuting_far_rows():
    strip = parse_strip("1/0,3/2,5/4")
    assert find_minimal_ncp(strip, 1, 3) is None


def test_find_minimal_ncp_validates_endpoints():
    strip = parse_strip("1/0,3/2,5/4")
    with pytest.raises(IndexOutOfRange):
        find_minimal_ncp(strip, 2, 2)
    with pytest.raises(IndexOutOfRange):
        find_minimal_ncp(strip, 1, 4)


def test_shortest_chain_beats_longer_detour():
    # rows 1 and 3 commute but both fight row 2
    strip = strip_of([(0, 1), (2, 3), (5, 6), (3, 4)])
    p = find_minimal_ncp(strip, 1, 4)
    assert p is not None
    assert (p[0], p[-1]) == (1, 4)
    assert is_minimal_ncp(strip, p)


# ---- strict pairs ------------------------------------------------------------

def test_partial_overlap_is_strict():
    strip = strip_of([(0, 4), (3, 8)])
    assert is_strict_pair(strip, 1, 2)


def test_glued_zero_overlap_pair_is_strict():
    # two disjoint rows welded together by a third covering both
    strip = strip_of([(1, 5), (6, 11), (4, 7)])
    assert m_ij(strip, 1, 2) == 0
    assert m_ij(strip, 1, 3) + m_ij(strip, 2, 3) == strip.sizes[2] + 1
    assert strict_pairs(strip) == [(1, 2), (1, 3)]
    assert not is_nesting(strip)


def test_glued_pair_derived_instance():
    strip = strip_of([(0, 1), (2, 4), (0, 3)])
    assert strict_pairs(strip) == [(1, 2)]


def test_far_apart_rows_are_not_strict():
    strip = parse_strip("1/0,5/4")
    assert strict_pairs(strip) == []


def test_strict_needs_left_start():
    strip = strip_of([(6, 11), (1, 5), (4, 7)])
    assert not is_strict_pair(strip, 1, 2)


def test_strict_pairs_do_not_commute(sweep_main):
    from lltgraphs.strips import m_pair

    for strip in sweep_main:
        for i, j in strict_pairs(strip):
            ri, rj = strip.rows[i - 1], strip.rows[j - 1]
            assert m_pair(ri, rj) != m_pair(rj, ri), (strip.literal, i, j)


# ---- strict sequences ----------------------------------------------------------

def test_six_link_chain_with_spanning_witness():
    strip = strip_of(
        [(0, 2), (3, 7), (8, 9), (10, 13), (14, 16), (17, 20), (1, 18)]
    )
    assert strict_sequences(strip) == [((1, 2, 3, 4, 5, 6), 7)]


def test_two_link_chain_with_witness_above():
    strip = strip_of([(0, 0), (1, 2), (0, 1)])
    assert strict_sequences(strip) == [((1, 2), 3)]


def test_two_row_strip_has_no_sequences():
    assert strict_sequences(parse_strip("3/0,9/3")) == []


def test_chain_characterization_matches_raw_definition_spotwise():
    cases = [
        [(0, 2), (3, 7), (8, 9), (10, 13), (14, 16), (17, 20), (1, 18)],
        [(0, 0), (1, 2), (0, 1)],
        [(1, 5), (6, 11), (4, 7)],
        [(0, 1), (2, 4), (0, 3)],
        [(0, 2), (4, 5), (0, 5)],
    ]
    for pairs in cases:
        strip = strip_of(pairs)
        got = strict_sequences(strip)
        raw = raw_strict_sequences(pairs)
        assert bool(got) == bool(raw), pairs
        for item in got:
            assert item in raw, (pairs, item)


# ---- nesting -------------------------------------------------------------------

def test_twelve_row_nested_family():
    strip = strip_of(
        [
            (2, 3),
            (0, 2),
            (0, 3),
            (4, 5),
            (6, 7),
            (4, 7),
            (11, 12),
            (10, 12),
            (8, 12),
            (0, 12),
            (0, 12),
            (0, 12),
        ]
    )
    assert is_nesting(strip)


def test_disjoint_rows_with_slack_are_nesting():
    assert is_nesting(parse_strip("1/0,5/4"))


def test_glued_configuration_is_not_nesting():
    assert not is_nesting(strip_of([(1, 5), (6, 11), (4, 7)]))


def test_prec_is_transitive_on_the_nested_family():
    strip = strip_of(
        [
            (2, 3),
            (0, 2),
            (0, 3),
            (4, 5),
            (6, 7),
            (4, 7),
            (11, 12),
            (10, 12),
            (8, 12),
            (0, 12),
            (0, 12),
            (0, 12),
        ]
    )
    n = strip.n
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if len({a, b, c}) == 3 and prec(strip, a, b) and prec(strip, b, c):
                    assert prec(strip, a, c), (a, b, c)


def test_nested_minimal_path_runs_head_to_tail():
    strip = strip_of(
        [
            (2, 3),
            (0, 2),
            (0, 3),
            (4, 5),
            (6, 7),
            (4, 7),
            (11, 12),
            (10, 12),
            (8, 12),
            (0, 12),
            (0, 12),
            (0, 12),
        ]
    )
    # rows 1 and 5 commute with zero overlap; any minimal path between
    # them must chain end to end
    p = find_minimal_ncp(strip, 1, 5)
    assert p == (1, 4, 5)
    for a, b in zip(p, p[1:]):
        assert strip.rows[b - 1].lo == strip.rows[a - 1].hi + 1


# ---- local rotation --------------------------------------------------------------

def test_rotating_nested_pair_is_identity():
    strip = parse_strip("1/0,2/1")
    assert local_rotate(strip, 2) == strip


def test_rotating_uneven_pair_reflects_contents():
    assert local_rotate(parse_strip("1/0,3/1"), 2) == parse_strip("2/0,3/2")


def test_rotation_preserves_graph_and_polynomial():
    strip = parse_strip("1/0,3/1")
    out = local_rotate(strip, 2)
    assert canonical_form(pi_graph(out)) == canonical_form(pi_graph(strip))
    assert llt_poly(out, 2) == llt_poly(strip, 2)


def test_rotation_validates_position_and_adjacency():
    with pytest.raises(IndexOutOfRange):
        local_rotate(parse_strip("1/0,2/1"), 1)
    with pytest.raises(PreconditionViolated):
        local_rotate(parse_strip("1/0,3/2"), 2)


def test_rotation_rejects_one_sided_overlap():
    # row 3 overlaps the right half of the pair only, in the forbidden
    # direction
    with pytest.raises(HypothesisViolated) as info:
        local_rotate(parse_strip("1/0,2/1,3/1"), 2)
    assert info.value.condition == 3
    assert info.value.row == 3


# ---- similarity witnesses ---------------------------------------------------------

def test_witness_for_nested_swap():
    moves = similarity_witness(parse_strip("2/0,2/1"), parse_strip("2/1,2/0"))
    assert moves == [("commute_swap", 1)]


def test_witness_for_equal_strips_is_empty():
    lam = parse_strip("4/0,5/4,8/5,6/1")
    assert similarity_witness(lam, lam) == []


def test_witness_rejects_different_graphs():
    with pytest.raises(GraphsNotIsomorphic):
        similarity_witness(parse_strip("1/0"), parse_strip("2/0"))


def test_witness_for_running_pair_replays_exactly():
    lam = parse_strip("4/0,5/4,8/5,6/1")
    mu = parse_strip("5/4,9/5,7/2,3/0")
    moves = similarity_witness(lam, mu)
    assert moves is not None
    baseline = llt_poly(lam, 4)
    current = lam
    for move in moves:
        current = apply_move(current, move)
        assert llt_poly(current, 4) == baseline, move
    assert current == mu


def test_witness_for_translate_pair_skips_the_search(monkeypatch):
    def no_search(state, back=None):
        raise AssertionError("a translate pair needs no search")

    monkeypatch.setattr(structure, "_neighbours", no_search)
    lam = parse_strip("3/0,6/3,2/0")
    mu = parse_strip("5/2,8/5,4/2")
    assert similarity_witness(lam, mu) == [("translate", 2)]
    assert similarity_witness(parse_strip("3/1,4/2"), parse_strip("2/0,3/1")) == [
        ("translate", -1)
    ]
    # one translate straight onto the target, not one to content 0 and one back up
    assert similarity_witness(parse_strip("3/1,4/2"), parse_strip("4/2,5/3")) == [
        ("translate", 1)
    ]


def test_witness_replay_check_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(structure, "apply_move", lambda strip, move: strip)
    with pytest.raises(WitnessReplayFailed):
        similarity_witness(parse_strip("2/0,2/1"), parse_strip("2/1,2/0"))


def test_witness_budget_exhaustion_returns_none():
    lam = parse_strip("4/0,5/4,8/5,6/1")
    mu = parse_strip("5/4,9/5,7/2,3/0")
    assert similarity_witness(lam, mu, budget=2) is None


def test_witness_rejects_a_budget_below_one():
    lam, mu = parse_strip("2/0,2/1"), parse_strip("2/1,2/0")
    for budget in (0, -3):
        with pytest.raises(PreconditionViolated):
            similarity_witness(lam, mu, budget=budget)
    # the least budget is accepted; it stops at the first new state
    assert similarity_witness(lam, mu, budget=1) is None


# Witnesses for walk pairs of the benchmark's witness workload, and a cycle
# that ends at the target's minimum content, so no translate follows it.
# Breadth-first search returns the first chain it meets, so these pin the
# order in which _neighbours yields moves.
PINNED_WITNESSES = [
    (
        "7/4,12/9,15/12,19/16,7/4,24/21,3/0",
        "7/4,12/9,15/12,19/16,3/0,7/4,24/21",
        [("commute_swap", 6), ("commute_swap", 5)],
    ),
    (
        "8/7,8/7,5/4,6/5,1/0,3/2,2/1",
        "2/1,3/2,1/0,-2/-3,-1/-2,-4/-5,-4/-5",
        [("rotate", 0), ("translate", 7), ("commute_swap", 2), ("translate", -5)],
    ),
    (
        "12/10,8/6,11/9,15/13,2/0,8/6,12/10",
        "12/10,8/6,15/13,11/9,12/10,2/0,8/6",
        [("commute_swap", 3), ("commute_swap", 6), ("commute_swap", 5)],
    ),
    (
        "2/0,6/4,3/1,5/3,8/6,13/11,13/11,4/2",
        "-12/-14,-3/-5,-12/-14,-7/-9,-4/-6,-5/-7,-2/-4,-1/-3",
        [
            ("rotate", 0),
            ("translate", 12),
            ("commute_swap", 1),
            ("commute_swap", 6),
            ("translate", -14),
        ],
    ),
    (
        "25/22,21/18,5/2,3/0,4/1,14/11,19/16,9/6",
        "5/2,21/18,3/0,4/1,14/11,19/16,24/21,9/6",
        [("cycle",), ("commute_swap", 1), ("commute_swap", 7)],
    ),
    (
        "1/0,2/1,4/1",
        "3/0,4/3,2/1",
        [("rotate", 0), ("translate", 3), ("commute_swap", 1), ("cycle",)],
    ),
    (
        "6/4,6/4,3/0",
        "2/0,2/0,5/2",
        [("cycle",), ("local_rotate", 3)],
    ),
    ("2/0,3/1,5/3", "3/1,5/3,1/-1", [("cycle",)]),
]


@pytest.mark.parametrize(
    "source, target, moves",
    PINNED_WITNESSES,
    ids=[f"{s.count(',') + 1}-rows-{i}" for i, (s, _, _) in enumerate(PINNED_WITNESSES)],
)
def test_witness_moves_are_pinned(source, target, moves):
    assert similarity_witness(parse_strip(source), parse_strip(target)) == moves


def test_fixed_miss_pair_runs_out_of_budget():
    # same weighted graph, but no move chain within 20,000 states
    lam, mu = parse_strip("2/0,4/1,7/4"), parse_strip("3/0,4/2,7/4")
    assert similarity_witness(lam, mu, budget=20_000) is None


def test_miss_pair_search_is_pinned_over_its_whole_budget():
    """The fixed miss pair's search to its default budget of 100,000
    states: the found states in order, each with its parent, as one
    SHA-256 over their repr.  The hash was recorded from the search when it
    offered moves as tuples, so the move codes and the one-probe insert
    find the same states in the same order from the same parents."""
    start, goal = flat_state(parse_strip("2/0,4/1,7/4")), flat_state(parse_strip("3/0,4/2,7/4"))
    found = structure._search(start, goal, 100_000)
    assert len(found) == 100_000 and goal not in found
    assert hashlib.sha256(repr(list(found.items())).encode()).hexdigest() == (
        "7939a2163b10a56a635029bf1d0a5a3179c91c0e4f0ecb4191ced005a44d5bc3"
    )


# ---- the search's moves against the public moves ---------------------------------

def public_neighbours(strip):
    """The search's move list built from the public moves, each result
    translated to minimum content 0, as (move, rows) pairs."""
    found = [(("cycle",), cycle(strip)), (("rotate", 0), rotate(strip, 0))]
    for t in range(1, strip.n):
        try:
            found.append((("commute_swap", t), commute_swap(strip, t)))
        except NonCommutingSwap:
            pass
    for t in range(2, strip.n + 1):
        try:
            found.append((("local_rotate", t), local_rotate(strip, t)))
        except (PreconditionViolated, HypothesisViolated, BlockNotSeparable):
            pass
    return [
        (move, tuple((r.lo, r.hi) for r in translate(out, -out.min_content).rows))
        for move, out in found
    ]


def flat_state(strip):
    """The search's state of a strip: its rows as one flat (lo, hi, ...)
    tuple at minimum content 0."""
    return tuple(x for r in translate(strip, -strip.min_content).rows for x in (r.lo, r.hi))


def rows_of(state):
    """A flat search state as (lo, hi) pairs."""
    return tuple(zip(state[::2], state[1::2]))


def decoded(*args):
    """_neighbours(*args) with each move code decoded to its public move."""
    return [(structure._move(code), state) for code, state in structure._neighbours(*args)]


def search_neighbours(strip):
    return [(move, rows_of(state)) for move, state in decoded(flat_state(strip))]


def test_nested_strip_offers_a_local_rotation():
    # row 3 holds rows 1 and 2, which sit end to end
    moves = [move for move, _ in search_neighbours(parse_strip("2/0,4/2,5/0"))]
    assert ("local_rotate", 2) in moves


def test_search_builds_no_local_rotation_after_its_stopping_entry(monkeypatch):
    # the start state lists a local rotation after its cycle and rotate
    # entries; a search that stops on one of those, at its goal or at its
    # budget, never builds the rotation
    lam = parse_strip("2/0,4/2,5/0")
    calls = []

    def counted(strip, t, real=structure.local_rotate):
        calls.append(t)
        return real(strip, t)

    monkeypatch.setattr(structure, "local_rotate", counted)
    assert similarity_witness(lam, cycle(lam)) is not None
    assert similarity_witness(lam, rotate(lam, 0)) is not None
    assert similarity_witness(lam, commute_swap(lam, 2), budget=2) is None
    assert calls == []
    # the entry is there when the caller reaches it
    assert [move for move, _ in search_neighbours(lam)][-1] == ("local_rotate", 2)
    assert calls == [2]


@st.composite
def small_strips(draw, max_rows=6):
    """1 to max_rows rows of 1-4 cells, every content in 0..8."""
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        lo = draw(st.integers(0, 8))
        size = draw(st.integers(1, min(4, 9 - lo)))
        rows.append(Row(lo, lo + size - 1))
    return HorizontalStrip(tuple(rows))


def brute_shortest_chain(strip, i, j):
    """Row count of a shortest increasing chain i < ... < j of >= 3 rows,
    consecutive rows noncommuting by the oracle; None when there is none."""
    rows = [(r.lo, r.hi) for r in strip.rows]
    for size in range(1, j - i):
        for picked in combinations(range(i + 1, j), size):
            chain = (i, *picked, j)
            if not any(brute_commutes(rows[a - 1], rows[b - 1])
                       for a, b in zip(chain, chain[1:])):
                return size + 2
    return None


@settings(max_examples=300)
@given(strip=small_strips())
@example(strip=parse_strip("6/3,9/8,8/6,4/2,7/3,9/7"))  # 1, 4, 5, 6 is not shortest
def test_find_minimal_ncp_is_a_shortest_chain(strip):
    for i, j in combinations(range(1, strip.n + 1), 2):
        p = find_minimal_ncp(strip, i, j)
        want = brute_shortest_chain(strip, i, j)
        if want is None:
            assert p is None, (strip.literal, i, j)
            continue
        assert (p[0], p[-1]) == (i, j) and len(p) == want, (strip.literal, i, j)
        assert is_minimal_ncp(strip, p)


@settings(max_examples=400)
@given(strip=small_strips())
@example(strip=parse_strip("1/0,5/4"))  # disjoint with slack: nesting
@example(strip=parse_strip("6/1,12/6,8/4"))  # disjoint, overfilling the third row
@example(strip=parse_strip("3/0,4/1,4/0"))  # partial overlap
def test_strict_pairs_and_nesting_match_raw_definitions(strip):
    rows = [(r.lo, r.hi) for r in strip.rows]
    pairs = [(i, j) for i in range(1, strip.n + 1) for j in range(1, strip.n + 1) if i != j]
    assert [is_strict_pair(strip, i, j) for i, j in pairs] == [
        raw_is_strict_pair(rows, i, j) for i, j in pairs
    ], strip.literal
    assert strict_pairs(strip) == [(i, j) for i, j in pairs if raw_is_strict_pair(rows, i, j)]
    assert is_nesting(strip) == raw_is_nesting(rows), strip.literal


@settings(max_examples=400)
@given(strip=small_strips())
@example(strip=parse_strip("4/0,5/4,8/5,6/1"))
@example(strip=parse_strip("2/0,4/2,5/0"))
@example(strip=parse_strip("2/0,2/0,5/2"))
def test_search_moves_match_public_moves(strip):
    assert search_neighbours(strip) == public_neighbours(strip)


@settings(max_examples=200)
@given(strip=small_strips(max_rows=8))
@example(strip=parse_strip("2/0,2/1"))
@example(strip=parse_strip("2/0,4/1,7/4"))
@example(strip=parse_strip("1/0,3/2,5/4,7/6,9/8"))  # every adjacent pair commutes
@example(strip=parse_strip("1/0,2/1,5/3,9/7"))  # rows 1 and 2 still touch after swap 3
def test_search_leaves_out_only_moves_found_from_the_parent(strip):
    """A state reached by a move leaves out the move back, which leads to
    the parent; after a commute_swap t it also leaves out rotate 0, cycle
    when t >= 2 and commute_swap u <= t-2, each equal to a swap applied to
    an earlier entry of the parent's list; after a cycle and then a rotate
    it leaves out the cycle, equal to the rotate of the cycle's parent.
    The rest keep their order."""
    state = flat_state(strip)
    codes = {structure._move(code): code for code, _ in structure._neighbours(state)}
    offered = dict(decoded(state))

    def then(first, second):
        return dict(decoded(offered[first]))[second]

    for move, nxt in offered.items():
        left_out = {}
        if move[0] in ("rotate", "commute_swap"):
            left_out[move] = state
        if move[0] == "commute_swap":
            t = move[1]
            left_out[("rotate", 0)] = then(("rotate", 0), ("commute_swap", strip.n - t))
            if t >= 2:
                left_out[("cycle",)] = then(("cycle",), ("commute_swap", t - 1))
            for u in range(1, t - 1):
                if ("commute_swap", u) in offered:
                    left_out[("commute_swap", u)] = then(("commute_swap", u), move)
        full = decoded(nxt)
        assert {m: out for m, out in full if m in left_out} == left_out, (strip.literal, move)
        kept = [entry for entry in full if entry[0] not in left_out]
        assert decoded(nxt, codes[move]) == kept, (strip.literal, move)
    # a rotate after a cycle leaves out the cycle, which gives the start's rotate
    cycled = offered[("cycle",)]
    code, turned = next(
        (code, out) for code, out in structure._neighbours(cycled, codes[("cycle",)])
        if structure._move(code) == ("rotate", 0)
    )
    full = decoded(turned)
    assert dict(full)[("cycle",)] == offered[("rotate", 0)], strip.literal
    kept = [entry for entry in full if entry[0] not in (("cycle",), ("rotate", 0))]
    assert decoded(turned, code) == kept, strip.literal


# ---- local rotation against the public moves --------------------------------------

def reference_companions(strip, i):
    """The companions of rows i-1 and i, as two lists, by the five coverage
    conditions of the rotation restated on m_ij and prec; HypothesisViolated
    when one fails."""
    outside = [t for t in range(1, strip.n + 1) if t not in (i - 1, i)]
    overlaps = {t: (m_ij(strip, i - 1, t), m_ij(strip, i, t)) for t in outside}
    zero = [t for t in outside if overlaps[t] == (0, 0)]
    both = [t for t in outside if min(overlaps[t]) > 0]
    left = [t for t in outside if overlaps[t][0] > 0 and overlaps[t][1] == 0]
    right = [t for t in outside if overlaps[t][0] == 0 and overlaps[t][1] > 0]
    for t in outside:
        if t in both and not (prec(strip, i - 1, t) and prec(strip, i, t)):
            raise HypothesisViolated(1, t)
        if t in left and not prec(strip, t, i - 1):
            raise HypothesisViolated(2, t)
        if t in right and not prec(strip, t, i):
            raise HypothesisViolated(3, t)
        for condition, own, other in ((4, i - 1, i), (5, i, i - 1)):
            if prec(strip, t, own) and (
                m_ij(strip, other, t) != 0
                or any(m_ij(strip, a, t) != 0 for a in zero if a != t)
                or any(not prec(strip, t, b) for b in both if b != t)
            ):
                raise HypothesisViolated(condition, t)
    return left, right


def reference_local_rotate(strip, i):
    """local_rotate rebuilt on the public moves: for the first cut that
    works, cycle `cut` times, bring each companion of row i and then each
    companion of row i-1 next to the pair by commute_swap, nearest first,
    and reflect the block through lo(row i-1) + hi(row i)."""
    n = strip.n
    left, right = reference_companions(strip, i)
    for cut in range(n):
        current, labels = strip, list(range(1, n + 1))
        for _ in range(cut):
            current, labels = cycle(current), labels[1:] + labels[:1]
        p = labels.index(i - 1)
        if labels[p + 1 : p + 2] != [i]:
            continue
        if any(labels.index(t) > p for t in left) or any(labels.index(t) < p for t in right):
            continue
        try:
            for target, t in enumerate(sorted(right, key=labels.index), p + 2):
                for q in range(labels.index(t), target, -1):
                    current = commute_swap(current, q)
                    labels[q - 1], labels[q] = labels[q], labels[q - 1]
            for target, t in zip(range(p - 1, -1, -1), sorted(left, key=labels.index, reverse=True)):
                for q in range(labels.index(t), target):
                    current = commute_swap(current, q + 1)
                    labels[q], labels[q + 1] = labels[q + 1], labels[q]
        except NonCommutingSwap:
            continue
        rows = current.rows
        x, y = p - len(left), p + 2 + len(right)
        pivot = rows[p].lo + rows[p + 1].hi
        block = tuple(Row(pivot - r.hi, pivot - r.lo) for r in reversed(rows[x:y]))
        return HorizontalStrip(rows[:x] + block + rows[y:])
    raise BlockNotSeparable("no cut works")


def assert_rotation_matches_reference(strip):
    """local_rotate and reference_local_rotate agree at every i where row i
    starts in the column after row i-1 ends: the same strip, or an error of
    the same type."""
    for i in range(2, strip.n + 1):
        if strip.row(i).lo != strip.row(i - 1).hi + 1:
            continue
        outcomes = []
        for rotation in (local_rotate, reference_local_rotate):
            try:
                outcomes.append(rotation(strip, i))
            except (HypothesisViolated, BlockNotSeparable) as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1], (strip.literal, i)


def test_rotation_matches_the_public_moves_on_the_main_family(sweep_main):
    for strip in sweep_main:
        assert_rotation_matches_reference(strip)


@settings(max_examples=400)
@given(strip=small_strips(max_rows=7))
@example(strip=parse_strip("6/4,6/4,3/0"))
@example(strip=parse_strip("2/0,4/2,5/0"))
def test_rotation_matches_the_public_moves(strip):
    assert_rotation_matches_reference(strip)


# ---- the search against a reference breadth-first search ---------------------------

def rows_at_zero(strip):
    return tuple((r.lo, r.hi) for r in translate(strip, -strip.min_content).rows)


def reference_bfs(start, goal, budget, neighbours):
    """Breadth-first search from `start`, offering every move in the order
    of `neighbours`, stopping at `goal` or once `budget` states are found;
    each found state's (parent, move), None for `start`, in the order the
    states were found."""
    parent = {start: None}
    frontier = deque([start] if start != goal else [])
    while frontier:
        node = frontier.popleft()
        for move, nxt in neighbours(node):
            if nxt in parent:
                continue
            parent[nxt] = (node, move)
            if nxt == goal or len(parent) >= budget:
                frontier.clear()
                break
            frontier.append(nxt)
    return parent


def reference_witness(lam, mu, budget, neighbours):
    """similarity_witness rebuilt on the public moves: reference_bfs over
    rows tuples at minimum content 0, in the order of `neighbours` (a
    function of such a tuple), then the chain replayed with a translate to
    content 0 before each move that needs it and one onto mu after the last."""
    if lam.rows == mu.rows:
        return []
    goal = rows_at_zero(mu)
    parent = reference_bfs(rows_at_zero(lam), goal, budget, neighbours)
    if goal not in parent:
        return None
    chain = []
    key = goal
    while parent[key] is not None:
        key, move = parent[key]
        chain.append(move)
    moves = []
    current = lam
    for move in chain[::-1]:
        if current.min_content != 0:
            moves.append(("translate", -current.min_content))
            current = translate(current, -current.min_content)
        moves.append(move)
        current = apply_move(current, move)
    if mu.min_content != current.min_content:
        moves.append(("translate", mu.min_content - current.min_content))
    return moves


def walk_partner(strip, rng):
    """The strip after 1-3 public moves drawn by rng, rotating about a
    random centre, then translated by a random offset."""
    current = strip
    for _ in range(rng.randint(1, 3)):
        move = rng.choice([move for move, _ in public_neighbours(current)])
        if move[0] == "rotate":
            move = ("rotate", rng.randint(-3, 3))
        current = apply_move(current, move)
    return translate(current, rng.randint(-3, 3))


@pytest.fixture(scope="session")
def sweep_main_buckets(sweep_main, sweep_main_forms):
    """The verify buckets of the 3/3/4 family, by canonical form."""
    buckets = {}
    for strip, form in zip(sweep_main, sweep_main_forms):
        buckets.setdefault(form, []).append(strip)
    return buckets


REFERENCE_BUDGET_CAP = 300


def assert_search_matches_reference(strip, partner):
    """similarity_witness equals reference_witness at every budget from 1
    up to one past the goal's index, or up to REFERENCE_BUDGET_CAP."""
    @lru_cache(maxsize=None)
    def neighbours(rows):
        return public_neighbours(strip_of(rows))

    found_at = None
    for budget in range(1, REFERENCE_BUDGET_CAP + 1):
        expected = reference_witness(strip, partner, budget, neighbours)
        assert similarity_witness(strip, partner, budget) == expected, (
            strip.literal, partner.literal, budget,
        )
        if expected is not None:
            if found_at is not None:
                break
            found_at = budget


@settings(max_examples=100)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["walk", "bucket"]))
def test_search_matches_a_reference_bfs(sweep_main_buckets, data, seed, kind):
    """A walk pair starts from any small strip; a bucket pair is two
    strips of one verify bucket of the 3/3/4 family, whose strips
    small_strips() can draw too."""
    rng = random.Random(seed)
    if kind == "walk":
        strip = data.draw(small_strips())
        partner = walk_partner(strip, rng)
    else:
        shared = [b for b in sweep_main_buckets.values() if len(b) > 1]
        strip, partner = rng.sample(data.draw(st.sampled_from(shared)), 2)
    assert_search_matches_reference(strip, partner)


@pytest.mark.parametrize(
    "source, target",
    [("2/0,4/1,7/4", "3/0,4/2,7/4"), ("4/0,5/4,8/5,6/1", "5/4,9/5,7/2,3/0")],
)
def test_fixed_pairs_match_the_reference_bfs(source, target):
    assert_search_matches_reference(parse_strip(source), parse_strip(target))


@settings(max_examples=30)
@given(
    strip=small_strips(max_rows=8),
    budget=st.integers(1, 3_000),
    seed=st.integers(0, 2**32 - 1),
    reachable=st.booleans(),
)
@example(strip=parse_strip("2/0,4/1,7/4"), budget=3_000, seed=0, reachable=False)
@example(strip=parse_strip("1/0,3/2,5/4,7/6,9/8"), budget=3_000, seed=0, reachable=False)
def test_search_finds_the_states_of_a_plain_bfs(strip, budget, seed, reachable):
    """The search's found states, in order, with their parents, equal those
    of a breadth-first search over the public moves that offers every move.
    The goal is a walk partner, or no strip at all, so that the search runs
    to its budget."""
    partner = walk_partner(strip, random.Random(seed)) if reachable else None
    found = structure._search(
        flat_state(strip), () if partner is None else flat_state(partner), budget
    )
    expected = reference_bfs(
        rows_at_zero(strip),
        () if partner is None else rows_at_zero(partner),
        budget,
        lambda rows: public_neighbours(strip_of(rows)),
    )
    assert [(rows_of(state), up and rows_of(up)) for state, up in found.items()] == [
        (rows, link and link[0]) for rows, link in expected.items()
    ], strip.literal


@pytest.mark.parametrize(
    "call, error",
    [(lambda: apply_move(parse_strip("2/0,3/1"), ("reflect", 1)), ValueError)],
    ids=["unknown-move"],
)
def test_error_paths(call, error):
    with pytest.raises(error):
        call()


SMALL = parse_strip("2/0,3/1,5/3")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: similarity_witness(SMALL, cycle(SMALL), budget=True), "state budget True"),
        (lambda: similarity_witness(SMALL, cycle(SMALL), budget=2.5), "state budget 2.5"),
        (lambda: sweep_family(True, 1, 0), "family bound True"),
        (lambda: sweep_family(2, 1.0, 0), "family bound 1.0"),
        (lambda: sweep_family(2, 1, 0.0), "family bound 0.0"),
        (lambda: sweep_family(2, 1, 1, sample=True), "sample True"),
        (lambda: SMALL.row(True), "row index True"),
        (lambda: pi_graph(SMALL).edge(True, 2), "vertex index True"),
        (lambda: pi_graph(SMALL).edge(1, 2.0), "vertex index 2.0"),
        (lambda: pi_graph(SMALL).edge(9, 2.0), "vertex index 2.0"),
    ],
    ids=["budget-bool", "budget-float", "rows-bool",
         "len-float", "offset-float", "sample-bool", "row-bool", "edge-bool", "edge-float",
         "edge-float-beside-out-of-range"],
)
def test_counts_and_indices_refuse_bools_and_floats(call, message):
    """A bool is not taken as 1, nor a float used as it is: each is a
    TypeError naming the argument."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)} is not an int$"):
        call()


@pytest.mark.parametrize("index", [True, 1.0])
@pytest.mark.parametrize("move", [dc_triple, commute_swap, local_rotate])
def test_moves_refuse_a_bool_or_float_row_index(move, index):
    """A row index True is not read as row 1, nor 1.0 as an int, by the
    moves that take one."""
    with pytest.raises(TypeError, match=f"^row index {index} is not an int$"):
        move(SMALL, index)
