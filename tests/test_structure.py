import random
from collections import deque
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from lltgraphs import (
    NoncommutingPath,
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
    similarity_witness,
    strict_pairs,
    strict_sequences,
)
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
    normalize_translation,
    rotate,
    translate,
)
from lltgraphs import structure
from lltgraphs.structure import is_minimal_ncp, is_noncommuting_path

from oracle import raw_strict_sequences


def strip_of(pairs):
    return HorizontalStrip(tuple(Row(a, b) for a, b in pairs))


# ---- noncommuting paths ------------------------------------------------------

def test_path_type_validates_indices():
    p = NoncommutingPath((1, 3, 5))
    assert p.endpoints == (1, 5)
    with pytest.raises(ValueError):
        NoncommutingPath((1, 2))
    with pytest.raises(ValueError):
        NoncommutingPath((1, 3, 3))


def test_five_row_chain_is_minimal():
    strip = parse_strip("6/0,7/5,6/3,4/1,8/3")
    p = find_minimal_ncp(strip, 1, 5)
    assert p == NoncommutingPath((1, 2, 3, 4, 5))
    assert is_minimal_ncp(strip, p.indices)
    assert is_noncommuting_path(strip, p.indices)
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
    assert p.endpoints == (1, 4)
    assert is_minimal_ncp(strip, p.indices)


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
    assert p == NoncommutingPath((1, 4, 5))
    for a, b in zip(p.indices, p.indices[1:]):
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
    def no_search(strip):
        raise AssertionError("a translate pair needs no search")

    monkeypatch.setattr(structure, "_neighbours", no_search)
    lam = parse_strip("3/0,6/3,2/0")
    mu = parse_strip("5/2,8/5,4/2")
    assert similarity_witness(lam, mu) == [("translate", 2)]
    assert similarity_witness(parse_strip("3/1,4/2"), parse_strip("2/0,3/1")) == [
        ("translate", -1)
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


# Witnesses for walk pairs of the benchmark's witness workload.  Breadth-first
# search returns the first chain it meets, so these pin the order in which
# _neighbours yields moves.
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
        (move, tuple((r.lo, r.hi) for r in normalize_translation(out).rows))
        for move, out in found
    ]


def flat_state(strip):
    """The search's state of a strip: its rows as one flat (lo, hi, ...)
    tuple at minimum content 0."""
    return tuple(x for r in normalize_translation(strip).rows for x in (r.lo, r.hi))


def search_neighbours(strip):
    return [
        (move, tuple(zip(state[::2], state[1::2])))
        for move, state in structure._neighbours(flat_state(strip))
    ]


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
def small_strips(draw):
    """1-6 rows of 1-4 cells, every content in 0..8."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(0, 8))
        size = draw(st.integers(1, min(4, 9 - lo)))
        rows.append(Row(lo, lo + size - 1))
    return HorizontalStrip(tuple(rows))


@settings(max_examples=400)
@given(strip=small_strips())
@example(strip=parse_strip("4/0,5/4,8/5,6/1"))
@example(strip=parse_strip("2/0,4/2,5/0"))
@example(strip=parse_strip("2/0,2/0,5/2"))
def test_search_moves_match_public_moves(strip):
    assert search_neighbours(strip) == public_neighbours(strip)


@settings(max_examples=200)
@given(strip=small_strips())
@example(strip=parse_strip("2/0,2/1"))
@example(strip=parse_strip("2/0,4/1,7/4"))
def test_search_leaves_out_only_the_move_back(strip):
    # rotate 0 and every commute_swap are involutions on normalised states,
    # so the entry left out leads back to the state the move came from
    state = flat_state(strip)
    for move, nxt in structure._neighbours(state):
        full = list(structure._neighbours(nxt))
        if move[0] in ("rotate", "commute_swap"):
            kept = [entry for entry in full if entry[0] != move]
            assert len(kept) == len(full) - 1, (strip.literal, move)
            assert dict(full)[move] == state, (strip.literal, move)
        else:
            kept = full
        assert list(structure._neighbours(nxt, move)) == kept, (strip.literal, move)


# ---- the search against a reference breadth-first search ---------------------------

def reference_witness(lam, mu, budget, neighbours):
    """similarity_witness rebuilt on the public moves: breadth-first over
    rows tuples at minimum content 0, in the order of `neighbours` (a
    function of such a tuple), with the same stop rule, then the chain
    replayed with a translate to content 0 after each move that leaves it."""
    if lam.rows == mu.rows:
        return []
    start = tuple((r.lo, r.hi) for r in normalize_translation(lam).rows)
    goal = tuple((r.lo, r.hi) for r in normalize_translation(mu).rows)
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
    if goal not in parent:
        return None
    chain = []
    key = goal
    while parent[key] is not None:
        key, move = parent[key]
        chain.append(move)
    moves = []
    current = lam
    for move in [None] + chain[::-1]:
        if move is not None:
            moves.append(move)
            current = apply_move(current, move)
        if current.min_content != 0:
            moves.append(("translate", -current.min_content))
            current = translate(current, -current.min_content)
    if mu.min_content != 0:
        moves.append(("translate", mu.min_content))
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
