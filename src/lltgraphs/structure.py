"""Structural row predicates and rearrangement moves for horizontal strips.

Covers noncommuting paths, strict pairs and strict sequences, the nesting
property, a local block rotation that preserves both the weighted graph and
the polynomial, and a bounded breadth-first search for a move sequence
relating two strips.

The search's states are flat (lo1, hi1, lo2, hi2, ...) row tuples at
minimum content 0, and its moves are small int codes; _move decodes one
into its public move tuple, and only the replay of the found path calls
it.  A state is not offered a move whose result is already found: the
rotate or commute_swap that reached it, an involution leading back to its
parent, after a commute_swap t the rotate, the cycle when t >= 2 and each
commute_swap u <= t-2, and after a cycle and then a rotate the cycle,
whose results an identity of the moves places among the results of a
state expanded earlier.  Leaving them out changes neither the order in
which states are found nor their parents; _neighbours argues why.  Each
candidate then costs one dict probe in _search.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional

from .errors import (
    BlockNotSeparable,
    GraphsNotIsomorphic,
    HypothesisViolated,
    IndexOutOfRange,
    PreconditionViolated,
    WitnessReplayFailed,
)
from .qsymfunc import _check_int
from .strips import (
    HorizontalStrip,
    Row,
    commute_swap,
    commutes,
    cycle,
    m_ij,
    prec,
    rotate,
    translate,
)
from .wgraph import canonical_form, pi_graph

Move = tuple
State = tuple  # rows as one flat (lo1, hi1, lo2, hi2, ...) tuple, minimum content 0

# the search's move codes: commute_swap t is t, local_rotate t is -2 - t and
# rotate 0 has two, the second for a state that a cycle reached; _START
# stands for no move, at the search's start
_START, _CYCLE, _ROTATE, _ROTATE_AFTER_CYCLE = 0, -1, -2, -3


def find_minimal_ncp(strip: HorizontalStrip, i: int, j: int) -> Optional[tuple[int, ...]]:
    """Row indices of a shortest increasing noncommuting chain of >= 3 rows
    from row i to row j, by a breadth-first search that skips the direct
    step; None when no such chain exists. A shortest chain is minimal: a
    shorter subsequence with the same ends would be a shorter chain."""
    strip.row(i)
    strip.row(j)
    if i >= j:
        raise IndexOutOfRange(f"need i < j, got i={i} and j={j}")
    parent: dict[int, Optional[int]] = {i: None}
    frontier = deque([i])
    while frontier:
        u = frontier.popleft()
        for v in range(u + 1, j + 1):
            if v in parent:
                continue
            if u == i and v == j:
                continue
            if commutes(strip.row(u), strip.row(v)):
                continue
            parent[v] = u
            if v == j:
                frontier.clear()
                break
            frontier.append(v)
    if j not in parent:
        return None
    chain = [j]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return tuple(chain)


def _crosses(strip: HorizontalStrip, i: int, j: int) -> bool:
    """Rows i and j overlap partially (0 < m_ij < both sizes), or are
    disjoint and together overlap some third row k in more cells than it
    holds: m_ik + m_jk > |R_k|."""
    m = m_ij(strip, i, j)
    if m == 0:
        return any(
            m_ij(strip, i, k) + m_ij(strip, j, k) > strip.row(k).size
            for k in range(1, strip.n + 1)
            if k not in (i, j)
        )
    return m < min(strip.row(i).size, strip.row(j).size)


def is_strict_pair(strip: HorizontalStrip, i: int, j: int) -> bool:
    """True when rows i < j with lo(R_i) < lo(R_j) either overlap partially
    (0 < m < both sizes) or are disjoint but jointly overfill a third row."""
    ri, rj = strip.row(i), strip.row(j)
    return i < j and ri.lo < rj.lo and _crosses(strip, i, j)


def strict_pairs(strip: HorizontalStrip) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, strip.n + 1)
        for j in range(i + 1, strip.n + 1)
        if is_strict_pair(strip, i, j)
    ]


def strict_sequences(strip: HorizontalStrip) -> list[tuple[tuple[int, ...], int]]:
    """All (indices, h) pairs where the indexed rows sit end to end in content,
    an outside row h meets every one of them, and the interval condition holds.

    One entry per qualifying sequence-witness combination, sorted.
    """
    n = strip.n
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[int]) -> None:
        if len(chain) >= 2:
            chains.append(tuple(chain))
        want = strip.row(chain[-1]).hi + 1
        for nxt in range(chain[-1] + 1, n + 1):
            if strip.row(nxt).lo == want:
                chain.append(nxt)
                grow(chain)
                chain.pop()

    for start in range(1, n + 1):
        grow([start])

    found = []
    for chain in chains:
        j1, jk = chain[0], chain[-1]
        for h in list(range(1, j1)) + list(range(jk + 1, n + 1)):
            if any(m_ij(strip, t, h) == 0 for t in chain):
                continue
            rh = strip.row(h)
            left_bound = strip.row(j1).lo + (1 if j1 > h else 0)
            right_bound = rh.hi + (1 if h > jk else 0)
            if left_bound <= rh.lo and right_bound <= strip.row(jk).hi:
                found.append((chain, h))
    found.sort()
    return found


def is_nesting(strip: HorizontalStrip) -> bool:
    """True when every row pair is disjoint or related by near-containment,
    and no disjoint pair jointly overfills a third row. Since m_ij is at
    most both sizes, a meeting pair is near-contained exactly when it does
    not overlap partially, so this is: no pair crosses."""
    return not any(_crosses(strip, i, j) for i, j in combinations(range(1, strip.n + 1), 2))


def _classify_companions(strip: HorizontalStrip, i: int) -> tuple[set[int], set[int]]:
    """Split the rows other than i-1, i by their overlap pattern with the pair
    and verify the five coverage conditions; returns the companion sets of
    row i-1 and of row i."""
    outside = [t for t in range(1, strip.n + 1) if t not in (i - 1, i)]
    meets = {t: (m_ij(strip, i - 1, t) > 0, m_ij(strip, i, t) > 0) for t in outside}
    both_zero = {t for t in outside if meets[t] == (False, False)}
    both_pos = {t for t in outside if meets[t] == (True, True)}
    left_only = {t for t in outside if meets[t] == (True, False)}
    right_only = {t for t in outside if meets[t] == (False, True)}
    for t in outside:
        if t in both_pos and not (prec(strip, i - 1, t) and prec(strip, i, t)):
            raise HypothesisViolated(1, t)
        if t in left_only and not prec(strip, t, i - 1):
            raise HypothesisViolated(2, t)
        if t in right_only and not prec(strip, t, i):
            raise HypothesisViolated(3, t)
        # 4 and 5: a row inside one row of the pair misses the other row
        # and every row missing the pair, and sits inside every row meeting both
        for condition, own, other in ((4, i - 1, i), (5, i, i - 1)):
            if prec(strip, t, own) and (
                m_ij(strip, other, t) != 0
                or any(m_ij(strip, a, t) != 0 for a in both_zero if a != t)
                or any(not prec(strip, t, b) for b in both_pos if b != t)
            ):
                raise HypothesisViolated(condition, t)
    return left_only, right_only


def local_rotate(strip: HorizontalStrip, i: int) -> HorizontalStrip:
    """Reflect the block formed by rows i-1, i and their companion rows.

    Requires row i to start in the column right after row i-1 ends.  A
    companion of one row of the pair meets it but not the other.  The first
    cut = 0, 1, ..., n-1 that works is taken: cycle `cut` times, which must
    leave the pair adjacent with row i-1's companions before it and row i's
    after it, then bring each companion next to the pair by commuting swaps.
    The block is then reversed and each row [lo, hi] replaced by [N-hi, N-lo]
    with N = lo(row i-1) + hi(row i).  The result has an isomorphic weighted
    graph and the same polynomial.

    The swaps always commute.  Cycling keeps every m_ij, so read m in the
    cycled order, with the pair at A = [a, b] and B = [b+1, e].  Rows r, s
    with r.lo < s.lo fail to commute just when s.lo - 1 <= r.hi < s.hi.
    By conditions 2 and 3 a companion c lies in A if it comes before the
    pair and in B if after.  A row o that c passes is no companion, and
    it meets neither row of the pair: meeting both, it would be [b+1, b+1]
    before the pair and [b, b] after it (condition 1), which cannot hold c
    as condition 4 or 5 demands.  So in columns o lies past the pair's far
    row, or on c's own side, where m = 0 between o and c (conditions 4 and
    5) leaves a free column between them.  Either way o and c commute.
    """
    n = strip.n
    if not 2 <= _check_int(i, "row index") <= n:
        raise IndexOutOfRange(f"need 2 <= i <= {n}, got {i}")
    if strip.row(i).lo != strip.row(i - 1).hi + 1:
        raise PreconditionViolated("row i must start in the column after row i-1 ends")
    left_members, right_members = _classify_companions(strip, i)
    members = left_members | right_members
    for cut in range(n):
        # cycling `cut` times moves the first `cut` rows to the end, one lower
        order = list(range(cut + 1, n + 1)) + list(range(1, cut + 1))
        p = order.index(i - 1)
        if order[p + 1 : p + 2] != [i]:
            continue
        if any(order.index(t) > p for t in left_members):
            continue
        if any(order.index(t) < p for t in right_members):
            continue
        rows = strip.rows[cut:] + tuple(r.shifted(-1) for r in strip.rows[:cut])
        companions = [q for q, t in enumerate(order) if t in members]
        others = [q for q, t in enumerate(order) if t not in members and q not in (p, p + 1)]
        # the block in order: row i-1's companions, the pair, row i's companions
        block = [rows[q] for q in sorted(companions + [p, p + 1])]
        pivot = rows[p].lo + rows[p + 1].hi
        return HorizontalStrip(
            tuple(rows[o] for o in others if o < p)
            + tuple(Row(pivot - r.hi, pivot - r.lo) for r in reversed(block))
            + tuple(rows[o] for o in others if o > p)
        )
    raise BlockNotSeparable("no cycling cut lets the companion rows commute into place")


def apply_move(strip: HorizontalStrip, move: Move) -> HorizontalStrip:
    """Apply one witness move; see similarity_witness for the move alphabet."""
    name = move[0]
    if name == "translate":
        return translate(strip, move[1])
    if name == "cycle":
        return cycle(strip)
    if name == "rotate":
        return rotate(strip, move[1])
    if name == "commute_swap":
        return commute_swap(strip, move[1])
    if name == "local_rotate":
        return local_rotate(strip, move[1])
    raise ValueError(f"unknown move {name!r}")


def _state(strip: HorizontalStrip) -> State:
    """The strip's rows as one flat tuple (lo1, hi1, lo2, hi2, ...),
    translated to minimum content 0."""
    low = strip.min_content
    return tuple(x - low for r in strip.rows for x in (r.lo, r.hi))


def _move(code: int) -> Move:
    """The public move of a search move code; the codes are listed above _START."""
    if code > 0:
        return ("commute_swap", code)
    if code == _CYCLE:
        return ("cycle",)
    if code in (_ROTATE, _ROTATE_AFTER_CYCLE):
        return ("rotate", 0)
    return ("local_rotate", -2 - code)


@lru_cache(maxsize=16)
def _plans(n: int) -> dict[int, tuple[bool, Optional[int], tuple, tuple]]:
    """What _neighbours offers a state of n rows, keyed by the code of the
    move that reached it: whether to cycle; the code of the rotate 0 to
    offer, or None; the windows (j-2, j+2, u) of the commute_swap u moves
    to try, in order; and each j whose row pair (j/2, j/2 + 1) those
    windows skip although the pair may touch.  Cached, so the caller must
    not change it."""
    windows = tuple((j - 2, j + 2, j // 2) for j in range(2, 2 * n, 2))
    every = (True, _ROTATE, windows, ())
    plans = {
        _START: every,
        _CYCLE: (True, _ROTATE_AFTER_CYCLE, windows, ()),
        _ROTATE: (True, None, windows, ()),
        _ROTATE_AFTER_CYCLE: (False, None, windows, ()),  # rule D
    }
    for t in range(2, n + 1):
        plans[-2 - t] = every
    for t in range(1, n):
        # rules A, B and C, and not swap t again; the pairs of rule C may touch
        kept = windows[max(t - 2, 0) : t - 1] + windows[t:]
        plans[t] = (t < 2, None, kept, tuple(range(2, 2 * t - 2, 2)))
    return plans


def _neighbours(
    state: State, back: int = _START, plans: Optional[dict] = None
) -> Iterable[tuple[int, State]]:
    """The search's moves from a normalised flat state, as (code, state)
    pairs with each state normalised and each move a code that _move
    decodes: cycle, rotate 0, every allowed commute_swap, then every
    allowed local_rotate.  local_rotate is tried only where row t starts in
    the column after row t-1 ends, and only when the caller reaches it, so
    a search never builds one past its stop.  `plans` is _plans(n) for the
    state's n rows, which a search looks up once.

    `back` is the code of the move that reached `state` from its parent P,
    or _START.  The moves whose results are already found are left out, and
    the others keep their order.  When `back` is rotate 0 or commute_swap t,
    that move is left out: both are involutions on normalised states, so it
    only leads back to P.  When `back` is commute_swap t on n rows, so that
    state = swap_t(P), three more are left out:

    A. rotate 0, since rotate(swap_t(P)) = swap_{n-t}(rotate(P));
    B. cycle when t >= 2, since cycle(swap_t(P)) = swap_{t-1}(cycle(P));
    C. commute_swap u for u <= t-2, since swaps of disjoint row pairs
       commute: swap_u(swap_t(P)) = swap_t(swap_u(P)).

    When P was reached by a cycle from its parent G and `back` is rotate 0
    (code _ROTATE_AFTER_CYCLE), so that state = rotate(cycle(G)), one more:

    D. cycle, since cycle(rotate(cycle(G))) = rotate(G).  Up to a
       translate, rotate maps rows (x1, ..., xn) to (-xn, ..., -x1), each
       row reflected, and cycle maps them to (x2, ..., xn, x1 - 1); so
       rotate(cycle(x)) = (1 - x1, -xn, ..., -x2), whose cycle is rotate(x).

    Reversing or cycling the rows keeps whether two rows commute, so each
    right-hand swap is allowed, and each right-hand side is a move's result
    from a state Q the search expands before `state`: rotate(P), cycle(P)
    or swap_u(P), which P lists before swap_t, or G.  Assume the search has
    so far found the same states, in the same order and from the same
    parents, as one that offers every move, which holds at the start.  That
    search finds every result of Q by the time it has expanded Q, so each
    state left out here is already found, and leaving it out keeps the
    assumption true after `state` is expanded.

    The swap windows are read in one pass, which also notes a row pair
    that touches, the second row starting right after the first ends.
    Such a pair never commutes.  The pairs the pass skips are the swapped
    pair, which commutes, and those of rule C, which the plan lists.
    """
    if plans is None:
        plans = _plans(len(state) // 2)
    cycles, rotation, windows, unread = plans[back]
    found = []
    if cycles:
        lo, hi = state[0], state[1]
        # the cycled row drops by one, so the minimum falls to -1 when it held 0
        if lo == 0:
            cycled = tuple([x + 1 for x in state[2:]]) + (0, hi)
        else:
            cycled = state[2:] + (lo - 1, hi - 1)
        found.append((_CYCLE, cycled))
    if rotation is not None:
        # reflecting through the top content maps the reversed flat tuple
        # (hi_n, lo_n, ...) onto the rotated rows (top - hi_n, top - lo_n, ...)
        top = max(state[1::2])
        found.append((rotation, tuple(map(top.__sub__, reversed(state)))))
    touching = False
    for i, k, t in windows:
        a, b, c, d = state[i:k]
        # commutes(): with one row starting strictly left of the other, the
        # pairing shifts it right by one in one order only, which changes
        # the overlap unless the other ends inside it or a content
        # separates them
        if a < c:
            if d > b and b + 2 > c:
                if c == b + 1:  # row t+1 starts right after row t ends
                    touching = True
                continue
        elif a > c and b > d and d + 2 > a:
            continue
        found.append((t, state[:i] + (c, d, a, b) + state[k:]))
    if touching or unread and any(state[j] == state[j - 1] + 1 for j in unread):
        return chain(found, _local_rotations(state))
    return found


def _local_rotations(state: State) -> Iterator[tuple[int, State]]:
    """The allowed local_rotate moves of a flat state, one at a time, as
    (code, state) pairs, for each row t starting right after row t-1 ends."""
    strip = HorizontalStrip(tuple(map(Row, state[::2], state[1::2])))
    for j in range(2, len(state), 2):
        if state[j] != state[j - 1] + 1:
            continue
        t = j // 2 + 1
        try:
            rotated = local_rotate(strip, t)
        except (HypothesisViolated, BlockNotSeparable):
            continue
        yield -2 - t, _state(rotated)


def _search(start: State, goal: State, budget: int) -> dict[State, Optional[State]]:
    """Breadth-first search from `start` over _neighbours, stopping at
    `goal` or once `budget` states are found.  Returns each found state's
    parent state (None for `start`), in the order the states were found.

    The queue holds (state, code) pairs, the code of the move that
    reached the state, and _plans is looked up once for the row count.
    Each candidate costs one dict probe: setdefault stores the node as its
    parent when the candidate is new, and the map's size, against the
    count of states found so far, tells whether it was."""
    parent: dict[State, Optional[State]] = {start: None}
    plans = _plans(len(start) // 2)
    frontier = deque([(start, _START)] if start != goal else [])
    found = 1
    while frontier:
        node, back = frontier.popleft()
        for code, nxt in _neighbours(node, back, plans):
            parent.setdefault(nxt, node)
            if len(parent) == found:
                continue
            found += 1
            if nxt == goal or found >= budget:
                frontier.clear()
                break
            frontier.append((nxt, code))
    return parent


def similarity_witness(
    lam: HorizontalStrip, mu: HorizontalStrip, budget: int = 100_000
) -> Optional[list[Move]]:
    """Breadth-first search for a move sequence turning lam into mu exactly.

    Moves are ("translate", d), ("cycle",), ("rotate", c), ("commute_swap", i)
    and ("local_rotate", i).  The search runs over states that are the rows
    as one flat (lo1, hi1, lo2, hi2, ...) tuple shifted to minimum content 0;
    it stops after `budget` distinct states, which must be at least 1.  No
    state is offered a move whose result is already found (see _neighbours),
    so the states are found in the same order, from the same parents, as
    when every move is offered.  Returns None when the budget runs out --
    absence proves nothing.
    """
    if _check_int(budget, "state budget") < 1:
        raise PreconditionViolated(f"the state budget must be at least 1, got {budget}")
    if canonical_form(pi_graph(lam)) != canonical_form(pi_graph(mu)):
        raise GraphsNotIsomorphic("the two strips' weighted graphs are not isomorphic")
    if lam.rows == mu.rows:
        return []
    goal = _state(mu)
    # a translate pair needs no search: its path is the start alone
    parent = _search(_state(lam), goal, budget)
    if goal not in parent:
        return None
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    # each step's move is the first in its node's list that gives the next
    # node, as it was when the search found that node; the replay from lam
    # puts a translate to content 0 before each move that needs it, and
    # one translate onto mu after the last
    moves: list[Move] = []
    current, back = lam, _START
    for node, nxt in zip(path, path[1:]):
        back = next(code for code, state in _neighbours(node, back) if state == nxt)
        if current.min_content != 0:
            moves.append(("translate", -current.min_content))
            current = translate(current, -current.min_content)
        moves.append(_move(back))
        current = apply_move(current, moves[-1])
    shift = mu.min_content - current.min_content
    if shift != 0:
        moves.append(("translate", shift))
        current = translate(current, shift)
    if current.rows != mu.rows:
        raise WitnessReplayFailed(f"moves {moves} do not rebuild {mu.literal}")
    return moves
