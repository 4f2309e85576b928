"""Structural row predicates and rearrangement moves for horizontal strips.

Covers noncommuting paths, strict pairs and strict sequences, the nesting
property, a local block rotation that preserves both the weighted graph and
the polynomial, and a bounded breadth-first search for a move sequence
relating two strips.

The search's states are flat (lo1, hi1, lo2, hi2, ...) row tuples at
minimum content 0.  A state is not offered a move whose result is already
found: the rotate or commute_swap that reached it, an involution leading
back to its parent, and after a commute_swap t the rotate, the cycle when
t >= 2 and each commute_swap u <= t-2, whose results a commutation identity
places among the states found from its parent's earlier moves.  Leaving
them out changes neither the order in which states are found nor their
parents; _neighbours argues why.
"""

from __future__ import annotations

from collections import deque
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


def _neighbours(state: State, back: Optional[Move] = None) -> Iterable[tuple[Move, State]]:
    """The search's moves from a normalised flat state, as (move, state)
    pairs with each state normalised: cycle, rotate 0, every allowed
    commute_swap, then every allowed local_rotate.  local_rotate is tried
    only where row t starts in the column after row t-1 ends, and only
    when the caller reaches it, so a search never builds one past its stop.

    `back` is the move that reached `state` from its parent P.  The moves
    whose results are already found are left out, and the others keep
    their order.  When `back` is ("rotate", 0) or ("commute_swap", t), that
    move is left out: both are involutions on normalised states, so it
    only leads back to P.  When `back` is ("commute_swap", t) on n rows,
    so that state = swap_t(P), three more are left out:

    A. rotate 0, since rotate(swap_t(P)) = swap_{n-t}(rotate(P));
    B. cycle when t >= 2, since cycle(swap_t(P)) = swap_{t-1}(cycle(P));
    C. commute_swap u for u <= t-2, since swaps of disjoint row pairs
       commute: swap_u(swap_t(P)) = swap_t(swap_u(P)).

    Reversing or cycling the rows keeps whether two rows commute, so each
    right-hand swap is allowed.  Its inner state Q (rotate(P), cycle(P) or
    swap_u(P)) comes before swap_t in P's list, so a breadth-first search
    finds Q before `state` and takes Q from its queue first.  Q offers the
    outer swap too, unless Q was itself reached by that swap, when the
    result is Q's parent, or skips it by rule C, when the result is found
    by induction on the order in which states leave the queue.  Q may also
    be found without being offered, by these rules at P, and the same
    induction covers it.  So every state left out here is already found
    when `state` is expanded, and the search finds the same states, in the
    same order and from the same parents, as when every move is offered.
    """
    swapped = back[1] if back is not None and back[0] == "commute_swap" else 0
    found = []
    if swapped < 2:
        lo, hi = state[0], state[1]
        # the cycled row drops by one, so the minimum falls to -1 when it held 0
        if lo == 0:
            cycled = tuple([x + 1 for x in state[2:]]) + (0, hi)
        else:
            cycled = state[2:] + (lo - 1, hi - 1)
        found.append((("cycle",), cycled))
    if not swapped and back != ("rotate", 0):
        # reflecting through the top content maps the reversed flat tuple
        # (hi_n, lo_n, ...) onto the rotated rows (top - hi_n, top - lo_n, ...)
        top = max(state[1::2])
        found.append((("rotate", 0), tuple([top - x for x in reversed(state)])))
    n2 = len(state)
    for j in range(2 * max(swapped - 1, 1), n2, 2):
        t = j // 2
        if t == swapped:
            continue
        a, b, c, d = state[j - 2 : j + 2]
        # commutes(): with one row starting strictly left of the other, the
        # pairing shifts it right by one in one order only, which changes
        # the overlap unless the other ends inside it or a content
        # separates them
        if a < c:
            if d > b and b + 2 > c:
                continue
        elif a > c and b > d and d + 2 > a:
            continue
        found.append((("commute_swap", t), state[: j - 2] + (c, d, a, b) + state[j + 2 :]))
    for j in range(2, n2, 2):
        if state[j] == state[j - 1] + 1:
            return chain(found, _local_rotations(state, j))
    return found


def _local_rotations(state: State, first: int) -> Iterator[tuple[Move, State]]:
    """The allowed local_rotate moves of a flat state, one at a time, for
    each row t = j/2 + 1, j >= first, starting right after row t-1 ends."""
    strip = HorizontalStrip(tuple(map(Row, state[::2], state[1::2])))
    for j in range(first, len(state), 2):
        if state[j] != state[j - 1] + 1:
            continue
        t = j // 2 + 1
        try:
            rotated = local_rotate(strip, t)
        except (HypothesisViolated, BlockNotSeparable):
            continue
        yield ("local_rotate", t), _state(rotated)


def _search(start: State, goal: State, budget: int) -> dict[State, Optional[State]]:
    """Breadth-first search from `start` over _neighbours, stopping at
    `goal` or once `budget` states are found.  Returns each found state's
    parent state (None for `start`), in the order the states were found."""
    parent: dict[State, Optional[State]] = {start: None}
    # the queue keeps the move that reached each state, for _neighbours
    frontier = deque([(start, None)] if start != goal else [])
    while frontier:
        node, back = frontier.popleft()
        for move, nxt in _neighbours(node, back):
            if nxt in parent:
                continue
            parent[nxt] = node
            if nxt == goal or len(parent) >= budget:
                frontier.clear()
                break
            frontier.append((nxt, move))
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
    current, back = lam, None
    for node, nxt in zip(path, path[1:]):
        back = next(move for move, state in _neighbours(node, back) if state == nxt)
        if current.min_content != 0:
            moves.append(("translate", -current.min_content))
            current = translate(current, -current.min_content)
        moves.append(back)
        current = apply_move(current, back)
    shift = mu.min_content - current.min_content
    if shift != 0:
        moves.append(("translate", shift))
        current = translate(current, shift)
    if current.rows != mu.rows:
        raise WitnessReplayFailed(f"moves {moves} do not rebuild {mu.literal}")
    return moves
