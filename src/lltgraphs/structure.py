"""Structural row predicates and rearrangement moves for horizontal strips.

Covers noncommuting paths, strict pairs and strict sequences, the nesting
property, a local block rotation that preserves both the weighted graph and
the polynomial, and a bounded breadth-first search for a move sequence
relating two strips.

The search's states are flat (lo1, hi1, lo2, hi2, ...) row tuples at
minimum content 0.  A state is not offered the rotate or commute_swap that
reached it, an involution leading back to its parent, so leaving it out
changes neither the order in which states are found nor their number.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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


@dataclass(frozen=True)
class NoncommutingPath:
    """Strictly increasing row indices, consecutive rows pairwise noncommuting."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) < 3:
            raise ValueError("a noncommuting path needs at least three rows")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("path indices must be strictly increasing")

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.indices[0], self.indices[-1]


def is_noncommuting_path(strip: HorizontalStrip, indices: tuple[int, ...]) -> bool:
    """True when indices form an increasing chain of >= 3 rows, each
    consecutive pair noncommuting."""
    if len(indices) < 3:
        return False
    if any(a >= b for a, b in zip(indices, indices[1:])):
        return False
    if indices[0] < 1 or indices[-1] > strip.n:
        return False
    rows = [strip.row(t) for t in indices]
    return all(not commutes(a, b) for a, b in zip(rows, rows[1:]))


def is_minimal_ncp(strip: HorizontalStrip, indices: tuple[int, ...]) -> bool:
    """True when the chain is a noncommuting path and no shorter subsequence
    with the same endpoints is one too."""
    if not is_noncommuting_path(strip, indices):
        return False
    interior = indices[1:-1]
    for size in range(1, len(interior)):
        for picked in combinations(interior, size):
            sub = (indices[0],) + picked + (indices[-1],)
            if is_noncommuting_path(strip, sub):
                return False
    return True


def _reduce_to_minimal(strip: HorizontalStrip, indices: tuple[int, ...]) -> tuple[int, ...]:
    chain = list(indices)
    changed = True
    while changed and len(chain) > 3:
        changed = False
        for p in range(1, len(chain) - 1):
            trimmed = chain[:p] + chain[p + 1 :]
            if is_noncommuting_path(strip, tuple(trimmed)):
                chain = trimmed
                changed = True
                break
    return tuple(chain)


def find_minimal_ncp(strip: HorizontalStrip, i: int, j: int) -> Optional[NoncommutingPath]:
    """Shortest increasing noncommuting chain of >= 3 rows from row i to row j,
    trimmed to a minimal one; None when no such chain exists."""
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
    return NoncommutingPath(_reduce_to_minimal(strip, tuple(chain)))


def is_strict_pair(strip: HorizontalStrip, i: int, j: int) -> bool:
    """True when rows i < j with lo(R_i) < lo(R_j) either overlap partially
    (0 < m < both sizes) or are disjoint but jointly overfill a third row."""
    ri = strip.row(i)
    rj = strip.row(j)
    if i >= j or ri.lo >= rj.lo:
        return False
    m = m_ij(strip, i, j)
    if 0 < m < min(ri.size, rj.size):
        return True
    if m != 0:
        return False
    for k in range(1, strip.n + 1):
        if k in (i, j):
            continue
        if m_ij(strip, i, k) + m_ij(strip, j, k) >= strip.row(k).size + 1:
            return True
    return False


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
    and no disjoint pair jointly overfills a third row."""
    n = strip.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if m_ij(strip, i, j) == 0:
                for k in range(1, n + 1):
                    if k in (i, j):
                        continue
                    if m_ij(strip, i, k) + m_ij(strip, j, k) > strip.row(k).size:
                        return False
            elif not (prec(strip, i, j) or prec(strip, j, i)):
                return False
    return True


def _classify_companions(strip: HorizontalStrip, i: int) -> tuple[set[int], set[int]]:
    """Split the rows other than i-1, i by their overlap pattern with the pair
    and verify the five coverage conditions; returns the companion sets of
    row i-1 and of row i."""
    n = strip.n
    outside = [t for t in range(1, n + 1) if t not in (i - 1, i)]
    both_zero = set()
    both_pos = set()
    left_only = set()
    right_only = set()
    for t in outside:
        ml = m_ij(strip, i - 1, t)
        mr = m_ij(strip, i, t)
        if ml == 0 and mr == 0:
            both_zero.add(t)
        elif ml > 0 and mr > 0:
            both_pos.add(t)
        elif ml > 0:
            left_only.add(t)
        else:
            right_only.add(t)
    for t in outside:
        ml = m_ij(strip, i - 1, t)
        mr = m_ij(strip, i, t)
        if ml > 0 and mr > 0 and not (prec(strip, i - 1, t) and prec(strip, i, t)):
            raise HypothesisViolated(1, t)
        if ml > 0 and mr == 0 and not prec(strip, t, i - 1):
            raise HypothesisViolated(2, t)
        if ml == 0 and mr > 0 and not prec(strip, t, i):
            raise HypothesisViolated(3, t)
        if prec(strip, t, i - 1):
            if m_ij(strip, i, t) != 0:
                raise HypothesisViolated(4, t)
            if any(m_ij(strip, a, t) != 0 for a in both_zero if a != t):
                raise HypothesisViolated(4, t)
            if any(not prec(strip, t, b) for b in both_pos if b != t):
                raise HypothesisViolated(4, t)
        if prec(strip, t, i):
            if m_ij(strip, i - 1, t) != 0:
                raise HypothesisViolated(5, t)
            if any(m_ij(strip, a, t) != 0 for a in both_zero if a != t):
                raise HypothesisViolated(5, t)
            if any(not prec(strip, t, b) for b in both_pos if b != t):
                raise HypothesisViolated(5, t)
    return left_only, right_only


def _arrange_block(
    strip: HorizontalStrip,
    i: int,
    cut: int,
    left_members: set[int],
    right_members: set[int],
) -> Optional[tuple[list[Row], int]]:
    """Cycle `cut` times, then bubble companion rows next to the centre pair
    using commuting swaps only.

    Returns (rows, pair_pos) with pair_pos the 0-based position of row i-1,
    or None when this cut cannot produce a contiguous block.
    """
    n = strip.n
    current = strip
    for _ in range(cut):
        current = cycle(current)
    labels = []
    for q in range(n):
        orig = (q + cut) % n + 1
        if orig == i - 1:
            labels.append("pair_left")
        elif orig == i:
            labels.append("pair_right")
        elif orig in left_members:
            labels.append("left")
        elif orig in right_members:
            labels.append("right")
        else:
            labels.append("out")
    p = labels.index("pair_left")
    if p + 1 >= n or labels[p + 1] != "pair_right":
        return None
    if any(lab == "left" and q > p for q, lab in enumerate(labels)):
        return None
    if any(lab == "right" and q < p for q, lab in enumerate(labels)):
        return None
    rows = list(current.rows)
    target = p + 2
    for _ in range(len(right_members)):
        src = next(q for q in range(target, n) if labels[q] == "right")
        for q in range(src, target, -1):
            if not commutes(rows[q - 1], rows[q]):
                return None
            rows[q - 1], rows[q] = rows[q], rows[q - 1]
            labels[q - 1], labels[q] = labels[q], labels[q - 1]
        target += 1
    target = p - 1
    for _ in range(len(left_members)):
        src = next(q for q in range(target, -1, -1) if labels[q] == "left")
        for q in range(src, target):
            if not commutes(rows[q], rows[q + 1]):
                return None
            rows[q], rows[q + 1] = rows[q + 1], rows[q]
            labels[q], labels[q + 1] = labels[q + 1], labels[q]
        target -= 1
    return rows, p


def local_rotate(strip: HorizontalStrip, i: int) -> HorizontalStrip:
    """Reflect the block formed by rows i-1, i and their companion rows.

    Requires row i to start in the column right after row i-1 ends.  The
    companion rows are gathered next to the pair by cycling and commuting
    swaps, then the whole block is reversed and each row [lo, hi] replaced by
    [N-hi, N-lo] with N = lo(row i-1) + hi(row i).  The result has an
    isomorphic weighted graph and the same polynomial.
    """
    n = strip.n
    if i < 2 or i > n:
        raise IndexOutOfRange(f"need 2 <= i <= {n}, got {i}")
    if strip.row(i).lo != strip.row(i - 1).hi + 1:
        raise PreconditionViolated("row i must start in the column after row i-1 ends")
    left_members, right_members = _classify_companions(strip, i)
    for cut in range(n):
        arranged = _arrange_block(strip, i, cut, left_members, right_members)
        if arranged is None:
            continue
        rows, p = arranged
        x = p - len(left_members)
        y = p + 1 + len(right_members)
        pivot = rows[p].lo + rows[p + 1].hi
        out = list(rows)
        for t in range(x, y + 1):
            source = rows[x + y - t]
            out[t] = Row(pivot - source.hi, pivot - source.lo)
        return HorizontalStrip(tuple(out))
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

    `back` is the move that reached `state`.  When it is ("rotate", 0) or a
    ("commute_swap", t), that move is left out: both are involutions on
    normalised states, so it would only lead back to the parent.  The other
    moves keep their order.
    """
    lo, hi = state[0], state[1]
    # the cycled row drops by one, so the minimum falls to -1 when it held 0
    if lo == 0:
        cycled = tuple([x + 1 for x in state[2:]]) + (0, hi)
    else:
        cycled = state[2:] + (lo - 1, hi - 1)
    found = [(("cycle",), cycled)]
    if back != ("rotate", 0):
        # reflecting through the top content maps the reversed flat tuple
        # (hi_n, lo_n, ...) onto the rotated rows (top - hi_n, top - lo_n, ...)
        top = max(state[1::2])
        found.append((("rotate", 0), tuple([top - x for x in reversed(state)])))
    skip = back[1] if back is not None and back[0] == "commute_swap" else 0
    n2 = len(state)
    for j in range(2, n2, 2):
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
        t = j // 2
        if t != skip:
            swapped = state[: j - 2] + (c, d, a, b) + state[j + 2 :]
            found.append((("commute_swap", t), swapped))
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


def similarity_witness(
    lam: HorizontalStrip, mu: HorizontalStrip, budget: int = 100_000
) -> Optional[list[Move]]:
    """Breadth-first search for a move sequence turning lam into mu exactly.

    Moves are ("translate", d), ("cycle",), ("rotate", c), ("commute_swap", i)
    and ("local_rotate", i).  The search runs over states that are the rows
    as one flat (lo1, hi1, lo2, hi2, ...) tuple shifted to minimum content 0;
    it stops after `budget` distinct states, which must be at least 1.  No
    state is offered the rotate or commute_swap that reached it, since that
    move only leads back to its parent; the states are found in the same
    order as when every move is offered.  Returns None when the budget runs
    out -- absence proves nothing.
    """
    if budget < 1:
        raise PreconditionViolated(f"the state budget must be at least 1, got {budget}")
    if canonical_form(pi_graph(lam)) != canonical_form(pi_graph(mu)):
        raise GraphsNotIsomorphic("the two strips' weighted graphs are not isomorphic")
    if lam.rows == mu.rows:
        return []
    start = _state(lam)
    goal = _state(mu)
    parent: dict[State, Optional[tuple[State, Move]]] = {start: None}
    # a translate pair needs no search: the chain below is translations only
    frontier = deque([start] if start != goal else [])
    while frontier:
        node = frontier.popleft()
        link = parent[node]
        for move, nxt in _neighbours(node, None if link is None else link[1]):
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
    chain.reverse()

    moves: list[Move] = []
    current = lam
    if current.min_content != 0:
        moves.append(("translate", -current.min_content))
        current = translate(current, -current.min_content)
    for move in chain:
        moves.append(move)
        current = apply_move(current, move)
        if current.min_content != 0:
            moves.append(("translate", -current.min_content))
            current = translate(current, -current.min_content)
    if mu.min_content != 0:
        moves.append(("translate", mu.min_content))
        current = translate(current, mu.min_content)
    if current.rows != mu.rows:
        raise WitnessReplayFailed(f"moves {moves} do not rebuild {mu.literal}")
    return moves
