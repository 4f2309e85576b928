"""Rows as content intervals and horizontal strips as ordered row lists.

A row is the interval of cell contents [lo, hi]; the textual form a/b
means lo = b, hi = a - 1 (so "4/0" is [0, 3] with four cells). A
horizontal strip is an ordered, possibly overlapping sequence of rows;
the order carries meaning, since the pairing m_pair shifts the
later-indexed row before intersecting when the earlier row starts
further right.

Everything here is a pure function on immutable values: the pairing and
the predicates built from it (commutes, prec), the similarity moves
(translate, cycle, rotate, commute_swap), the deletion-contraction split
dc_triple, and the path strip of a composition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    NonCommutingSwap,
    ParseError,
    PreconditionViolated,
)
from .qsymfunc import _INT_RE, _check_int


@dataclass(frozen=True, order=True)
class Row:
    lo: int
    hi: int

    def __post_init__(self):
        _check_int(self.lo, "row bound")
        _check_int(self.hi, "row bound")
        if self.hi < self.lo:
            raise ValueError(f"empty row [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def shifted(self, d: int) -> "Row":
        return Row(self.lo + d, self.hi + d)

    @property
    def literal(self) -> str:
        return f"{self.hi + 1}/{self.lo}"

    def __str__(self):
        return self.literal


@dataclass(frozen=True)
class HorizontalStrip:
    rows: tuple[Row, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a strip needs at least one row")
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.size for r in self.rows)

    @property
    def min_content(self) -> int:
        return min(r.lo for r in self.rows)

    @property
    def is_unicellular(self) -> bool:
        return all(r.size == 1 for r in self.rows)

    def row(self, i: int) -> Row:
        """1-based row access."""
        if not 1 <= _check_int(i, "row index") <= self.n:
            raise IndexOutOfRange(f"row index {i} not in 1..{self.n}")
        return self.rows[i - 1]

    @property
    def literal(self) -> str:
        return ",".join(r.literal for r in self.rows)

    def __str__(self):
        return self.literal


def parse_row(text: str) -> Row:
    pieces = text.strip().split("/")
    if len(pieces) != 2 or not all(_INT_RE.fullmatch(p) for p in pieces):
        raise ParseError(f"bad row literal {text!r} (want a/b)")
    a, b = map(int, pieces)
    if a <= b:
        raise ParseError(f"bad row literal {text!r}: need a > b")
    return Row(lo=b, hi=a - 1)


def parse_strip(text: str) -> HorizontalStrip:
    pieces = text.split(",")
    if any(not p.strip() for p in pieces):
        raise ParseError(f"bad strip literal {text!r}")
    return HorizontalStrip(tuple(parse_row(p) for p in pieces))


def m_pair(r: Row, s: Row) -> int:
    """Pairing of an ordered row pair, r carrying the earlier index.

    When r starts at or left of s this is the plain overlap; otherwise s
    is shifted right by one before intersecting.
    """
    d = 1 if r.lo > s.lo else 0
    return max(0, min(r.hi, s.hi + d) - max(r.lo, s.lo + d) + 1)


def m_ij(strip: HorizontalStrip, i: int, j: int) -> int:
    """m_pair in index order: the earlier of i, j plays the first slot."""
    if i == j:
        raise IndexOutOfRange("need two distinct rows")
    ri, rj = strip.row(i), strip.row(j)
    return m_pair(ri, rj) if i < j else m_pair(rj, ri)


def commutes(r: Row, s: Row) -> bool:
    """True iff the pairing is symmetric for this unordered pair."""
    return m_pair(r, s) == m_pair(s, r)


def prec(strip: HorizontalStrip, i: int, j: int) -> bool:
    """Row i sits inside row j as far as the pairing can see: m_ij = |R_i|."""
    return m_ij(strip, i, j) == strip.row(i).size


def translate(strip: HorizontalStrip, d: int) -> HorizontalStrip:
    return HorizontalStrip(tuple(r.shifted(d) for r in strip.rows))


def cycle(strip: HorizontalStrip) -> HorizontalStrip:
    """Move the first row to the end, shifted left by one."""
    first, rest = strip.rows[0], strip.rows[1:]
    return HorizontalStrip(rest + (first.shifted(-1),))


def rotate(strip: HorizontalStrip, c: int) -> HorizontalStrip:
    """Reverse the row order and reflect each interval through c:
    [lo, hi] becomes [c - hi, c - lo]."""
    return HorizontalStrip(
        tuple(Row(c - r.hi, c - r.lo) for r in reversed(strip.rows))
    )


def commute_swap(strip: HorizontalStrip, i: int) -> HorizontalStrip:
    """Exchange rows i and i+1, allowed only when they commute."""
    if not 1 <= _check_int(i, "row index") <= strip.n - 1:
        raise IndexOutOfRange(f"swap position {i} not in 1..{strip.n - 1}")
    a, b = strip.rows[i - 1], strip.rows[i]
    if not commutes(a, b):
        raise NonCommutingSwap(f"rows {i} and {i + 1} do not commute")
    rows = list(strip.rows)
    rows[i - 1], rows[i] = b, a
    return HorizontalStrip(tuple(rows))


def dc_triple(strip: HorizontalStrip, i: int):
    """Deletion-contraction companions at position i.

    Requires rows i, i+1 noncommuting with the earlier row starting
    strictly left. Returns (swapped strip, merged strip) where the
    merged strip replaces the pair by union then intersection, the
    intersection dropped when empty.
    """
    if not 1 <= _check_int(i, "row index") <= strip.n - 1:
        raise IndexOutOfRange(f"position {i} not in 1..{strip.n - 1}")
    a, b = strip.rows[i - 1], strip.rows[i]
    if not (b.lo > a.lo) or commutes(a, b):
        raise PreconditionViolated(
            f"rows {i}, {i + 1} must be noncommuting with row {i} starting left"
        )
    swapped = list(strip.rows)
    swapped[i - 1], swapped[i] = b, a
    union = Row(a.lo, max(a.hi, b.hi))
    merged = list(strip.rows[: i - 1])
    merged.append(union)
    if b.lo <= a.hi:
        merged.append(Row(b.lo, min(a.hi, b.hi)))
    merged.extend(strip.rows[i + 1 :])
    return HorizontalStrip(tuple(swapped)), HorizontalStrip(tuple(merged))


def strip_of_composition(alpha) -> HorizontalStrip:
    """The strip whose interval graph is the path of alpha: reversed
    partial sums, row i running from the (n-i)th to the (n-i+1)th sum."""
    alpha = tuple(alpha)
    prefix = [0]
    for part in alpha:
        prefix.append(prefix[-1] + part)
    n = len(alpha)
    rows = tuple(
        Row(prefix[n - i], prefix[n - i + 1] - 1) for i in range(1, n + 1)
    )
    return HorizontalStrip(rows)
