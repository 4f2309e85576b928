"""Rows as content intervals and horizontal strips as ordered row lists.

A row is the interval of cell contents [lo, hi]; the textual form a/b
means lo = b, hi = a - 1 (so "4/0" is [0, 3] with four cells). A
horizontal strip is an ordered, possibly overlapping sequence of rows;
the order carries meaning, since the pairing m_pair shifts the
later-indexed row before intersecting when the earlier row starts
further right.

Everything here is a pure function on immutable values: the pairing and
the predicates built from it (commutes, prec), the weight statistics
n_lambda and total_edge_weight, the similarity moves (translate, cycle,
rotate, commute_swap), the deletion-contraction split dc_triple, and
the concatenation calculus used to mirror composition products on
strips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    NonCommutingSwap,
    NormalizationFailed,
    ParseError,
    PreconditionViolated,
)
from .qsymfunc import _check_partition


@dataclass(frozen=True, order=True)
class Row:
    lo: int
    hi: int

    def __post_init__(self):
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
    def cell_count(self) -> int:
        return sum(r.size for r in self.rows)

    @property
    def min_content(self) -> int:
        return min(r.lo for r in self.rows)

    @property
    def max_content(self) -> int:
        return max(r.hi for r in self.rows)

    @property
    def is_unicellular(self) -> bool:
        return all(r.size == 1 for r in self.rows)

    def row(self, i: int) -> Row:
        """1-based row access."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"row index {i} not in 1..{self.n}")
        return self.rows[i - 1]

    @property
    def literal(self) -> str:
        return ",".join(r.literal for r in self.rows)

    def __str__(self):
        return self.literal


_ROW_RE = re.compile(r"^(-?\d+)/(-?\d+)$")


def parse_row(text: str) -> Row:
    m = _ROW_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad row literal {text!r} (want a/b)")
    a, b = int(m.group(1)), int(m.group(2))
    if a <= b:
        raise ParseError(f"bad row literal {text!r}: need a > b")
    return Row(lo=b, hi=a - 1)


def parse_strip(text: str) -> HorizontalStrip:
    pieces = [p for p in text.split(",")]
    if not pieces or any(not p.strip() for p in pieces):
        raise ParseError(f"bad strip literal {text!r}")
    return HorizontalStrip(tuple(parse_row(p) for p in pieces))


def format_strip(strip: HorizontalStrip) -> str:
    return strip.literal


def _overlap(r: Row, s: Row) -> int:
    return max(0, min(r.hi, s.hi) - max(r.lo, s.lo) + 1)


def m_pair(r: Row, s: Row) -> int:
    """Pairing of an ordered row pair, r carrying the earlier index.

    When r starts at or left of s this is the plain overlap; otherwise s
    is shifted right by one before intersecting.
    """
    if r.lo <= s.lo:
        return _overlap(r, s)
    return _overlap(r, s.shifted(1))


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


def n_lambda(strip: HorizontalStrip) -> int:
    """Sum of (i-1) * sigma_i over the decreasing rearrangement sigma of
    the row sizes; equals the sum of pairwise minima."""
    sizes = sorted(strip.sizes, reverse=True)
    return sum(i * s for i, s in enumerate(sizes))


def total_edge_weight(strip: HorizontalStrip) -> int:
    rows = strip.rows
    return sum(
        m_pair(rows[i], rows[j])
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )


def translate(strip: HorizontalStrip, d: int) -> HorizontalStrip:
    return HorizontalStrip(tuple(r.shifted(d) for r in strip.rows))


def normalize_translation(strip: HorizontalStrip) -> HorizontalStrip:
    """Translate so the minimum content is 0."""
    return translate(strip, -strip.min_content)


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
    if not 1 <= i <= strip.n - 1:
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
    if not 1 <= i <= strip.n - 1:
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


def hl_strip(partition) -> HorizontalStrip:
    """All rows left-justified at content 0, row sizes the parts of the
    given partition (a bool or a float part is a TypeError)."""
    parts = _check_partition(partition)
    return HorizontalStrip(tuple(Row(0, p - 1) for p in parts))


def _cycle_until(strip: HorizontalStrip, good) -> HorizontalStrip:
    s = strip
    for _ in range(strip.n):
        if good(s):
            return s
        s = cycle(s)
    raise NormalizationFailed(
        f"no cyclic shift of {strip.literal} has the required unique extreme cell"
    )


def _unique_max_in_first(s: HorizontalStrip) -> bool:
    top = s.max_content
    holders = [r for r in s.rows if r.hi == top]
    return len(holders) == 1 and s.rows[0].hi == top


def _unique_min_in_last(s: HorizontalStrip) -> bool:
    bottom = s.min_content
    holders = [r for r in s.rows if r.lo == bottom]
    return len(holders) == 1 and s.rows[-1].lo == bottom


def _concat_blocks(lam: HorizontalStrip, mu: HorizontalStrip):
    """Normalized pieces for concatenation: lam cycled so its unique
    maximal cell leads, mu cycled so its unique minimal cell trails and
    translated to start at content 0, and the join height N."""
    lam = _cycle_until(lam, _unique_max_in_first)
    mu = _cycle_until(mu, _unique_min_in_last)
    mu = normalize_translation(mu)
    return lam, mu, lam.max_content + 1


def strip_concat(lam: HorizontalStrip, mu: HorizontalStrip) -> HorizontalStrip:
    lam, mu, n = _concat_blocks(lam, mu)
    return HorizontalStrip(
        tuple(r.shifted(n) for r in mu.rows) + lam.rows
    )


def strip_near_concat(lam: HorizontalStrip, mu: HorizontalStrip) -> HorizontalStrip:
    """Concatenate, then merge the touching pair (the shifted last row
    of mu and the first row of lam) into its union; the intersection of
    that pair is empty by construction and is dropped."""
    lam, mu, n = _concat_blocks(lam, mu)
    shifted = [r.shifted(n) for r in mu.rows]
    union = Row(lam.rows[0].lo, shifted[-1].hi)
    return HorizontalStrip(
        tuple(shifted[:-1]) + (union,) + lam.rows[1:]
    )


def strip_near_concat_power(strip: HorizontalStrip, k: int) -> HorizontalStrip:
    if k < 1:
        raise ValueError("power must be at least 1")
    out = strip
    for _ in range(k - 1):
        out = strip_near_concat(out, strip)
    return out


def strip_compose(alpha, strip: HorizontalStrip) -> HorizontalStrip:
    """Concatenate near-concatenation powers of the strip, one per part."""
    alpha = tuple(alpha)
    if not alpha or any(p < 1 for p in alpha):
        raise ValueError("need a composition with positive parts")
    out = None
    for part in alpha:
        block = strip_near_concat_power(strip, part)
        out = block if out is None else strip_concat(out, block)
    return out
