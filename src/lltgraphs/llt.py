"""Tableaux on horizontal strips, the inversion statistic, and the
resulting q-weighted symmetric polynomials.

A tableau fills each row with a weakly increasing sequence of entries
at most k. Two cells u (row i) and v (row j), i < j, invert when they
share a content and the earlier row's entry is larger, or the earlier
cell's content is one higher and its entry is smaller. Summing
q^(inversions) x^(content multiset) over all fillings gives the strip's
polynomial; for unicellular strips the same sum can be read off the
cell graph of wgraph.gamma_graph by counting ascents of vertex
colourings.

The statistic is local in content, as in Haglund-Haiman-Loehr (JAMS
2005), so llt_poly never lists tableaux. It places the letters 1, 2, ...
in turn, remembers only how many cells of each row are filled, and
counts each letter's inversions as overlaps between the content
intervals it fills and those still empty. partition_dp drives such a
letter-by-letter count once per partition of the total and reads the
other monomials off by symmetry; the colouring sums of chromatic.py run
on the same driver, one colour class per letter. No tableau is ever
built: the independent cell-pair count lives in the test oracle.
"""

from __future__ import annotations

from itertools import product

from .errors import PreconditionViolated
from .qsymfunc import BasisExpansion, QPoly, SymFunc
from .strips import HorizontalStrip, Row


def _rows_interact(r: Row, s: Row) -> bool:
    return not (r.hi < s.lo - 1 or s.hi < r.lo - 1)


def _step_tables(ra: Row, rb: Row):
    """Tables for the letter DP, ra the earlier row: same[x][y] counts cells
    of rb with index < x facing cells of ra with index >= y at equal content;
    below[x][y], cells of ra with index < x facing cells of rb with index
    >= y one content lower."""
    def overlap(lo1, hi1, lo2, hi2):
        return max(0, min(hi1, hi2) - max(lo1, lo2) + 1)

    same = [[overlap(rb.lo, rb.lo + x - 1, ra.lo + y, ra.hi) for y in range(ra.size + 1)]
            for x in range(rb.size + 1)]
    below = [[overlap(ra.lo, ra.lo + x - 1, rb.lo + y + 1, rb.hi + 1) for y in range(rb.size + 1)]
             for x in range(ra.size + 1)]
    return same, below


def _advances(f: tuple[int, ...], sizes: tuple[int, ...], m: int) -> list:
    """Every g with f <= g <= sizes rowwise and m more cells than f."""
    total = sum(f) + m
    if total == sum(sizes):
        return [sizes]
    heads = product(*(range(x, min(s, x + m) + 1) for x, s in zip(f[:-1], sizes[:-1])))
    return [head + (total - sum(head),) for head in heads
            if f[-1] <= total - sum(head) <= sizes[-1]]


def partition_dp(k: int, total: int, start, end, step) -> SymFunc:
    """The symmetric polynomial in k variables of degree total whose
    coefficient on x^lam is the count a letter DP reaches at state end.

    From the layer {start: {0: 1}}, mapping each state to its count by
    power of q, step(layer, m) places the next letter m times and returns
    the next layer. The DP runs once per partition lam of total with at
    most k parts, letter i placed lam_i times, and partitions with a
    common prefix share their layers. The caller must count a symmetric
    sum, since only these m-coordinates are computed.
    """
    coeffs: dict[tuple[int, ...], dict[int, int]] = {}

    def descend(layer: dict, lam: tuple[int, ...], left: int):
        if not left:
            coeffs[lam] = layer.get(end, {})
            return
        for m in range(min(left, lam[-1] if lam else left), 0, -1):
            if left - m > m * (k - len(lam) - 1):  # the rest no longer fits
                break
            descend(step(layer, m), lam + (m,), left - m)

    descend({start: {0: 1}}, (), total)
    return SymFunc(k, total, ((lam, QPoly(poly)) for lam, poly in coeffs.items()))


def llt_poly(strip: HorizontalStrip, k: int | None = None) -> SymFunc:
    """Sum of q^(inversions) x^(entry counts) over all tableaux with
    entries at most k. Defaults to k = row count, which is enough
    variables to pin down the strip's symmetric function.

    A dynamic programme on partition_dp places the letters 1, 2, ... in
    turn. Its state f counts the filled cells of each row. Placing a
    letter in cells [f_i, g_i) of each row i adds, for each interacting
    row pair a < b, the new cells of b facing still-empty cells of a at
    equal content and the new cells of a facing still-empty cells of b
    one content lower. The result is symmetric and stores just its
    m-coordinates; SymFunc.terms() spreads them over the monomials.
    """
    if k is None:
        k = strip.n
    if k < 1:
        raise ValueError("need at least one variable")
    rows, sizes = strip.rows, strip.sizes
    pairs = [(a, b, *_step_tables(rows[a], rows[b]))
             for a in range(len(rows)) for b in range(a + 1, len(rows))
             if _rows_interact(rows[a], rows[b])]

    def step(layer: dict, m: int) -> dict:
        out: dict[tuple[int, ...], dict[int, int]] = {}
        for f, poly in layer.items():
            for g in _advances(f, sizes, m):
                inv = sum(same[g[b]][g[a]] - same[f[b]][g[a]]
                          + below[g[a]][g[b]] - below[f[a]][g[b]]
                          for a, b, same, below in pairs)
                acc = out.get(g)
                if acc is None:
                    acc = out[g] = {}
                for e, c in poly.items():
                    acc[e + inv] = acc.get(e + inv, 0) + c
        return out

    return partition_dp(k, strip.cell_count, (0,) * len(rows), sizes, step)


def two_row_schur(a: int, b: int, m: int) -> BasisExpansion:
    """Schur expansion of a two-row strip with sizes a >= b and edge
    weight m: the sum over t of q^min(m, t) s_(a+b-t, t)."""
    if not a >= b >= m >= 0:
        raise PreconditionViolated(f"need a >= b >= m >= 0, got ({a}, {b}, {m})")
    coeffs = {}
    for t in range(b + 1):
        lam = (a + b - t, t) if t else ((a + b,) if a + b else ())
        coeffs[lam] = QPoly.q_power(min(m, t))
    return BasisExpansion("s", a + b, coeffs)
