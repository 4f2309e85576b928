"""The paper's closed forms and strip constructions that the acceptance
criteria and relation tests compare the library against. Unlike
oracle.py, which imports nothing from lltgraphs, these use its types."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from lltgraphs import (
    BasisExpansion,
    HorizontalStrip,
    QPoly,
    Row,
    SymFunc,
    WeightedGraph,
    coarsening_multiset,
    commutes,
    cycle,
    translate,
)
from lltgraphs.compositions import as_composition
from lltgraphs.errors import InsufficientVariables, PreconditionViolated


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


def _signed_coarsening_sum(alpha, basis: str) -> BasisExpansion:
    """The sum over the coarsening multiset of alpha of
    (-1)^(len(alpha) - len(lam)) b_lam, b the given basis."""
    alpha = as_composition(alpha)
    coeffs = {
        lam: -mult if (len(alpha) - len(lam)) % 2 else mult
        for lam, mult in coarsening_multiset(alpha).items()
    }
    return BasisExpansion(basis, sum(alpha), coeffs)


def ribbon(alpha, k: int) -> SymFunc:
    """Ribbon Schur polynomial of the composition alpha in k variables,
    via the signed sum of complete homogeneous elements over the
    coarsening multiset of alpha."""
    exp = _signed_coarsening_sum(alpha, "h")
    if k < exp.degree:
        raise InsufficientVariables(
            f"ribbon of size {exp.degree} needs at least {exp.degree} variables"
        )
    return exp.evaluate(k)


def path_graph(alpha) -> WeightedGraph:
    """The weighted path: vertex i weighted by the ith part, unit edges
    joining consecutive vertices."""
    alpha = as_composition(alpha)
    return WeightedGraph.from_edges(
        alpha, [(i, i + 1, 1) for i in range(1, len(alpha))]
    )


def path_p_expansion(alpha) -> BasisExpansion:
    """Power-sum expansion of the weighted path's chromatic function:
    the signed sum over the coarsening multiset."""
    return _signed_coarsening_sum(alpha, "p")


def q_coefficients(c: QPoly) -> dict:
    """The nonzero coefficients of c by exponent, as stored."""
    return {e: c.coeff(e) for e in range(c.degree + 1) if c.coeff(e)} if c else {}


def mask_components(sizes, out) -> list[tuple[int, ...]]:
    """The 0-based rows of an llt_input pair joined, directly or through
    other rows, by a mask bit from a cell of one to a cell of the other,
    each group sorted and the groups by first row."""
    row_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    component = {i: {i} for i in range(len(sizes))}
    for c, mask in enumerate(out):
        for d in range(len(out)):
            if mask >> d & 1:
                joined = component[row_of[c]] | component[row_of[d]]
                for i in joined:
                    component[i] = joined
    return sorted({tuple(sorted(rows)) for rows in component.values()})


def graph_of_input(sizes, out) -> tuple[tuple[int, ...], ...]:
    """The pi_graph matrix read from an llt_input pair alone. Take rows
    r before s, cells p of r and q of s numbered within their rows. A bit
    from q to p puts r.lo - s.lo at q - p, one from p to q at q - p + 1.
    The pair's entry counts the bits from s to r when that gap is at
    most 0, those from r to s when it is above 0, and is 0 when no bit
    joins the rows."""
    firsts = [sum(sizes[:r]) for r in range(len(sizes))]
    row_of = [r for r, size in enumerate(sizes) for _ in range(size)]
    gaps, down, up = {}, Counter(), Counter()  # keyed by (r, s), r < s
    for c, mask in enumerate(out):
        for d in range(len(out)):
            if mask >> d & 1:
                a, b = row_of[c], row_of[d]
                if a > b:  # from cell q of s = a to cell p of r = b
                    gaps[b, a] = (c - firsts[a]) - (d - firsts[b])
                    down[b, a] += 1
                else:  # from cell p of r = a to cell q of s = b
                    gaps[a, b] = (d - firsts[b]) - (c - firsts[a]) + 1
                    up[a, b] += 1
    matrix = [[0] * len(sizes) for _ in sizes]
    for (r, s), gap in gaps.items():
        matrix[r][s] = matrix[s][r] = down[r, s] if gap <= 0 else up[r, s]
    return tuple(map(tuple, matrix))


def is_noncommuting_path(strip: HorizontalStrip, indices: tuple[int, ...]) -> bool:
    """True when indices form an increasing chain of >= 3 rows, each
    consecutive pair noncommuting."""
    if (len(indices) < 3 or any(a >= b for a, b in zip(indices, indices[1:]))
            or indices[0] < 1 or indices[-1] > strip.n):
        return False
    rows = [strip.row(t) for t in indices]
    return all(not commutes(a, b) for a, b in zip(rows, rows[1:]))


def is_minimal_ncp(strip: HorizontalStrip, indices: tuple[int, ...]) -> bool:
    """True when the chain is a noncommuting path and no shorter subsequence
    with the same endpoints is one too."""
    interior = indices[1:-1]
    return is_noncommuting_path(strip, indices) and not any(
        is_noncommuting_path(strip, (indices[0],) + picked + (indices[-1],))
        for size in range(1, len(interior)) for picked in combinations(interior, size))


# ---- the concatenation calculus on strips ----------------------------------

def _max_content(strip: HorizontalStrip) -> int:
    return max(r.hi for r in strip.rows)


def _cycle_until(strip: HorizontalStrip, good) -> HorizontalStrip:
    """The first cyclic shift of strip that good accepts."""
    s = strip
    for _ in range(strip.n):
        if good(s):
            return s
        s = cycle(s)
    raise ValueError(
        f"no cyclic shift of {strip.literal} has the required unique extreme cell"
    )


def _concat_blocks(lam: HorizontalStrip, mu: HorizontalStrip):
    """Normalized pieces for concatenation: lam cycled so its unique
    maximal cell leads, mu cycled so its unique minimal cell trails and
    translated to start at content 0, and the join height N."""
    lam = _cycle_until(lam, lambda s: s.rows[0].hi == _max_content(s)
                       and [r.hi for r in s.rows].count(_max_content(s)) == 1)
    mu = _cycle_until(mu, lambda s: s.rows[-1].lo == s.min_content
                      and [r.lo for r in s.rows].count(s.min_content) == 1)
    return lam, translate(mu, -mu.min_content), _max_content(lam) + 1


def strip_concat(lam: HorizontalStrip, mu: HorizontalStrip) -> HorizontalStrip:
    lam, mu, n = _concat_blocks(lam, mu)
    return HorizontalStrip(tuple(r.shifted(n) for r in mu.rows) + lam.rows)


def strip_near_concat(lam: HorizontalStrip, mu: HorizontalStrip) -> HorizontalStrip:
    """Concatenate, then merge the touching pair (the shifted last row
    of mu and the first row of lam) into its union; the intersection of
    that pair is empty by construction and is dropped."""
    lam, mu, n = _concat_blocks(lam, mu)
    shifted = tuple(r.shifted(n) for r in mu.rows)
    union = Row(lam.rows[0].lo, shifted[-1].hi)
    return HorizontalStrip(shifted[:-1] + (union,) + lam.rows[1:])


def strip_compose(alpha, strip: HorizontalStrip) -> HorizontalStrip:
    """Concatenate near-concatenation powers of the strip, one per part
    of the composition alpha."""
    out = None
    for part in alpha:
        block = strip
        for _ in range(part - 1):
            block = strip_near_concat(block, strip)
        out = block if out is None else strip_concat(out, block)
    return out
