"""Integer compositions and their concatenation calculus.

A composition is a nonempty tuple of positive integers. Three products
appear throughout: concatenation (tuple +, appending the parts),
near-concatenation (merge the touching parts), and substitution
compose(alpha, beta) built from near-concatenation powers of beta. Coarsenings sum adjacent runs of
parts; collecting the sorted rearrangements of all 2^(l-1) coarsenings
gives the multiset invariant that classifies ribbon functions and path
chromatic functions.
"""

from __future__ import annotations

from collections import Counter

from .errors import ParseError
from .qsymfunc import _INT_RE

Composition = tuple[int, ...]


def as_composition(parts) -> Composition:
    """Validate and return parts as a composition tuple; a bool or a
    float part is a TypeError rather than a truncation."""
    alpha = tuple(parts)
    if any(type(p) is not int for p in alpha):
        raise TypeError(f"composition parts must be ints: {alpha!r}")
    if not alpha:
        raise ParseError("composition must be nonempty")
    if any(p < 1 for p in alpha):
        raise ParseError(f"composition parts must be positive: {alpha}")
    return alpha


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated literal such as "2,1,2,3,1"."""
    pieces = [p.strip() for p in text.split(",")]
    if not all(_INT_RE.fullmatch(p) for p in pieces):
        raise ParseError(f"bad composition literal: {text!r}")
    return as_composition([int(p) for p in pieces])


def format_composition(alpha: Composition) -> str:
    return ",".join(str(p) for p in alpha)


def near_concat(alpha: Composition, beta: Composition) -> Composition:
    """Merge the last part of alpha with the first part of beta."""
    return tuple(alpha[:-1]) + (alpha[-1] + beta[0],) + tuple(beta[1:])


def near_concat_power(beta: Composition, k: int) -> Composition:
    """The k-fold near-concatenation of beta with itself, k >= 1."""
    if k < 1:
        raise ValueError("power must be at least 1")
    out = tuple(beta)
    for _ in range(k - 1):
        out = near_concat(out, beta)
    return out


def compose(alpha: Composition, beta: Composition) -> Composition:
    """Substitute beta into alpha: concatenate the near-concat powers
    beta^{(a_1)} ... beta^{(a_n)} over the parts a_i of alpha."""
    out: tuple[int, ...] = ()
    for part in alpha:
        out = out + near_concat_power(beta, part)
    return out


def coarsenings(alpha: Composition) -> list[Composition]:
    """All compositions obtained by summing adjacent parts, alpha included.

    There is one coarsening per subset of the l-1 internal break points;
    keeping a break point keeps the parts on its two sides separate.
    """
    n_breaks = len(alpha) - 1
    out = []
    for mask in range(1 << n_breaks):
        parts = [alpha[0]]
        for i in range(n_breaks):
            if mask >> i & 1:
                parts.append(alpha[i + 1])
            else:
                parts[-1] += alpha[i + 1]
        out.append(tuple(parts))
    out.sort()
    return out


def coarsening_multiset(alpha: Composition) -> Counter:
    """Multiset of partitions of the coarsenings of alpha."""
    return Counter(tuple(sorted(beta, reverse=True)) for beta in coarsenings(alpha))
