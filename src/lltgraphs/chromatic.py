"""Chromatic symmetric functions, their q-refinement on labelled
graphs, the weighted-path identities, and the substitution bridge back
to unicellular strip polynomials.

The extended chromatic function of a vertex-weighted graph sums
x_{colour(v)}^{weight(v)} over proper colourings. On a labelled graph
each proper colouring is additionally weighted by q^(ascents), with an
ascent being an edge whose higher-labelled endpoint gets the strictly
larger colour. Neither sum lists colourings: a colour class is an
independent set, so both run on llt.partition_dp with the colour
classes as its letters, colouring one independent set per step. For
weighted paths indexed by compositions both families collapse to signed
sums over the coarsening multiset, and the unicellular strip polynomial
turns into the ascent-weighted chromatic function after substituting
x -> x(q-1) and dividing by (q-1)^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import compositions as comps
from .errors import InexactDivision, NotSymmetric, NotUnicellular
from .llt import LabelledGraph, gamma_graph, llt_poly, partition_dp
from .qsymfunc import (
    BasisExpansion,
    QPoly,
    SymFunc,
    divide_qpoly,
    plethystic_q_substitute,
    to_basis,
)
from .strips import HorizontalStrip


@dataclass(frozen=True)
class VertexWeightedGraph:
    """Positive vertex weights and an undirected, loop-free edge set
    (1-based endpoint pairs)."""

    weights: tuple[int, ...]
    edges: frozenset

    def __post_init__(self):
        if not self.weights:
            raise ValueError("graph needs at least one vertex")
        if any(w < 1 for w in self.weights):
            raise ValueError("vertex weights must be positive")
        for a, b in self.edges:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"bad edge ({a}, {b}) on {self.n} vertices")

    @property
    def n(self) -> int:
        return len(self.weights)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def path_graph(alpha) -> VertexWeightedGraph:
    """The weighted path: vertex i weighted by the ith part, edges
    joining consecutive vertices."""
    alpha = comps.as_composition(alpha)
    n = len(alpha)
    return VertexWeightedGraph(
        alpha, frozenset((i, i + 1) for i in range(1, n))
    )


def from_weighted_graph(g) -> VertexWeightedGraph:
    """Adjacency view of a weighted interval graph: any nonzero edge
    weight counts as an edge."""
    return VertexWeightedGraph(
        tuple(g.weights), frozenset((i, j) for i, j, _ in g.edge_list())
    )


def _colouring_sum(weights, edges, ascents, k: int) -> SymFunc:
    """Sum over proper colourings with colours 1..k of q^(ascents) times
    the product of x_colour^weight, by partition_dp. A state is the
    bitmask of coloured vertices; colour m of a partition colours an
    independent set S of uncoloured vertices of total weight m, adding
    one ascent for each ascent edge (a, b) with a in S and b still
    uncoloured. Vertices, edges and ascent edges are 1-based."""
    if k < 1:
        raise ValueError("need at least one colour")
    adjacent = [0] * len(weights)
    for a, b in edges:
        adjacent[a - 1] |= 1 << (b - 1)
        adjacent[b - 1] |= 1 << (a - 1)
    independent = [(0, 0)]
    for v, w in enumerate(weights):
        independent += [(s | 1 << v, t + w) for s, t in independent
                        if not s & adjacent[v]]
    by_weight: dict[int, list[int]] = {}
    for s, t in independent[1:]:
        by_weight.setdefault(t, []).append(s)
    ascents = [(1 << (a - 1), 1 << (b - 1)) for a, b in ascents]

    def step(layer: dict, m: int) -> dict:
        out: dict[int, dict[int, int]] = {}
        sets = by_weight.get(m, ())
        for done, poly in layer.items():
            for s in sets:
                if s & done:
                    continue
                after = done | s
                asc = sum(1 for a, b in ascents if a & s and not b & after)
                acc = out.setdefault(after, {})
                for e, c in poly.items():
                    acc[e + asc] = acc.get(e + asc, 0) + c
        return out

    return partition_dp(k, sum(weights), 0, (1 << len(weights)) - 1, step)


def extended_chromatic(graph: VertexWeightedGraph, k: int) -> SymFunc:
    """Sum over proper colourings of the product of x_colour^weight."""
    return _colouring_sum(graph.weights, graph.edges, (), k)


def chrom_quasisym(graph: LabelledGraph, k: int) -> SymFunc:
    """Proper colourings of a labelled graph, weighted by q^(ascents).

    The labelling must be a natural unit interval order: for every edge
    (a, c) and every b with a < b < c, both (a, b) and (b, c) are edges.
    Shareshian and Wachs (Adv. Math. 2016) show the sum is then
    symmetric, which the partition-coordinate DP needs; every graph
    gamma_graph builds qualifies. Otherwise NotSymmetric is raised,
    naming a failing triple, even where the sum happens to be symmetric.
    """
    edges = graph.sorted_edges
    for a, c in edges:
        for b in range(a + 1, c):
            if (a, b) not in graph.edges or (b, c) not in graph.edges:
                raise NotSymmetric(
                    f"labelling is not a natural unit interval order: edge "
                    f"({a}, {c}) without both ({a}, {b}) and ({b}, {c})"
                )
    return _colouring_sum((1,) * graph.n, edges, edges, k)


def path_p_expansion(alpha) -> BasisExpansion:
    """Power-sum expansion of the weighted path's chromatic function:
    the signed sum over the coarsening multiset."""
    alpha = comps.as_composition(alpha)
    la = len(alpha)
    coeffs: dict[tuple[int, ...], QPoly] = {}
    for lam, mult in comps.coarsening_multiset(alpha).items():
        sign = -1 if (la - len(lam)) % 2 else 1
        prev = coeffs.get(lam, QPoly.zero())
        coeffs[lam] = prev + QPoly.constant(sign * mult)
    return BasisExpansion("p", sum(alpha), coeffs)


def path_llt_h_expansion(alpha, printed_sign: bool = False) -> BasisExpansion:
    """Complete homogeneous expansion of the path strip's polynomial:
    each coarsening class lam contributes q^(len(lam)-1) (1-q)^(drop)
    h_lam, where drop is the number of merged break points.

    The alternating (1-q) form is the one the direct tableau enumeration
    confirms. printed_sign=True switches to a (q-1) power with no
    alternation; it is kept only so the difference can be demonstrated,
    and it fails the oracle already at alpha = (1,1).
    """
    alpha = comps.as_composition(alpha)
    la = len(alpha)
    coeffs: dict[tuple[int, ...], QPoly] = {}
    one = QPoly.one()
    q = QPoly.q_power(1)
    tail = (q - one) if printed_sign else (one - q)
    for lam, mult in comps.coarsening_multiset(alpha).items():
        c = QPoly.q_power(len(lam) - 1) * tail ** (la - len(lam)) * mult
        prev = coeffs.get(lam, QPoly.zero())
        coeffs[lam] = prev + c
    return BasisExpansion("h", sum(alpha), coeffs)


def verify_plethysm_bridge(strip: HorizontalStrip) -> bool:
    """Check, on one unicellular strip, that the substitution
    x -> x(q-1) applied to the strip polynomial and divided by
    (q-1)^n reproduces the ascent-weighted chromatic function of the
    strip's labelled graph. Inexact division counts as failure."""
    if not strip.is_unicellular:
        raise NotUnicellular(f"{strip.literal} has a row with more than one cell")
    n = strip.n
    g = llt_poly(strip, n)
    substituted = plethystic_q_substitute(to_basis(g, "p"))
    divisor = (QPoly.q_power(1) - QPoly.one()) ** n
    try:
        left = divide_qpoly(substituted, divisor)
    except InexactDivision:
        return False
    x = chrom_quasisym(gamma_graph(strip), n)
    return left == to_basis(x, "p")
