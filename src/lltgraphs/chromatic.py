"""Chromatic symmetric functions, their q-refinement on labelled
graphs, the weighted-path identities, and the substitution bridge back
to unicellular strip polynomials.

The extended chromatic function of a vertex-weighted graph sums
x_{colour(v)}^{weight(v)} over proper colourings. On a labelled graph
each proper colouring is additionally weighted by q^(ascents), with an
ascent being an edge whose higher-labelled endpoint gets the strictly
larger colour. For weighted paths indexed by compositions both families
collapse to signed sums over the coarsening multiset, and the
unicellular strip polynomial turns into the ascent-weighted chromatic
function after substituting x -> x(q-1) and dividing by (q-1)^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import compositions as comps
from .errors import InexactDivision, NotUnicellular
from .llt import LabelledGraph, gamma_graph, llt_poly
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

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

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


def _proper_colourings(n: int, k: int, neighbours):
    """Yield proper colourings as tuples, colours 1..k; neighbours[v]
    lists the already-coloured vertices adjacent to v."""
    kappa = [0] * n

    def rec(v: int):
        if v == n:
            yield tuple(kappa)
            return
        blocked = {kappa[u] for u in neighbours[v]}
        for colour in range(1, k + 1):
            if colour in blocked:
                continue
            kappa[v] = colour
            yield from rec(v + 1)

    yield from rec(0)


def extended_chromatic(graph: VertexWeightedGraph, k: int) -> SymFunc:
    """Sum over proper colourings of the product of x_colour^weight."""
    if k < 1:
        raise ValueError("need at least one colour")
    n = graph.n
    neighbours = [[] for _ in range(n)]
    for a, b in graph.edges:
        neighbours[b - 1].append(a - 1)
    terms: dict[tuple[int, ...], int] = {}
    for kappa in _proper_colourings(n, k, neighbours):
        v = [0] * k
        for vertex, colour in enumerate(kappa):
            v[colour - 1] += graph.weights[vertex]
        exp = tuple(v)
        terms[exp] = terms.get(exp, 0) + 1
    return SymFunc(k, graph.total_weight, terms)


def chrom_quasisym(graph: LabelledGraph, k: int) -> SymFunc:
    """Proper colourings of a labelled graph, weighted by q^(ascents).
    The sum must be symmetric, as it is on the graphs gamma_graph builds;
    otherwise NotSymmetric is raised."""
    if k < 1:
        raise ValueError("need at least one colour")
    n = graph.n
    edges = graph.sorted_edges
    neighbours = [[] for _ in range(n)]
    for a, b in edges:
        neighbours[b - 1].append(a - 1)
    terms: dict[tuple[int, ...], dict[int, int]] = {}
    for kappa in _proper_colourings(n, k, neighbours):
        asc = sum(1 for a, b in edges if kappa[a - 1] < kappa[b - 1])
        v = [0] * k
        for colour in kappa:
            v[colour - 1] += 1
        exp = tuple(v)
        d = terms.setdefault(exp, {})
        d[asc] = d.get(asc, 0) + 1
    return SymFunc(k, n, {e: QPoly(d) for e, d in terms.items()})


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
