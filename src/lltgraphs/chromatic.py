"""Chromatic symmetric functions, their q-refinement on unit-weight
graphs, the weighted-path identities, and the substitution bridge back
to unicellular strip polynomials.

Graphs are wgraph.WeightedGraph values. The extended chromatic function
sums x_{colour(v)}^{weight(v)} over proper colourings, any nonzero edge
weight counting as an edge. On a unit-weight graph each proper colouring
is additionally weighted by q^(ascents), with an ascent being an edge
whose later vertex gets the strictly larger colour. Neither sum lists
colourings: a colour class is an independent set, so both run on
llt.partition_dp with the colour classes as its letters, colouring one
independent set per step. For weighted paths indexed by compositions
both families collapse to signed sums over the coarsening multiset, and
the unicellular strip polynomial turns into (q-1)^n times the
ascent-weighted chromatic function after substituting x -> x(q-1).
"""

from __future__ import annotations

from . import compositions as comps
from .errors import NotSymmetric, PreconditionViolated
from .llt import llt_poly, partition_dp
from .qsymfunc import BasisExpansion, QPoly, SymFunc, plethystic_q_substitute, to_basis
from .strips import HorizontalStrip
from .wgraph import WeightedGraph, gamma_graph


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

    def moves(done: int, m: int) -> list:
        return [(done | s, sum(1 for a, b in ascents if a & s and not b & (done | s)))
                for s in by_weight.get(m, ()) if not s & done]

    return partition_dp(k, sum(weights), len(weights), moves)


def extended_chromatic(graph: WeightedGraph, k: int) -> SymFunc:
    """Sum over proper colourings of the product of x_colour^weight, any
    nonzero edge weight counting as an edge."""
    edges = [(i, j) for i, j, _ in graph.edge_list()]
    return _colouring_sum(graph.weights, edges, (), k)


def chrom_quasisym(graph: WeightedGraph, k: int) -> SymFunc:
    """Proper colourings of a unit-weight graph, weighted by q^(ascents)
    along the vertex order.

    The vertex order must be a natural unit interval order: for every
    edge (a, c) and every b with a < b < c, both (a, b) and (b, c) are
    edges. Shareshian and Wachs (Adv. Math. 2016) show the sum is then
    symmetric, which the partition-coordinate DP needs; every graph
    gamma_graph builds qualifies. Otherwise NotSymmetric is raised,
    naming a failing triple, even where the sum happens to be symmetric.
    A vertex weight other than 1 raises PreconditionViolated.
    """
    if any(w != 1 for w in graph.weights):
        raise PreconditionViolated(
            f"ascent-weighted colourings need unit vertex weights, got {graph.weights}"
        )
    edges = [(a, c) for a, c, _ in graph.edge_list()]
    for a, c in edges:
        for b in range(a + 1, c):
            if not (graph.edge(a, b) and graph.edge(b, c)):
                raise NotSymmetric(
                    f"labelling is not a natural unit interval order: edge "
                    f"({a}, {c}) without both ({a}, {b}) and ({b}, {c})"
                )
    return _colouring_sum(graph.weights, edges, edges, k)


def path_llt_h_expansion(alpha, printed_sign: bool = False) -> BasisExpansion:
    """Complete homogeneous expansion of the path strip's polynomial:
    each coarsening class lam contributes q^(len(lam)-1) (1-q)^(drop)
    h_lam, where drop is the number of merged break points.

    The alternating (1-q) form is the one that matches llt_poly of the
    path strip. printed_sign=True switches to a (q-1) power with no
    alternation; it is kept only so the difference can be demonstrated,
    and it fails that match already at alpha = (1,1).
    """
    alpha = comps.as_composition(alpha)
    la = len(alpha)
    one = QPoly.one()
    q = QPoly.q_power(1)
    tail = (q - one) if printed_sign else (one - q)
    coeffs = {
        lam: QPoly.q_power(len(lam) - 1) * tail ** (la - len(lam)) * mult
        for lam, mult in comps.coarsening_multiset(alpha).items()
    }
    return BasisExpansion("h", sum(alpha), coeffs)


def verify_plethysm_bridge(strip: HorizontalStrip) -> bool:
    """Check, on one unicellular strip, that the substitution
    x -> x(q-1) applied to the strip polynomial equals (q-1)^n times the
    ascent-weighted chromatic function of the strip's gamma graph,
    coefficient by coefficient in the power-sum basis. In Q[q], A =
    (q-1)^n B holds exactly when A divides by (q-1)^n without remainder
    and the quotient is B, so no division is needed."""
    n = strip.n
    x = to_basis(chrom_quasisym(gamma_graph(strip), n), "p")
    left = plethystic_q_substitute(to_basis(llt_poly(strip, n), "p"))
    factor = (QPoly.q_power(1) - QPoly.one()) ** n
    return left == BasisExpansion("p", n, ((lam, c * factor) for lam, c in x.items()))
