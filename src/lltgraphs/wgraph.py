"""Weighted graphs: the one graph type of the package.

The graph of a strip (pi_graph) has one vertex per row, weighted by the
row size, with the pairing value as edge weight (zero meaning no edge).
Strips with isomorphic graphs are conjectured, and here empirically
verified, to share their symmetric polynomial, so the module also
provides isomorphism search, a canonical key, the predicted
deletion-contraction companion graphs, and bounded realization of a
graph by a strip. The same type indexes the chromatic side: gamma_graph
gives the unit-weight cell graph of a unicellular strip, whose vertex
order is the labelling that ascents are counted along, and
extended_chromatic reads any graph's nonzero edges as plain adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import (
    IndexOutOfRange,
    NotRealizedWithinBound,
    NotUnicellular,
    ParseError,
    PreconditionViolated,
)
from .llt import least_reading, llt_input, llt_poly
from .qsymfunc import SymFunc, _check_int
from .strips import HorizontalStrip, Row, m_pair


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex weights plus a symmetric edge-weight matrix, all ints (a
    bool or a float is a TypeError rather than a truncation)."""

    weights: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.weights)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("edge matrix shape must match vertex count")
        for w in self.weights:
            _check_int(w, "vertex weight")
        for w in chain(*self.matrix):
            _check_int(w, "edge weight")
        if any(w < 1 for w in self.weights):
            raise ValueError("vertex weights must be positive")
        # a visit to (j, i) would repeat these checks once (i, j) is symmetric
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(i + 1, n):
                w = self.matrix[i][j]
                if w != self.matrix[j][i]:
                    raise ValueError("edge matrix must be symmetric")
                if w < 0:
                    raise ValueError("edge weights must be nonnegative")
                if w > min(self.weights[i], self.weights[j]):
                    raise ValueError(
                        f"edge ({i + 1},{j + 1}) weight {w} exceeds vertex weights"
                    )

    @property
    def n(self) -> int:
        return len(self.weights)

    def edge(self, i: int, j: int) -> int:
        """1-based edge weight."""
        i, j = _check_int(i, "vertex index"), _check_int(j, "vertex index")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"vertex index not in 1..{self.n}")
        return self.matrix[i - 1][j - 1]

    def edge_list(self) -> list[tuple[int, int, int]]:
        """Nonzero edges as (i, j, weight), 1-based, i < j, sorted."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.matrix[i][j]:
                    out.append((i + 1, j + 1, self.matrix[i][j]))
        return out

    @classmethod
    def from_edges(cls, weights, edges) -> "WeightedGraph":
        """Graph from 1-based (i, j, weight) triples; an unordered pair
        stated twice is a ValueError, even with equal weights."""
        weights = tuple(weights)
        n = len(weights)
        matrix = [[0] * n for _ in range(n)]
        seen = set()
        for i, j, w in edges:
            i, j = _check_int(i, "edge endpoint"), _check_int(j, "edge endpoint")
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"edge {pair} given more than once")
            seen.add(pair)
            matrix[i - 1][j - 1] = w
            matrix[j - 1][i - 1] = w
        return cls(weights, tuple(tuple(row) for row in matrix))

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "edges": [list(e) for e in self.edge_list()],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "WeightedGraph":
        try:
            weights = obj["weights"]
            edges = [tuple(e) for e in obj.get("edges", [])]
            return cls.from_edges(weights, edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from None


def pi_graph(strip: HorizontalStrip) -> WeightedGraph:
    """The strip's weighted graph: row sizes as vertex weights, and
    m_pair(r, s) on the edge of rows r before s.

    It is a function of llt_input(strip), whose sizes are the weights,
    so strips with equal inputs have equal labelled graphs. Take rows r
    before s and cells p of r and q of s, numbered within their rows. A
    bit from q to p means equal contents, so r.lo - s.lo = q - p; a bit
    from p to q means q is one content lower, so r.lo - s.lo = q - p + 1.
    Any bit between the rows thus fixes that gap. When it is at most 0,
    m_pair(r, s) is the overlap of r and s, one bit from s to r per
    shared content; otherwise it is the overlap of r with s shifted up
    one, one bit from r to s per such content. With no bit, both counts
    are 0, and so is m_pair(r, s).
    """
    rows = strip.rows
    n = len(rows)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = m_pair(rows[i], rows[j])
    return WeightedGraph(strip.sizes, tuple(tuple(r) for r in matrix))


def gamma_graph(strip: HorizontalStrip) -> WeightedGraph:
    """Cell graph of a unicellular strip, every vertex and edge of weight
    1: cells in decreasing content order (ties broken by higher strip row
    first), joined by the pairs that llt_input's inversion masks hold, the
    cell pairs that could invert. The vertex order is the labelling
    chrom_quasisym counts ascents along."""
    if not strip.is_unicellular:
        raise NotUnicellular(f"{strip.literal} has a row with more than one cell")
    out = llt_input(strip)[1]
    order = sorted(range(strip.n), key=lambda i: (-strip.rows[i].lo, -i))
    return WeightedGraph((1,) * strip.n, tuple(
        tuple((out[c] >> d | out[d] >> c) & 1 for d in order) for c in order))


def is_isomorphic(g: WeightedGraph, h: WeightedGraph):
    """First weight- and edge-preserving bijection in lexicographic
    order (1-based tuple, position i holding the image of vertex i), or
    None.

    Canonical forms are compared first, so a non-isomorphic pair is
    answered without the vertex-by-vertex search."""
    if canonical_form(g) != canonical_form(h):
        return None
    n = g.n
    image = [0] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for t in range(n):
            if used[t] or h.weights[t] != g.weights[i]:
                continue
            if any(
                h.matrix[image[s]][t] != g.matrix[s][i] for s in range(i)
            ):
                continue
            image[i] = t
            used[t] = True
            if backtrack(i + 1):
                return True
            used[t] = False
        return False

    if backtrack(0):
        return tuple(t + 1 for t in image)
    return None


def canonical_form(g: WeightedGraph):
    """Total isomorphism invariant: two graphs have equal forms exactly
    when they are isomorphic.

    llt.least_reading keys the vertices by weight, labels each nonzero
    edge by its weight, and reads the upper-triangle edge matrix in each
    leaf order; the least reading, beside the sorted weights, is the key.

    The value is opaque: use it only for equality and hashing.
    """
    n, matrix = g.n, g.matrix
    return tuple(sorted(g.weights)), least_reading(
        g.weights, [[(u, w) for u, w in enumerate(row) if w] for row in matrix],
        lambda order: tuple(matrix[order[a]][order[b]]
                            for a in range(n) for b in range(a + 1, n)))


def predict_dc_graphs(g: WeightedGraph, i: int, j: int, mij: int):
    """Companion graphs of the deletion-contraction step, computed on
    the graph alone.

    The first graph raises edge (i, j) by one. The second replaces the
    pair by a union vertex (at the earlier position) of weight
    w_i + w_j - M and an intersection vertex of weight M, joined by an
    edge of weight M; edges to any other vertex of weight r use
    min(r, max(M1, M2, M1 + M2 - M)) and min(M, M1, M2). A weight-zero
    intersection vertex is dropped.
    """
    if i == j:
        raise IndexOutOfRange("need two distinct vertices")
    lo, hi = (i, j) if i < j else (j, i)
    m = g.edge(lo, hi)
    if mij != m:
        raise PreconditionViolated(
            f"stated edge weight {mij} does not match edge({lo},{hi}) = {m}"
        )
    a, b = lo - 1, hi - 1
    wl, wh = g.weights[a], g.weights[b]
    if m >= min(wl, wh):
        raise PreconditionViolated(
            f"edge weight {m} must be below both vertex weights ({wl}, {wh})"
        )
    matrix = [list(row) for row in g.matrix]
    matrix[a][b] = matrix[b][a] = m + 1
    g1 = WeightedGraph(g.weights, tuple(map(tuple, matrix)))
    weights = list(g.weights)
    weights[a], weights[b] = wl + wh - m, m
    matrix[a][b] = matrix[b][a] = m
    for t, r in enumerate(g.weights):
        if t != a and t != b:
            m1, m2 = g.matrix[a][t], g.matrix[b][t]
            matrix[a][t] = matrix[t][a] = min(r, max(m1, m2, m1 + m2 - m))
            matrix[b][t] = matrix[t][b] = min(m, m1, m2)
    keep = [t for t in range(g.n) if m or t != b]
    g2 = WeightedGraph(tuple(weights[t] for t in keep),
                       tuple(tuple(matrix[s][t] for t in keep) for s in keep))
    return g1, g2


def realize(g: WeightedGraph, bound: int | None = None):
    """Search for a strip whose graph is g: one depth-first search that
    picks the next row's vertex and lo together, so row orders with a
    common prefix share its work and an order is dropped as soon as its
    prefix fails. Vertices are tried in increasing order, each lo over
    0..bound then -1..-bound, with the first row pinned at lo = 0; a vertex
    with a nonzero edge to a placed row skips every lo that leaves the two
    rows apart, where the pairing could only be 0. Returns
    None when the search space is exhausted; that is not a proof that no
    realization exists.
    """
    if bound is None:
        bound = sum(g.weights)
    if _check_int(bound, "offset bound") < 0:
        raise ValueError("bound must be nonnegative")
    offsets = list(range(0, bound + 1)) + list(range(-1, -bound - 1, -1))
    placed: list[tuple[int, Row]] = []

    def extend() -> bool:
        if len(placed) == g.n:
            return True
        used = {u for u, _ in placed}
        for v in range(g.n):
            if v in used:
                continue
            w = g.weights[v]
            # a nonzero edge to a placed row needs lo in [row.lo - w, row.hi]
            near = [row for u, row in placed if g.matrix[u][v]]
            lows = [lo for lo in offsets
                    if all(row.lo - w <= lo <= row.hi for row in near)] if placed else [0]
            for lo in lows:
                cand = Row(lo, lo + w - 1)
                if all(m_pair(row, cand) == g.matrix[u][v] for u, row in placed):
                    placed.append((v, cand))
                    if extend():
                        return True
                    placed.pop()
        return False

    return HorizontalStrip(tuple(row for _, row in placed)) if extend() else None


def llt_of_graph(g: WeightedGraph, bound: int | None = None) -> SymFunc:
    """Polynomial of any realization at k = vertex count."""
    if bound is None:
        bound = sum(g.weights)
    strip = realize(g, bound)
    if strip is None:
        raise NotRealizedWithinBound(
            f"no realizing strip within offset bound {bound}"
        )
    return llt_poly(strip, g.n)
