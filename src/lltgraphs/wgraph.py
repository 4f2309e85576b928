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
from itertools import chain, permutations

from .errors import (
    IndexOutOfRange,
    NotRealizedWithinBound,
    NotUnicellular,
    ParseError,
    PreconditionViolated,
)
from .llt import llt_poly
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
        # one pass over the types; the named check runs only to report
        if set(map(type, chain(self.weights, *self.matrix))) != {int}:
            for w in self.weights:
                _check_int(w, "vertex weight")
            for w in chain(*self.matrix):
                _check_int(w, "edge weight")
        if any(w < 1 for w in self.weights):
            raise ValueError("vertex weights must be positive")
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(n):
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
        weights = tuple(weights)
        n = len(weights)
        matrix = [[0] * n for _ in range(n)]
        for i, j, w in edges:
            i, j = _check_int(i, "edge endpoint"), _check_int(j, "edge endpoint")
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
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
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from None


def pi_graph(strip: HorizontalStrip) -> WeightedGraph:
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
    first), joined wherever two cells could invert. The vertex order is
    the labelling chrom_quasisym counts ascents along."""
    if not strip.is_unicellular:
        raise NotUnicellular(f"{strip.literal} has a row with more than one cell")
    cells = sorted(
        ((r.lo, i + 1) for i, r in enumerate(strip.rows)),
        key=lambda cr: (-cr[0], -cr[1]),
    )
    edges = []
    n = len(cells)
    for a in range(n):
        ca, ra = cells[a]
        for b in range(a + 1, n):
            cb, rb = cells[b]
            if ca == cb or ca == cb + 1 and ra < rb:
                edges.append((a + 1, b + 1, 1))
    return WeightedGraph.from_edges((1,) * n, edges)


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

    The vertices start in cells of equal weight, by increasing weight.
    Colour refinement then splits every cell by the sorted multiset of
    (neighbour's cell, edge weight) over its nonzero edges, ordering the
    new cells by that signature, until no cell splits. While a cell
    holds more than one vertex, the first such cell is individualised
    one vertex at a time, each branch refined again. A vertex is skipped
    when it is a twin of one already tried (equal matrix rows off the
    pair), since swapping twins is an automorphism fixing the branch.
    Each leaf orders all vertices; the least upper-triangle edge matrix
    read in a leaf order is the key.

    The value is opaque: use it only for equality and hashing.
    """
    n = g.n
    neighbours = [
        [(u, w) for u, w in enumerate(row) if w] for row in g.matrix
    ]

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while True:
            cell_of = [0] * n
            for index, cell in enumerate(cells):
                for v in cell:
                    cell_of[v] = index
            split: list[list[int]] = []
            for cell in cells:
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    signature = tuple(
                        sorted((cell_of[u], w) for u, w in neighbours[v])
                    )
                    groups.setdefault(signature, []).append(v)
                split.extend(groups[s] for s in sorted(groups))
            if len(split) == len(cells):
                return cells
            cells = split

    def twins(u: int, v: int) -> bool:
        row_u, row_v = g.matrix[u], g.matrix[v]
        return all(
            row_u[x] == row_v[x] for x in range(n) if x != u and x != v
        )

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(g.weights[v], []).append(v)
    best = None
    pending = [[classes[w] for w in sorted(classes)]]
    while pending:
        cells = refine(pending.pop())
        target = next((t for t, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            key = tuple(
                g.matrix[order[a]][order[b]]
                for a in range(n)
                for b in range(a + 1, n)
            )
            if best is None or key < best:
                best = key
            continue
        tried: list[int] = []
        for v in cells[target]:
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            rest = [u for u in cells[target] if u != v]
            pending.append(cells[:target] + [[v], rest] + cells[target + 1:])
    return (tuple(sorted(g.weights)), best)


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
    if not (1 <= lo and hi <= g.n):
        raise IndexOutOfRange(f"vertex index not in 1..{g.n}")
    m = g.edge(lo, hi)
    if mij != m:
        raise PreconditionViolated(
            f"stated edge weight {mij} does not match edge({lo},{hi}) = {m}"
        )
    wl, wh = g.weights[lo - 1], g.weights[hi - 1]
    if m >= min(wl, wh):
        raise PreconditionViolated(
            f"edge weight {m} must be below both vertex weights ({wl}, {wh})"
        )
    raised = [list(row) for row in g.matrix]
    raised[lo - 1][hi - 1] += 1
    raised[hi - 1][lo - 1] += 1
    g1 = WeightedGraph(g.weights, tuple(tuple(r) for r in raised))

    union_w = wl + wh - m
    keep = [t for t in range(g.n) if t not in (lo - 1, hi - 1)]
    weights2 = []
    for t in range(g.n):
        if t == lo - 1:
            weights2.append(union_w)
        elif t == hi - 1:
            weights2.append(m)
        else:
            weights2.append(g.weights[t])
    n2 = g.n
    matrix2 = [[0] * n2 for _ in range(n2)]
    for a in range(n2):
        for b in range(n2):
            if a in (lo - 1, hi - 1) or b in (lo - 1, hi - 1):
                continue
            matrix2[a][b] = g.matrix[a][b]
    for t in keep:
        m1 = g.matrix[lo - 1][t]
        m2 = g.matrix[hi - 1][t]
        r = g.weights[t]
        cup = min(r, max(m1, m2, m1 + m2 - m))
        cap = min(m, m1, m2)
        matrix2[lo - 1][t] = matrix2[t][lo - 1] = cup
        matrix2[hi - 1][t] = matrix2[t][hi - 1] = cap
    matrix2[lo - 1][hi - 1] = matrix2[hi - 1][lo - 1] = m
    if m == 0:
        drop = hi - 1
        weights2 = [w for t, w in enumerate(weights2) if t != drop]
        matrix2 = [
            [v for b, v in enumerate(row) if b != drop]
            for a, row in enumerate(matrix2)
            if a != drop
        ]
    g2 = WeightedGraph(tuple(weights2), tuple(tuple(r) for r in matrix2))
    return g1, g2


def realize(g: WeightedGraph, bound: int | None = None):
    """Search for a strip whose graph is g, rows tried in every vertex
    order, each row's lo scanned over 0..bound then -1..-bound with the
    first row pinned at lo = 0. Returns None when the search space is
    exhausted; that is not a proof that no realization exists.
    """
    if bound is None:
        bound = sum(g.weights)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    offsets = list(range(0, bound + 1)) + list(range(-1, -bound - 1, -1))
    n = g.n
    for perm in permutations(range(n)):
        rows: list[Row] = [Row(0, g.weights[perm[0]] - 1)]

        def backtrack(r: int) -> bool:
            if r == n:
                return True
            w = g.weights[perm[r]]
            for lo in offsets:
                cand = Row(lo, lo + w - 1)
                if all(
                    m_pair(rows[s], cand) == g.matrix[perm[s]][perm[r]]
                    for s in range(r)
                ):
                    rows.append(cand)
                    if backtrack(r + 1):
                        return True
                    rows.pop()
            return False

        if backtrack(1):
            return HorizontalStrip(tuple(rows))
    return None


def llt_of_graph(g: WeightedGraph, bound: int | None = None) -> SymFunc:
    """Polynomial of any realization at k = vertex count."""
    strip = realize(g, bound)
    if strip is None:
        raise NotRealizedWithinBound(
            f"no realizing strip within offset bound {bound}"
        )
    return llt_poly(strip, g.n)
