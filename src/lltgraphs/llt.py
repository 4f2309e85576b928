"""Tableaux on horizontal strips, the inversion statistic, and the
resulting q-weighted symmetric polynomials.

A tableau fills each row with a weakly increasing sequence of entries
at most k. Two cells u (row i) and v (row j), i < j, invert when they
share a content and the earlier row's entry is larger, or the earlier
cell's content is one higher and its entry is smaller. Summing
q^(inversions) x^(content multiset) over all fillings gives the strip's
polynomial.

The statistic is local in the cells, as in Haglund-Haiman-Loehr (JAMS
2005), so llt_poly never lists tableaux. partition_dp places the letters
1, 2, ... in turn, once per partition of the total, and reads the other
monomials off by symmetry, from the empty bitmask to the full one. Its
callers give the mask's width and list the moves of one letter from a
state: for strips the state holds the filled cells, and each cell's
inversions with cells still empty are a popcount of its mask; the
colouring sums of chromatic.py colour one independent set per letter,
counting ascents into vertices still uncoloured. The independent
cell-pair count lives in the test oracle.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate

from .qsymfunc import SymFunc, _check_int, partitions_of
from .strips import HorizontalStrip


def partition_dp(k: int, total: int, width: int, moves, _lead: int = 0) -> SymFunc:
    """The symmetric polynomial in k variables of degree total whose
    coefficient on x^lam is the count a letter DP over bitmasks of width
    bits reaches at the full mask, all width bits set.

    moves(state, m) lists the pairs (next_state, q_shift) that place the
    next letter m times. From the layer {0: {0: 1}}, the empty mask
    mapped to its count by power of q, each letter moves every state of
    the layer and adds its counts, shifted by q_shift, at next_state. The
    DP runs once per partition lam of total with at most k parts, letter
    i placed lam_i times; partitions with a common prefix share their
    layers, and each (state, m) is listed once per call. The caller must
    count a symmetric sum, since only these m-coordinates are computed.
    """
    _check_int(k, "variable count")
    if k < 1:
        raise ValueError("need at least one variable")
    coeffs: dict[tuple[int, ...], dict[int, int]] = {}
    listed: dict[tuple, list] = {}

    def step(layer: dict, m: int) -> dict:
        out: dict = {}
        for state, poly in layer.items():
            nexts = listed.get((state, m))
            if nexts is None:
                nexts = listed[state, m] = moves(state, m)
            for after, shift in nexts:
                acc = out.get(after)
                if acc is None:
                    acc = out[after] = {}
                for e, c in poly.items():
                    acc[e + shift] = acc.get(e + shift, 0) + c
        return out

    # layers[i] follows i letters of before; partitions_of keeps prefixes together
    before, layers = (), [{0: {0: 1}}]
    for lam in partitions_of(total, max_len=k):
        if lam and lam[0] < _lead:
            break
        shared = 0
        while shared < min(len(lam), len(before)) and lam[shared] == before[shared]:
            shared += 1
        del layers[shared + 1:]
        for m in lam[shared:]:
            layers.append(step(layers[-1], m))
        coeffs[lam] = layers[-1].get((1 << width) - 1, {})
        before = lam
    return SymFunc._of_counts(k, total, coeffs)


def llt_poly(strip: HorizontalStrip, k: int | None = None) -> SymFunc:
    """Sum of q^(inversions) x^(entry counts) over all tableaux with
    entries at most k. Defaults to k = row count, which is enough
    variables to pin down the strip's symmetric function.

    The engine reads the strip only through llt_input, its row sizes and
    the inversion mask of each cell; llt_of_input runs the DP on that
    pair alone, so strips with equal input have equal polynomials.
    """
    return llt_of_input(*llt_input(strip), strip.n if k is None else k)


def llt_input(strip: HorizontalStrip) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row sizes and, for each cell in row order, its inversion mask:
    a later-row cell points to the earlier-row cells at its content, an
    earlier-row cell to the later-row cells one content lower."""
    rows = strip.rows
    cells = [(i, x) for i, row in enumerate(rows) for x in range(row.lo, row.hi + 1)]
    return strip.sizes, tuple(
        sum(1 << d for d, (j, y) in enumerate(cells) if j < i and y == x or j > i and y == x - 1)
        for i, x in cells)


def normal_form(sizes: tuple[int, ...], out: tuple[int, ...]
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One engine input of the class of (sizes, out) under the
    relabellings that reorder the rows, each taken with or without the
    reversal of llt_of_input's docstring. Every input of a class has the
    same polynomial, and the same normal form.

    Both orientations, the input and its reversal, are read as links: a
    bit from cell p of row r to cell q of row s is the pair (p, q) of
    links[r][s], cells numbered within their rows. The label of row s
    seen from row r is (links[r][s], links[s][r]), which fixes the label
    of r seen from s, and a row's signature is its size and the sorted
    (size, label) of its linked rows; none of these depends on how the
    rows are ordered. Only the orientations whose sorted signatures are
    least go on. In each, least_reading keys the rows by signature,
    labels them as above, and reads the masks of the input relabelled in
    a leaf order; the least of these is the normal form, beside the
    sorted sizes. A relabelling keeps the sorted signatures of each
    orientation, or swaps those of the two, and it keeps the set of leaf
    inputs, so it keeps the least of them.
    """
    rows = range(len(sizes))
    firsts = [0, *accumulate(sizes)]
    row_of = [r for r in rows for _ in range(sizes[r])]
    links: list[dict] = [{} for _ in rows]
    flips: list[dict] = [{} for _ in rows]  # links of the reversal
    for c, mask in enumerate(out):
        r = row_of[c]
        p = c - firsts[r]
        while mask:
            low = mask & -mask
            mask ^= low
            d = low.bit_length() - 1
            s = row_of[d]
            q = d - firsts[s]
            links[r].setdefault(s, []).append((p, q))
            flips[s].setdefault(r, []).append((sizes[s] - 1 - q, sizes[r] - 1 - p))
    near = [links[r].keys() | flips[r].keys() for r in rows]  # linked either way

    def relabelled(linked, order) -> tuple[int, ...]:
        starts = [0] * len(sizes)
        at = 0
        for r in order:
            starts[r], at = at, at + sizes[r]
        masks = [0] * at
        for r in rows:
            for s, pairs in linked[r].items():
                for p, q in pairs:
                    masks[starts[r] + p] |= 1 << starts[s] + q
        return tuple(masks)

    oriented = []
    for listed in links, flips:
        linked = [{s: tuple(sorted(pairs)) for s, pairs in listed[r].items()} for r in rows]
        labels = [[(s, (linked[r].get(s, ()), linked[s].get(r, ()))) for s in near[r]]
                  for r in rows]
        signature = [(sizes[r], tuple(sorted((sizes[s], label) for s, label in labels[r])))
                     for r in rows]
        oriented.append((sorted(signature), signature, labels, partial(relabelled, linked)))
    least = min(key for key, *_ in oriented)
    return tuple(sorted(sizes)), min(least_reading(*rest)
                                     for key, *rest in oriented if key == least)


def least_reading(keys, neighbours, read):
    """The least read(order) over the vertex orders at the leaves of an
    individualisation-refinement search (McKay and Piperno, J. Symb.
    Comput. 2014). Relabelling the vertices with their keys and
    neighbours relabels the leaf orders, so no relabelling changes the
    least reading of a structure read in each leaf order.

    keys[v] is a hashable, comparable key of vertex v. neighbours[v]
    lists (u, label) for each neighbour u of v, labels being comparable
    and free of vertex numbers; the label of u seen from v must fix that
    of v seen from u. The vertices start in cells of equal key, by
    increasing key. Colour refinement splits every cell by the sorted
    multiset of (neighbour's cell, label), ordering the new cells by that
    signature, until no cell splits. While a cell holds more than one
    vertex, the first such cell is individualised one vertex at a time,
    each branch refined again.

    A vertex v is skipped when a vertex u already tried sees every other
    vertex as v does. Their labels of each other then agree too: u and v
    share a cell of a stable refinement, so they have one signature, and
    once the other vertices are matched, what is left of it is (cell of
    v, label of v seen from u) against (cell of u, label of u seen from
    v), with u and v in one cell. As each label fixes its reverse,
    swapping u and v maps the structure to itself, and one branch onto
    the other.
    """
    n = len(keys)

    def refine(cells: list[list[int]]) -> list[list[int]]:
        while len(cells) < n:
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
                break
            cells = split
        return cells

    def twins(u: int, v: int) -> bool:
        return ({x: w for x, w in neighbours[u] if x != v}
                == {x: w for x, w in neighbours[v] if x != u})

    tied: dict = {}
    for v in range(n):
        tied.setdefault(keys[v], []).append(v)
    pending = [[tied[key] for key in sorted(tied)]]
    readings = []
    while pending:
        cells = refine(pending.pop())
        target = next((t for t, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            readings.append(read([cell[0] for cell in cells]))
            continue
        tried: list[int] = []
        for v in cells[target]:
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            rest = [u for u in cells[target] if u != v]
            pending.append(cells[:target] + [[v], rest] + cells[target + 1:])
    return min(readings)


def row_components(matrix) -> tuple[tuple[int, ...], ...]:
    """The 0-based row indices of each connected component of the graph
    whose edges are matrix's nonzero entries, in increasing order within
    each component and between components by first row.

    On a strip's pi_graph these components factor its polynomial. Rows
    r before s have m_pair(r, s) = 0 exactly when no cell of one has a
    bit of llt_input's masks at a cell of the other: a bit needs a
    content in r and s, or one in r and one lower in s, and m_pair is
    the overlap of r with s, or with s shifted up one when r starts to
    the right, which is empty only when both of those are. Rows fill
    independently and inversions stay inside a component, so the
    strip's polynomial is the product of the polynomials of the strips
    on each component's rows, kept in their order.
    """
    label = list(range(len(matrix)))
    for i, row in enumerate(matrix):
        for j in range(i):
            if row[j] and label[j] != label[i]:
                old = label[i]
                label = [label[j] if x == old else x for x in label]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return tuple(map(tuple, groups.values()))


def llt_of_input(sizes: tuple[int, ...], out: tuple[int, ...], k: int,
                 _lead: int = 0) -> SymFunc:
    """The polynomial in k variables of a strip with row sizes sizes and
    cell inversion masks out, as llt_input gives them.

    A dynamic programme on partition_dp places the letters 1, 2, ... in
    turn. Its state is the bitmask of filled cells, a prefix of each row.
    A letter fills, in each row, a run of cells from the row's first
    empty one; filling the set S adds popcount(out[c] & ~after) for each
    c in S, after being the filled cells once S is. The result is
    symmetric and stores just its m-coordinates; SymFunc.terms() spreads
    them over the monomials. A positive _lead keeps only the coordinates
    on partitions whose first part is at least _lead, as partition_dp does.

    The sum is over fillings T, weakly increasing along each row, of
    q^#{(c, d): bit d of out[c], T(c) < T(d)}, so two relabellings of the
    input keep the polynomial, and normal_form picks one input per class,
    the least reading of least_reading's search over the rows:
    - Reordering the rows renames the cells, so it sums the same fillings
      with the same inversions.
    - The reversal transposes the relation and mirrors the cells inside
      each row. It maps a filling T to the filling with k + 1 - T(c) at
      the mirrored cell c' of c, weakly increasing again. T(c) < T(d)
      becomes T'(c') > T'(d'), so the inverting pair now has its larger
      letter at c': that is why the relation is transposed. The weight
      x^a goes to x^rev(a), and the polynomial is symmetric, so each
      m-coordinate is kept.
    - Both keep the precondition of merging a run's masks. A cell of
      llt_input has at most one bit per other row, at its content or one
      lower, and no bit in its own row; so the masks of one row's cells
      are disjoint after transposing too, and a reordering moves rows
      whole.
    """
    n = len(out)
    # Cells of one row point at distinct cells, so a run's masks merge; row
    # i's sit at bit i * n of one wide int, so a move's inversions are one
    # popcount. runs[i]: row i's first bit, its cell mask, and per start f
    # the (length, cells, wide mask) of each run from the row's cell f.
    runs, first = [], 0
    for i, size in enumerate(sizes):
        per_start = []
        for f in range(first, first + size + 1):
            opts = [(0, 0, 0)]
            for c in range(f, first + size):
                length, got, wide = opts[-1]
                opts.append((length + 1, got | 1 << c, wide | out[c] << i * n))
            per_start.append(opts)
        runs.append((first, (1 << size) - 1, per_start))
        first += size
    repeat = sum(1 << i * n for i in range(len(sizes)))
    full = (1 << n) - 1

    def moves(done: int, m: int) -> list:
        room = (full ^ done).bit_count()
        if m == room:  # the last letter fills every empty cell and inverts none
            return [(full, 0)]
        combos = [(m, done, 0)]
        for lo, mask, per_start in runs:
            opts = per_start[(done >> lo & mask).bit_length()]
            room -= len(opts) - 1
            combos = [(left - size, after | got, wide | o)
                      for left, after, wide in combos
                      for size, got, o in opts[:left + 1] if left - size <= room]
        return [(after, (wide & ~(after * repeat)).bit_count()) for _, after, wide in combos]

    return partition_dp(k, n, n, moves, _lead)
