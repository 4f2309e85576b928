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
monomials off by symmetry. Its callers only list the moves of one letter
from a bitmask state: for strips the state holds the filled cells, and
each cell's inversions with cells still empty are a popcount of its
mask; the colouring sums of chromatic.py colour one independent set per
letter, counting ascents into vertices still uncoloured. The independent
cell-pair count lives in the test oracle.
"""

from __future__ import annotations

from .qsymfunc import SymFunc, _check_int, partitions_of
from .strips import HorizontalStrip


def partition_dp(k: int, total: int, start, end, moves, _lead: int = 0) -> SymFunc:
    """The symmetric polynomial in k variables of degree total whose
    coefficient on x^lam is the count a letter DP reaches at state end.

    moves(state, m) lists the pairs (next_state, q_shift) that place the
    next letter m times. From the layer {start: {0: 1}}, mapping each
    state to its count by power of q, each letter moves every state of
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
    before, layers = (), [{start: {0: 1}}]
    for lam in partitions_of(total, max_len=k):
        if lam and lam[0] < _lead:
            break
        shared = 0
        while shared < min(len(lam), len(before)) and lam[shared] == before[shared]:
            shared += 1
        del layers[shared + 1:]
        for m in lam[shared:]:
            layers.append(step(layers[-1], m))
        coeffs[lam] = layers[-1].get(end, {})
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

    return partition_dp(k, n, 0, full, moves, _lead)
