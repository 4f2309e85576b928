"""Independent reference implementations used to cross-check the library.

Everything here is written straight from the raw definitions and imports
nothing from the package, so a library bug cannot hide inside its own
oracle.
"""

from fractions import Fraction
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)


# ---- interval arithmetic ---------------------------------------------------

def overlap(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0, hi - lo + 1)


def m_pair(r, s):
    """Shifted-overlap weight of the ordered row pair (r earlier)."""
    if r[0] <= s[0]:
        return overlap(r, s)
    return overlap(r, (s[0] + 1, s[1] + 1))


def commutes(r, s):
    return m_pair(r, s) == m_pair(s, r)


def edge_weight(rows, i, j):
    a, b = min(i, j), max(i, j)
    return m_pair(rows[a - 1], rows[b - 1])


# ---- brute-force polynomial -------------------------------------------------

def brute_inversions(rows, entries):
    """Count inversions of a filled strip by inspecting every cell pair."""
    total = 0
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            lo1, hi1 = rows[i]
            lo2, hi2 = rows[j]
            for c1 in range(lo1, hi1 + 1):
                for c2 in range(lo2, hi2 + 1):
                    a = entries[i][c1 - lo1]
                    b = entries[j][c2 - lo2]
                    if c1 == c2 and a > b:
                        total += 1
                    elif c1 == c2 + 1 and a < b:
                        total += 1
    return total


def brute_llt(rows, k):
    """dict[exponent vector][q power] -> count, over every tableau."""
    fillings = [
        list(combinations_with_replacement(range(1, k + 1), hi - lo + 1))
        for lo, hi in rows
    ]
    out = {}
    for entries in product(*fillings):
        exps = [0] * k
        for row in entries:
            for e in row:
                exps[e - 1] += 1
        key = tuple(exps)
        inv = brute_inversions(rows, entries)
        out.setdefault(key, {})
        out[key][inv] = out[key].get(inv, 0) + 1
    return out


# ---- Kostka numbers ---------------------------------------------------------

def _strip_predecessors(lam, s):
    """Partitions nu inside lam with |lam/nu| = s, lam/nu a horizontal strip."""
    lam = tuple(lam)
    rows = len(lam)

    def rec(i, remaining, prev_upper):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        lower = lam[i + 1] if i + 1 < rows else 0
        upper = min(lam[i], prev_upper)
        for v in range(lower, upper + 1):
            take = lam[i] - v
            if take > remaining:
                continue
            for rest in rec(i + 1, remaining - take, v):
                yield (v,) + rest

    # the strip condition: nu_i >= lam_{i+1} (cells removed from row i sit
    # strictly right of row i+1), and nu weakly decreasing
    for nu in rec(0, s, lam[0] if lam else 0):
        yield tuple(p for p in nu if p > 0)


def kostka(lam, mu):
    """Number of column-strict fillings of shape lam with content mu."""
    lam = tuple(p for p in lam if p > 0)
    mu = tuple(p for p in mu if p > 0)
    if sum(lam) != sum(mu):
        return 0

    def rec(shape, letters):
        if not letters:
            return 1 if not shape else 0
        total = 0
        for prev in set(_strip_predecessors(shape, letters[-1])):
            total += rec(prev, letters[:-1])
        return total

    return rec(lam, mu)


# ---- symmetric polynomials by brute force -----------------------------------

def _mono_mul(f, g):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _one(k):
    return {(0,) * k: 1}


def brute_h(r, k):
    out = {}
    for combo in combinations_with_replacement(range(k), r):
        exps = [0] * k
        for v in combo:
            exps[v] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def brute_e(r, k):
    out = {}
    for combo in combinations(range(k), r):
        exps = [0] * k
        for v in combo:
            exps[v] += 1
        out[tuple(exps)] = 1
    return out


def brute_p(r, k):
    out = {}
    for v in range(k):
        exps = [0] * k
        exps[v] = r
        out[tuple(exps)] = 1
    return out


def brute_m(lam, k):
    if len(lam) > k:
        return {}
    padded = tuple(lam) + (0,) * (k - len(lam))
    out = {}
    seen = set()
    from itertools import permutations

    for perm in permutations(padded):
        if perm not in seen:
            seen.add(perm)
            out[perm] = 1
    return out


def brute_s(lam, k):
    """Schur polynomial by enumerating column-strict fillings."""
    lam = tuple(p for p in lam if p > 0)
    if len(lam) > k:
        return {}

    rows = []

    def rec(i, above):
        if i == len(lam):
            rows.append(tuple(above))
            return

    # enumerate row by row: weakly increasing rows, strictly increasing columns
    out = {}

    def fill(i, prev_row, acc):
        if i == len(lam):
            exps = [0] * k
            for row in acc:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        length = lam[i]
        for row in combinations_with_replacement(range(1, k + 1), length):
            if prev_row is not None and any(
                row[c] <= prev_row[c] for c in range(length)
            ):
                continue
            fill(i + 1, row, acc + [row])

    fill(0, None, [])
    return out


def brute_basis(basis, lam, k):
    lam = tuple(p for p in lam if p > 0)
    if basis == "s":
        return brute_s(lam, k)
    if basis == "m":
        return brute_m(lam, k)
    part = {"h": brute_h, "e": brute_e, "p": brute_p}[basis]
    acc = _one(k)
    for r in lam:
        acc = _mono_mul(acc, part(r, k))
    return acc


def h_in_e(n):
    """The e-coefficients of h_n from H(t) E(-t) = 1: h_n is the sum over
    the compositions alpha of n of (-1)^(n - len(alpha)) e_alpha."""
    out = {}
    for cuts in product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        parts.append(run)
        key = tuple(sorted(parts, reverse=True))
        out[key] = out.get(key, 0) + (-1) ** (n - len(parts))
    return {lam: c for lam, c in out.items() if c}


def h_in_p(n):
    """The p-coefficients of h_n from Newton's identity
    m h_m = sum_{r=1}^{m} p_r h_{m-r}, as Fractions."""
    expansions = [{(): Fraction(1)}]
    for m in range(1, n + 1):
        out = {}
        for r in range(1, m + 1):
            for lam, c in expansions[m - r].items():
                key = tuple(sorted(lam + (r,), reverse=True))
                out[key] = out.get(key, 0) + c / m
        expansions.append(out)
    return expansions[n]


def brute_ribbon(alpha, k):
    """Ribbon Schur polynomial by filling the actual skew shape.

    Rows run top to bottom with lengths reversed(alpha); each row starts
    in the column where the row below ends, so adjacent rows share one
    column. Fillings weakly increase along rows and strictly increase
    down that shared column.
    """
    beta = tuple(reversed(alpha))
    out = {}

    # build upward from the bottom row; below_last is the entry of the
    # row below at the shared column (its last cell)
    def rec(i, below_last, acc):
        if i < 0:
            exps = [0] * k
            for row in acc:
                for v in row:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        for row in combinations_with_replacement(range(1, k + 1), beta[i]):
            if below_last is not None and row[0] >= below_last:
                continue
            rec(i - 1, row[-1], acc + [row])

    rec(len(beta) - 1, None, [])
    return out


# ---- compositions -----------------------------------------------------------

def coarsenings_rec(alpha):
    """All coarsenings, by recursion on whether the first break survives."""
    alpha = tuple(alpha)
    if len(alpha) <= 1:
        return {alpha}
    out = set()
    for rest in coarsenings_rec(alpha[1:]):
        out.add((alpha[0],) + rest)
        out.add((alpha[0] + rest[0],) + rest[1:])
    return out


# ---- weighted graphs --------------------------------------------------------

def _edge_map(edges):
    return {frozenset((i, j)): w for i, j, w in edges if w}


def brute_isomorphic(weights_a, edges_a, weights_b, edges_b):
    """Whether some bijection of the vertices carries weights and edge
    weights of graph a onto graph b; edges are 1-based (i, j, weight),
    weight zero meaning no edge. Tries every permutation."""
    n = len(weights_a)
    if n != len(weights_b):
        return False
    a = _edge_map(edges_a)
    b = _edge_map(edges_b)
    if len(a) != len(b):
        return False
    for perm in permutations(range(1, n + 1)):
        if any(weights_b[perm[v] - 1] != weights_a[v] for v in range(n)):
            continue
        if all(
            b.get(frozenset(perm[t - 1] for t in pair)) == w
            for pair, w in a.items()
        ):
            return True
    return False


# ---- colourings -------------------------------------------------------------

def brute_extended_chromatic(weights, edges, k):
    n = len(weights)
    out = {}
    for col in product(range(k), repeat=n):
        if any(col[a - 1] == col[b - 1] for a, b in edges):
            continue
        exps = [0] * k
        for v, c in enumerate(col):
            exps[c] += weights[v]
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def brute_chrom_quasisym(n, edges, k):
    """dict[exponent vector][q power] -> count over proper colourings,
    q counting edges (a < b) whose colour strictly increases."""
    out = {}
    sorted_edges = sorted(edges)
    for col in product(range(1, k + 1), repeat=n):
        if any(col[a - 1] == col[b - 1] for a, b in sorted_edges):
            continue
        asc = sum(1 for a, b in sorted_edges if col[a - 1] < col[b - 1])
        exps = [0] * k
        for c in col:
            exps[c - 1] += 1
        key = tuple(exps)
        out.setdefault(key, {})
        out[key][asc] = out[key].get(asc, 0) + 1
    return out


def llt_via_colourings(n, edges, k):
    """dict[exponent vector][q power] -> count over all (not necessarily
    proper) colourings, q counting edges (a < b) whose colour strictly
    increases: the LLT polynomial of a unicellular strip read off its
    inversion graph."""
    out = {}
    for col in product(range(1, k + 1), repeat=n):
        asc = sum(1 for a, b in edges if col[a - 1] < col[b - 1])
        exps = [0] * k
        for c in col:
            exps[c - 1] += 1
        key = tuple(exps)
        out.setdefault(key, {})
        out[key][asc] = out[key].get(asc, 0) + 1
    return out


# ---- strict sequences from the raw definition -------------------------------

def raw_strict_sequences(rows):
    n = len(rows)
    found = []
    for size in range(2, n + 1):
        for idx in combinations(range(1, n + 1), size):
            if any(edge_weight(rows, a, b) != 0 for a, b in combinations(idx, 2)):
                continue
            for h in list(range(1, idx[0])) + list(range(idx[-1] + 1, n + 1)):
                ms = [edge_weight(rows, t, h) for t in idx]
                size_h = rows[h - 1][1] - rows[h - 1][0] + 1
                if all(m > 0 for m in ms) and sum(ms) >= size_h + 1:
                    found.append((idx, h))
    found.sort()
    return found


# ---- strict pairs and nesting from the raw definitions ----------------------

def _size(row):
    return row[1] - row[0] + 1


def _overfill(rows, i, j):
    """Rows i and j together meet some third row h in more than |R_h| cells."""
    return any(
        edge_weight(rows, i, h) + edge_weight(rows, j, h) > _size(rows[h - 1])
        for h in range(1, len(rows) + 1)
        if h not in (i, j)
    )


def raw_is_strict_pair(rows, i, j):
    """i < j, row i starts left of row j, and the rows overlap partially or
    are disjoint and overfill a third row."""
    if not (i < j and rows[i - 1][0] < rows[j - 1][0]):
        return False
    m = edge_weight(rows, i, j)
    if m == 0:
        return _overfill(rows, i, j)
    return m < min(_size(rows[i - 1]), _size(rows[j - 1]))


def raw_is_nesting(rows):
    """Every meeting pair has m equal to the size of one of its rows, and no
    disjoint pair overfills a third row."""
    for i, j in combinations(range(1, len(rows) + 1), 2):
        m = edge_weight(rows, i, j)
        if m == 0 and _overfill(rows, i, j):
            return False
        if m and m not in (_size(rows[i - 1]), _size(rows[j - 1])):
            return False
    return True
