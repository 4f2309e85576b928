"""Strip literals and the simple strip moves, written apart from the package.

A strip is a list of (lo, hi) content intervals, one per row; the literal
"a/b" is the row (b, a - 1).  The moves follow the definitions in the
package's README: cycle, rotate and commute_swap preserve the weighted graph
and the polynomial.  Nothing here imports lltgraphs, so the workload
generator and the output checks do not lean on the code they measure.
"""


def parse_strip(text: str) -> list[tuple[int, int]]:
    rows = []
    for piece in text.split(","):
        a, b = piece.split("/")
        rows.append((int(b), int(a) - 1))
    return rows


def format_strip(rows) -> str:
    return ",".join(f"{hi + 1}/{lo}" for lo, hi in rows)


def overlap(r, s) -> int:
    return max(0, min(r[1], s[1]) - max(r[0], s[0]) + 1)


def m_pair(r, s) -> int:
    """Shifted-overlap weight of the ordered row pair, r the earlier row."""
    if r[0] <= s[0]:
        return overlap(r, s)
    return overlap(r, (s[0] + 1, s[1] + 1))


def commutes(r, s) -> bool:
    return m_pair(r, s) == m_pair(s, r)


def translate(rows, d: int):
    return [(lo + d, hi + d) for lo, hi in rows]


def normalize(rows):
    return translate(rows, -min(lo for lo, _ in rows))


def cycle(rows):
    lo, hi = rows[0]
    return list(rows[1:]) + [(lo - 1, hi - 1)]


def rotate(rows, c: int):
    return [(c - hi, c - lo) for lo, hi in reversed(rows)]


def commute_swap(rows, i: int):
    """Exchange rows i and i+1 (1-based); they must commute."""
    if not 1 <= i < len(rows) or not commutes(rows[i - 1], rows[i]):
        raise ValueError(f"rows {i} and {i + 1} cannot be swapped")
    out = list(rows)
    out[i - 1], out[i] = out[i], out[i - 1]
    return out


def graph(rows):
    """Vertex weights and the edge-weight matrix of a strip's graph."""
    n = len(rows)
    weights = tuple(hi - lo + 1 for lo, hi in rows)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = m_pair(rows[i], rows[j])
    return weights, matrix
