"""Output checks made apart from the program.

Every check reads the CLI's JSON output and compares it with a computation
that imports nothing from lltgraphs: the test oracle (``tests/oracle.py``,
loaded by path), the classical identity LLT(q=1) = h_mu with mu the row
sizes, closed forms, and brute-force graph isomorphism.  The one exception
is the replay of a ``local_rotate`` move, whose result only the package
computes; each replayed strip is then checked by brute-force isomorphism.

``check(op, stdout)`` returns a list of problems, empty when the output is
right.
"""

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

import rows as R
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
# fillings up to which an llt or path-llt output is also compared, q-power
# by q-power, with the oracle's tableau enumeration
SMALL_FILLINGS = 3200

_oracle = None


def oracle():
    global _oracle
    if _oracle is None:
        spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "tests" / "oracle.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _oracle = module
    return _oracle


# ---- parsing the CLI's text forms ------------------------------------------

def parse_qpoly(text: str) -> dict[int, Fraction]:
    """"3q^6-(1/2)q+1" -> {6: 3, 1: -1/2, 0: 1}."""
    out: dict[int, Fraction] = {}
    body = text.replace(" ", "")
    if body == "0":
        return out
    terms, start = [], 0
    for i in range(1, len(body) + 1):
        if i == len(body) or (body[i] in "+-" and body[i - 1] != "("):
            terms.append(body[start:i])
            start = i
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if "q" in term:
            coeff, _, power = term.partition("q")
            e = int(power[1:]) if power else 1
        else:
            coeff, e = term, 0
        coeff = coeff.strip("()")
        c = Fraction(coeff) if coeff else Fraction(1)
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def parse_key(key: str) -> tuple[int, ...]:
    inner = key.strip()[1:-1]
    return tuple(int(p) for p in inner.split(",")) if inner else ()


def _result(stdout: str, command: str):
    report = json.loads(stdout)
    if report.get("command") != command:
        raise ValueError(f"report is for {report.get('command')!r}, not {command!r}")
    return report["result"]


# ---- partitions and the q = 1 identity -------------------------------------

def partitions(n: int, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def _z(nu) -> int:
    out = 1
    for part in set(nu):
        m = nu.count(part)
        out *= part**m * factorial(m)
    return out


def _one_row_expansion(basis: str, r: int) -> dict:
    """h_r in the e or p basis."""
    if basis == "p":
        return {nu: Fraction(1, _z(nu)) for nu in partitions(r)}
    # h_r = sum over compositions alpha of r of (-1)^(r - len) e_alpha
    out = {}
    for nu in partitions(r):
        orders = factorial(len(nu))
        for part in set(nu):
            orders //= factorial(nu.count(part))
        out[nu] = Fraction((-1) ** (r - len(nu)) * orders)
    return out


@lru_cache(maxsize=None)
def _tables(col_sums: tuple, row_sums: tuple) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    if not row_sums:
        return 1 if not any(col_sums) else 0
    first, rest = row_sums[0], row_sums[1:]
    total = 0

    def place(j, left, cols):
        nonlocal total
        if j == len(col_sums):
            if left == 0:
                total += _tables(tuple(cols), rest)
            return
        for v in range(min(left, col_sums[j]) + 1):
            place(j + 1, left - v, cols + [col_sums[j] - v])

    place(0, first, [])
    return total


def h_expansion_at_one(basis: str, mu, k: int) -> dict:
    """Coefficients of h_mu (k variables) in the named basis."""
    n = sum(mu)
    if basis == "h":
        return {tuple(mu): Fraction(1)}
    if basis in ("s", "m"):
        out = {}
        for lam in partitions(n):
            if len(lam) > k:
                continue
            c = oracle().kostka(lam, mu) if basis == "s" else _tables(lam, tuple(mu))
            if c:
                out[lam] = Fraction(c)
        return out
    acc = {(): Fraction(1)}
    for r in mu:
        nxt = {}
        for lam, c in acc.items():
            for nu, d in _one_row_expansion(basis, r).items():
                key = _merge(lam, nu)
                nxt[key] = nxt.get(key, 0) + c * d
        acc = {lam: c for lam, c in nxt.items() if c}
    return acc


def _fillings(rows, k: int) -> int:
    out = 1
    for lo, hi in rows:
        out *= comb(k + hi - lo, hi - lo + 1)
    return out


def _expand(basis: str, coeffs: dict, k: int) -> dict:
    """sum over lam of coeffs[lam](q) * (basis element lam in k variables),
    as {exponent vector: {q power: coefficient}}."""
    out: dict = {}
    for lam, poly in coeffs.items():
        for exps, c in oracle().brute_basis(basis, lam, k).items():
            slot = out.setdefault(exps, {})
            for e, d in poly.items():
                slot[e] = slot.get(e, 0) + c * d
    return _clean(out)


def _clean(poly: dict) -> dict:
    out = {}
    for exps, slot in poly.items():
        slot = {e: c for e, c in slot.items() if c}
        if slot:
            out[exps] = slot
    return out


# ---- graphs -------------------------------------------------------------

def isomorphic(a, b) -> bool:
    """Exhaustive search for a weight- and edge-preserving bijection."""
    (wa, ma), (wb, mb) = R.graph(a), R.graph(b)
    n = len(wa)
    if n != len(wb) or sorted(wa) != sorted(wb):
        return False
    image, used = [0] * n, [False] * n

    def extend(i):
        if i == n:
            return True
        for t in range(n):
            if used[t] or wb[t] != wa[i]:
                continue
            if any(mb[image[s]][t] != ma[s][i] for s in range(i)):
                continue
            image[i], used[t] = t, True
            if extend(i + 1):
                return True
            used[t] = False
        return False

    return extend(0)


def graph_key(rows):
    """Least (weights, upper edge weights) over every vertex order."""
    weights, matrix = R.graph(rows)
    n = len(weights)
    return min(
        (tuple(weights[v] for v in p),
         tuple(matrix[p[a]][p[b]] for a in range(n) for b in range(a + 1, n)))
        for p in itertools.permutations(range(n))
    )


# ---- checks per command ---------------------------------------------------

def check_llt(op: dict, stdout: str) -> list[str]:
    result = _result(stdout, "llt")
    rows, k, basis = R.parse_strip(op["strip"]), op["vars"], op["basis"]
    mu = tuple(sorted((hi - lo + 1 for lo, hi in rows), reverse=True))
    coeffs = {parse_key(key): parse_qpoly(text) for key, text in result.items()}
    problems = []
    at_one = {lam: sum(p.values()) for lam, p in coeffs.items()}
    at_one = {lam: c for lam, c in at_one.items() if c}
    if at_one != h_expansion_at_one(basis, mu, k):
        problems.append(f"q=1 values differ from h_{mu} in the {basis} basis")
    if basis in ("s", "m"):
        if any(c < 0 or c.denominator != 1 for p in coeffs.values() for c in p.values()):
            problems.append(f"{basis} coefficients are not nonnegative integers")
    if not problems and _fillings(rows, k) <= SMALL_FILLINGS:
        if _expand(basis, coeffs, k) != _clean(oracle().brute_llt(rows, k)):
            problems.append("expansion differs from tableau enumeration")
    return problems


def _chromatic_edges(cells):
    """Cell graph of a strip of one-cell rows: cells sorted by decreasing
    content, higher row first on ties; two cells are joined when they could
    form an inversion."""
    order = sorted(((lo, i) for i, (lo, _) in enumerate(cells)), key=lambda c: (-c[0], -c[1]))
    edges = []
    for a, b in itertools.combinations(range(len(order)), 2):
        (ca, ra), (cb, rb) = order[a], order[b]
        if ca == cb or (ca == cb + 1 and ra < rb):
            edges.append((a + 1, b + 1))
    return edges


def check_chromatic(op: dict, stdout: str) -> list[str]:
    result = _result(stdout, "chromatic")
    cells = R.parse_strip(op["strip"])
    n = len(cells)
    got = {parse_key(key): parse_qpoly(text) for key, text in result["monomials"].items()}
    want = _clean(oracle().brute_chrom_quasisym(n, _chromatic_edges(cells), n))
    return [] if got == want else ["differs from the brute-force colouring sum"]


def path_strip(alpha):
    """Rows of the path strip: reversed partial sums of alpha."""
    prefix = list(itertools.accumulate(alpha, initial=0))
    n = len(alpha)
    return [(prefix[n - i], prefix[n - i + 1] - 1) for i in range(1, n + 1)]


def check_path_llt(op: dict, stdout: str) -> list[str]:
    result = _result(stdout, "path-llt")
    problems = [] if result.get("oracle_match") is True else ["oracle_match is not true"]
    alpha = op["alpha"]
    n = sum(alpha)
    coeffs = {parse_key(k): parse_qpoly(t) for k, t in result["h_expansion"].items()}
    rows = path_strip(alpha)
    if _fillings(rows, n) <= SMALL_FILLINGS:
        if _expand("h", coeffs, n) != _clean(oracle().brute_llt(rows, n)):
            problems.append("h expansion differs from tableau enumeration")
    else:
        at_one = {lam: sum(p.values()) for lam, p in coeffs.items()}
        if {lam: c for lam, c in at_one.items() if c} != {tuple(sorted(alpha, reverse=True)): 1}:
            problems.append("q=1 value is not h_alpha")
    return problems


@lru_cache(maxsize=None)
def _family_keys(fam: tuple) -> list:
    return [graph_key(s) for s in W.family(*fam)]


def check_verify(op: dict, stdout: str) -> list[str]:
    result = _result(stdout, "verify")
    fam = tuple(op["family"])
    keys = _family_keys(fam)
    if op["sample"] is not None:
        picked = sorted(random.Random(op["sample_seed"]).sample(range(len(keys)), op["sample"]))
        keys = [keys[t] for t in picked]
    problems = []
    if result["mismatches"]:
        problems.append(f"{len(result['mismatches'])} mismatches reported")
    if result["strips"] != op["strips"]:
        problems.append(f"strip count {result['strips']}, expected {op['strips']}")
    if result["buckets"] != len(set(keys)):
        problems.append(f"bucket count {result['buckets']}, expected {len(set(keys))}")
    example = result["converse_example"]
    if (example is None) != (result["converse_failures"] == 0):
        problems.append("converse count and example disagree")
    if example is not None:
        a, b = (R.parse_strip(t) for t in example)
        if isomorphic(a, b):
            problems.append("converse pair has isomorphic graphs")
        if oracle().brute_llt(a, fam[0]) != oracle().brute_llt(b, fam[0]):
            problems.append("converse pair has different polynomials")
    return problems


def replay(rows, move):
    name = move[0]
    if name == "translate":
        return R.translate(rows, move[1])
    if name == "cycle":
        return R.cycle(rows)
    if name == "rotate":
        return R.rotate(rows, move[1])
    if name == "commute_swap":
        return R.commute_swap(rows, move[1])
    if name == "local_rotate":
        from lltgraphs.errors import PreconditionError
        from lltgraphs.structure import local_rotate
        from lltgraphs.strips import HorizontalStrip, Row

        strip = HorizontalStrip(tuple(Row(lo, hi) for lo, hi in rows))
        try:
            return [(r.lo, r.hi) for r in local_rotate(strip, move[1]).rows]
        except PreconditionError as exc:
            raise ValueError(str(exc)) from exc
    raise ValueError(f"unknown move {name!r}")


def check_witness(op: dict, stdout: str) -> list[str]:
    result = _result(stdout, "analyze")["witness"]
    source, target = R.parse_strip(op["source"]), R.parse_strip(op["target"])
    if not result["found"]:
        if op["walk"] is not None:
            return ["no witness found for a pair joined by a known walk"]
        return [] if isomorphic(source, target) else ["pair graphs are not isomorphic"]
    problems = []
    current = source
    for move in result["moves"]:
        try:
            current = replay(current, move)
        except ValueError as exc:
            return [f"move {move} does not apply: {exc}"]
        if move[0] != "translate" and not isomorphic(source, current):
            problems.append(f"graph changed after move {move}")
    if current != target:
        problems.append("replayed moves do not reach the target strip")
    steps = sum(1 for m in result["moves"] if m[0] != "translate")
    if op["walk"] is not None and steps > op["walk"]:
        problems.append(f"{steps} moves for a walk of {op['walk']}")
    return problems


CHECKS = {
    "llt": check_llt,
    "chromatic": check_chromatic,
    "path-llt": check_path_llt,
    "verify": check_verify,
    "witness": check_witness,
}


def check(op: dict, stdout: str) -> list[str]:
    try:
        return CHECKS[op["kind"]](op, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
