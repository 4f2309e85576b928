"""Seeded inputs for the three workloads.

Each workload is a list of operations.  An operation is one CLI invocation
(its argument list) plus what the output checks need to know about it.  The
same seed gives the same list.  Strata are fixed in size and make-up, and the
seed only picks the members, so that the cost of a round hardly moves from
seed to seed; the make-up of every stratum is documented in README.md.
"""

import itertools
import random

import rows as R

WORKLOADS = ("sweep", "expand", "witness")

# sweep: full families are checked against the closed-form strip count;
# seeded subfamilies (``verify --sample``) vary the strips from seed to seed.
SWEEP_FULL = [(3, 3, 4), (4, 1, 4)]
SWEEP_SAMPLED = [((4, 2, 3), 100, 6), ((5, 1, 4), 80, 6)]

# expand: the running example of the paper at 4 and 5 variables, then random
# strips of 5 to 7 cells with a fixed row-size multiset per stratum.  The
# counts put wide strata of like cost (5-cell and 6-cell h expansions) around
# the median and the 90th percentile, so that those latencies hardly depend
# on which strips the seed draws.
RUNNING_EXAMPLE = "4/0,5/4,8/5,6/1"
FIVE_CELLS = [(3, 2), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
LLT_STRATA = (
    # (row sizes, basis, queries)
    [(sizes, basis, 1) for sizes in FIVE_CELLS for basis in "smep"]
    + [(sizes, "h", 5) for sizes in FIVE_CELLS]
    + [(sizes, basis, 2) for sizes in [(3, 3), (4, 2), (6,)] for basis in "ep"]
    + [(sizes, basis, 2) for sizes in [(3, 3), (2, 2, 2)] for basis in "sm"]
    + [(sizes, "h", 5) for sizes in [(3, 3), (4, 2), (6,)]]
    + [((4, 3), "p", 1), ((7,), "h", 1), ((7,), "p", 1)]
)
CHROMATIC_ROWS = [(5, 8), (6, 6)]  # (single-cell rows, queries)
PATH_SIZES = [(4, 6), (5, 6)]  # (composition size, queries)

# witness: pairs related by a seeded walk of graph-preserving moves.
WALK_ROWS = [(7, 50), (8, 13)]  # (rows, queries); all rows of one size
FAMILY_WALKS = ((3, 3, 4), 35)
# Fixed pairs (source, target, walk length or None when no walk is known),
# the same for every seed.  The first pair shares a bucket of
# the 3/3/4 family, but the search does not reach it within the default
# budget of 100,000 states.  The second is a translate, which the search only
# answers after spending its whole budget.  bench/find_fixed_pairs.py lists
# candidates of both kinds.
FIXED_WITNESS = [
    ("2/0,4/1,7/4", "3/0,4/2,7/4", None),
    ("3/0,6/3,2/0", "5/2,8/5,4/2", 0),
]


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return sweep_ops(rng)
    if workload == "expand":
        return expand_ops(rng)
    if workload == "witness":
        return witness_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def family_size(max_rows: int, max_len: int, max_offset: int) -> int:
    """Closed form for the translation-normalised family of ``verify``."""
    big, small = max_len * (max_offset + 1), max_len * max_offset
    return sum(big**n - small**n for n in range(1, max_rows + 1))


def family(max_rows: int, max_len: int, max_offset: int) -> list[list[tuple]]:
    """The family in the order ``verify --sample`` numbers it: rows as
    (start, length) with the start varying slowest, tuples of rows in
    itertools.product order, only strips with a row starting at 0."""
    choices = [
        (lo, lo + length - 1)
        for lo in range(max_offset + 1)
        for length in range(1, max_len + 1)
    ]
    out = []
    for n in range(1, max_rows + 1):
        for combo in itertools.product(choices, repeat=n):
            if min(lo for lo, _ in combo) == 0:
                out.append(list(combo))
    return out


def _verify_op(fam, sample=None, sample_seed=None) -> dict:
    args = ["verify", "--max-rows", str(fam[0]), "--max-len", str(fam[1]),
            "--max-offset", str(fam[2])]
    if sample is not None:
        args += ["--sample", str(sample), "--seed", str(sample_seed)]
    strips = family_size(*fam) if sample is None else sample
    return {"kind": "verify", "args": args, "family": list(fam), "sample": sample,
            "sample_seed": sample_seed, "strips": strips}


def sweep_ops(rng: random.Random) -> list[dict]:
    ops = [_verify_op(fam) for fam in SWEEP_FULL]
    for fam, size, count in SWEEP_SAMPLED:
        ops += [_verify_op(fam, size, rng.randrange(2**31)) for _ in range(count)]
    return ops


def _random_strip(rng: random.Random, sizes) -> str:
    cells = sum(sizes)
    order = list(sizes)
    rng.shuffle(order)
    return R.format_strip([(lo, lo + s - 1) for s, lo in
                           ((s, rng.randrange(cells)) for s in order)])


def _llt_op(strip: str, k: int, basis: str) -> dict:
    return {"kind": "llt", "args": ["llt", "--strip", strip, "--vars", str(k),
                                    "--basis", basis],
            "strip": strip, "vars": k, "basis": basis, "strips": 1}


def _composition(rng: random.Random, n: int) -> tuple[int, ...]:
    cuts = sorted(c for c in range(1, n) if rng.random() < 0.5)
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def expand_ops(rng: random.Random) -> list[dict]:
    ops = [_llt_op(RUNNING_EXAMPLE, k, basis) for k in (4, 5) for basis in "sm"]
    for sizes, basis, count in LLT_STRATA:
        for _ in range(count):
            ops.append(_llt_op(_random_strip(rng, sizes), sum(sizes), basis))
    for n, count in CHROMATIC_ROWS:
        for _ in range(count):
            strip = R.format_strip([(lo, lo) for lo in
                                    (rng.randrange(4) for _ in range(n))])
            ops.append({"kind": "chromatic", "args": ["chromatic", "--strip", strip],
                        "strip": strip, "strips": 1})
    for n, count in PATH_SIZES:
        for _ in range(count):
            alpha = _composition(rng, n)
            text = ",".join(map(str, alpha))
            ops.append({"kind": "path-llt",
                        "args": ["path-llt", "--alpha", text, "--check-oracle"],
                        "alpha": list(alpha), "strips": 1})
    return ops


def walk(rows, length: int, rng: random.Random):
    """Apply `length` seeded moves drawn from cycle, rotate and commute_swap."""
    for _ in range(length):
        moves = ["cycle", "rotate"] + [
            i for i in range(1, len(rows)) if R.commutes(rows[i - 1], rows[i])
        ]
        move = rng.choice(moves)
        if move == "cycle":
            rows = R.cycle(rows)
        elif move == "rotate":
            rows = R.rotate(rows, rng.randint(-3, 3))
        else:
            rows = R.commute_swap(rows, move)
    return rows


def _witness_op(source, target, walk_length) -> dict:
    src, dst = R.format_strip(source), R.format_strip(target)
    return {"kind": "witness",
            "args": ["analyze", "--strip", src, "--report", "witness", "--other", dst],
            "source": src, "target": dst, "walk": walk_length, "strips": 2}


def witness_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n, count in WALK_ROWS:
        for t in range(count):
            size, length = 1 + t % 3, 1 + (t // 3) % 3
            while True:
                source = R.normalize([(lo, lo + size - 1) for lo in
                                      (rng.randrange(n * size + 1) for _ in range(n))])
                target = walk(source, length, rng)
                # a pure translate sends the search to its full budget; the
                # fixed pairs below measure that case once per round
                if R.normalize(target) != source:
                    break
            ops.append(_witness_op(source, target, length))
    fam, count = FAMILY_WALKS
    members = [s for s in family(*fam) if len(s) > 1]
    for t in range(count):
        length = 1 + t % 3
        while True:
            source = rng.choice(members)
            target = R.normalize(walk(source, length, rng))
            if target != source and max(lo for lo, _ in target) <= fam[2]:
                break
        ops.append(_witness_op(source, target, length))
    for src, dst, length in FIXED_WITNESS:
        ops.append(_witness_op(R.parse_strip(src), R.parse_strip(dst), length))
    return ops
