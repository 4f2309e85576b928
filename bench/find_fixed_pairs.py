"""Find candidates for the fixed witness pairs in workloads.FIXED_WITNESS.

    python3 bench/find_fixed_pairs.py [--pairs 600] [--seed 0]

Draws seeded same-bucket pairs from the 3/3/4 family, runs the witness
search on each with its default budget, and prints the pairs it does not
resolve, with the time taken.  Then it times the search from a few family
strips to their translates by 2.  Both kinds cost seconds, and the workload
keeps one of each so that every round pays for the search at full budget.
"""

import argparse
import collections
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lltgraphs.cli import sweep_family  # noqa: E402
from lltgraphs.strips import translate  # noqa: E402
from lltgraphs.structure import similarity_witness  # noqa: E402
from lltgraphs.wgraph import canonical_form, pi_graph  # noqa: E402


def timed(lam, mu):
    started = time.perf_counter()
    moves = similarity_witness(lam, mu)
    return moves, time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    buckets = collections.defaultdict(list)
    for strip in sweep_family(3, 3, 4):
        buckets[canonical_form(pi_graph(strip))].append(strip)
    shared = [members for members in buckets.values() if len(members) > 1]
    rng = random.Random(args.seed)
    for _ in range(args.pairs):
        lam, mu = rng.sample(rng.choice(shared), 2)
        moves, seconds = timed(lam, mu)
        if moves is None:
            print(f"unresolved {lam.literal} {mu.literal} {seconds:.2f}s")
    for members in rng.sample(shared, 4):
        _, seconds = timed(members[0], translate(members[0], 2))
        print(f"translate  {members[0].literal} {translate(members[0], 2).literal} {seconds:.2f}s")


if __name__ == "__main__":
    main()
