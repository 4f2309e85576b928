"""lltgraphs benchmark: one workload, timed through the CLI, outputs checked.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every operation is one call of the CLI's
entry function (``lltgraphs.cli.main``) inside this process, with stdout
captured, so argument parsing and JSON output are part of the timed work.
A round is one pass over the workload's operations; rounds repeat until
``--seconds`` have passed, and at least three times.  The first round's
outputs are checked by ``checks.py``; later rounds must reproduce them byte
for byte.  Set-up time is measured apart, by starting fresh interpreters
that import the CLI.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
A fuller record goes to bench/results/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Benchmark hosts are often shared: load from outside slows whole windows of
# seconds, and it only ever adds time.  So every untraced round is followed
# by a few set-up spawns, spreading them over the run, and each operation is
# timed as its least time over at least MIN_ROUNDS rounds, run in a new
# order each round.
SPAWNS_PER_ROUND = 3
MIN_ROUNDS = 3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(spawns: int) -> list[float]:
    """Wall times of fresh interpreters that import lltgraphs.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(spawns):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lltgraphs.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - started)
    return times


def call_cli(entry, args):
    """One CLI invocation: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry(args=args, prog_name="lltgraphs")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return time.perf_counter() - started, code, out.getvalue(), err.getvalue()


def run_round(entry, ops, order, tracer=None):
    """One pass over ops in the given order: per-op (seconds, code, stdout,
    stderr) indexed as ops, and the round's wall time."""
    results = [None] * len(ops)
    started = time.perf_counter()
    for t in order:
        if tracer is None:
            results[t] = call_cli(entry, ops[t]["args"])
        else:
            with tracer.span("cli"):
                results[t] = call_cli(entry, ops[t]["args"])
    return results, time.perf_counter() - started


def quantile(values, q):
    """Inclusive quantile, q in (0, 1), interpolated as statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def time_rounds(entry, ops, seed: int, seconds: float, tracer=None):
    """Run rounds until `seconds` have passed and MIN_ROUNDS untraced rounds
    are done.  With a tracer, traced rounds alternate with untraced ones.
    Returns the rounds as (traced, results, seconds, layer metrics) and the
    set-up spawn times taken after untraced rounds."""
    rounds, setup = [], []
    deadline = time.perf_counter() + seconds
    while True:
        order = random.Random(f"order:{seed}:{len(rounds)}").sample(range(len(ops)), len(ops))
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.reset()
            with tracer.patch():
                results, elapsed = run_round(entry, ops, order, tracer)
            out_bytes = sum(len(r[2].encode()) for r in results)
            rounds.append((True, results, elapsed, tracer.layer_metrics(out_bytes)))
        else:
            results, elapsed = run_round(entry, ops, order)
            rounds.append((False, results, elapsed, None))
            if tracer is None:
                setup += measure_setup(SPAWNS_PER_ROUND)
        untraced = sum(1 for r in rounds if not r[0])
        if untraced >= MIN_ROUNDS and time.perf_counter() >= deadline:
            return rounds, setup


def check_rounds(checks, ops, rounds) -> list[str]:
    """Check the first round's outputs; later rounds must repeat them."""
    first = rounds[0][1]
    problems = []
    for t, (op, (_, code, stdout, stderr)) in enumerate(zip(ops, first)):
        if code != 0:
            print(f"bench: op {t} {op['args']} exited {code}: {stderr.strip()}", file=sys.stderr)
            continue
        problems += [f"op {t} {op['args']}: {p}" for p in checks.check(op, stdout)]
    for number, (_, results, _, _) in enumerate(rounds[1:], start=2):
        for t, (a, b) in enumerate(zip(first, results)):
            if (a[1], a[2]) != (b[1], b[2]):
                problems.append(f"op {t}: round {number} output differs from round 1")
    return problems


def least_times(ops, rounds, traced: bool) -> list[float]:
    """Each op's least time over the traced or the untraced rounds."""
    chosen = [r[1] for r in rounds if r[0] == traced]
    return [min(results[t][0] for results in chosen) for t in range(len(ops))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/lltgraphs/cli.py", "tests/oracle.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import tracing
    from lltgraphs.cli import main as entry

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": git_revision(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    ops = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        measure_setup(1)  # may compile bytecode; not counted
    rounds, setup = time_rounds(entry, ops, args.seed, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(rounds) * len(ops)
    failed = sum(1 for _, results, _, _ in rounds for r in results if r[1] != 0)
    problems = check_rounds(checks, ops, rounds)
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)

    per_op = least_times(ops, rounds, traced=False)
    total_s = sum(per_op)  # one round, taken op by op
    end_to_end = {
        "setup_s": statistics.median(setup) if setup else None,
        "total_s": total_s,
        "strips_per_s": sum(op["strips"] for op in ops) / total_s,
        "query_p50_s": quantile(per_op, 0.5),
        "query_p90_s": quantile(per_op, 0.9),
        "peak_rss_mib": peak_rss_mib,
    }
    per_layer = None
    if tracer is not None:
        traced = [r[3] for r in rounds if r[0]]
        per_layer = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        per_layer["trace.overhead_s"] = sum(least_times(ops, rounds, traced=True)) - total_s
    wanted, values = (spec["per_layer"], per_layer) if tracer else (spec["end_to_end"], end_to_end)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update({
        "attempted": attempted, "failed": failed, "correct": not problems,
        "problems": problems, "rounds": [[r[0], r[2]] for r in rounds],
        "setup_spawns_s": setup, "end_to_end": end_to_end, "per_layer": per_layer,
        "ops": [{"args": op["args"], "least_s": s, "first_s": rounds[0][1][t][0]}
                for t, (op, s) in enumerate(zip(ops, per_op))],
    })
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
