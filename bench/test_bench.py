"""Tests of the benchmark itself: python3 -m pytest bench -q

Each output check accepts the program's real output on a small version of
its workload and rejects a deliberately corrupted copy.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import rows as R  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from lltgraphs.cli import main as entry  # noqa: E402


def output(op) -> str:
    _, code, stdout, stderr = run.call_cli(entry, op["args"])
    assert code == 0, stderr
    return stdout


def edit(stdout: str, change) -> str:
    report = json.loads(stdout)
    change(report["result"])
    return json.dumps(report)


def bump(text: str) -> str:
    return text + "+1" if text != "0" else "1"


@pytest.mark.parametrize("basis", "smhep")
def test_llt_check_accepts_output_and_rejects_bumped_coefficient(basis):
    op = W._llt_op("2/0,3/1,2/1", 5, basis)
    stdout = output(op)
    assert checks.check(op, stdout) == []

    def change(result):
        key = next(iter(result))
        result[key] = bump(result[key])

    assert checks.check(op, edit(stdout, change))


def test_llt_check_full_enumeration_catches_q_shift_that_keeps_q1_values():
    op = W._llt_op("2/0,2/1,3/1", 3, "s")
    stdout = output(op)
    assert checks.check(op, stdout) == []

    def change(result):
        key = next(k for k, v in result.items() if "q" in v)
        at_one = sum(checks.parse_qpoly(result[key]).values())
        result[key] = f"{at_one}q^9"

    assert "expansion differs from tableau enumeration" in checks.check(op, edit(stdout, change))


def test_llt_check_on_running_example_uses_q1_identity():
    op = W._llt_op(W.RUNNING_EXAMPLE, 4, "s")
    stdout = output(op)
    assert checks.check(op, stdout) == []
    negative = edit(stdout, lambda result: result.update({"(13)": "-q+2"}))
    assert checks.check(op, negative) == [
        "s coefficients are not nonnegative integers"]


def test_chromatic_check():
    op = {"kind": "chromatic", "args": ["chromatic", "--strip", "1/0,2/1,1/0,2/1"],
          "strip": "1/0,2/1,1/0,2/1", "strips": 1}
    stdout = output(op)
    assert checks.check(op, stdout) == []

    def change(result):
        key = next(iter(result["monomials"]))
        result["monomials"][key] = bump(result["monomials"][key])

    assert checks.check(op, edit(stdout, change))


@pytest.mark.parametrize("alpha", ["2,1,2", "3,1,2"])
def test_path_llt_check(alpha):
    op = {"kind": "path-llt", "args": ["path-llt", "--alpha", alpha, "--check-oracle"],
          "alpha": [int(a) for a in alpha.split(",")], "strips": 1}
    stdout = output(op)
    assert checks.check(op, stdout) == []

    def change(result):
        key = next(iter(result["h_expansion"]))
        result["h_expansion"][key] = bump(result["h_expansion"][key])

    assert checks.check(op, edit(stdout, change))
    assert checks.check(op, edit(stdout, lambda r: r.update({"oracle_match": False})))


@pytest.mark.parametrize("sample", [None, 40])
def test_verify_check_rejects_wrong_counts(sample):
    op = W._verify_op((3, 2, 3), sample, 11 if sample else None)
    stdout = output(op)
    assert checks.check(op, stdout) == []
    assert checks.check(op, edit(stdout, lambda r: r.update({"buckets": r["buckets"] + 1})))
    assert checks.check(op, edit(stdout, lambda r: r.update({"strips": r["strips"] - 1})))
    assert checks.check(op, edit(stdout, lambda r: r.update({"mismatches": [["1/0", "1/0"]]})))


def test_verify_check_rejects_isomorphic_converse_pair():
    op = W._verify_op((3, 2, 3))

    def change(result):
        result["converse_failures"] = 1
        result["converse_example"] = ["2/0,3/1", "3/1,4/2"]

    problems = checks.check(op, edit(output(op), change))
    assert problems == ["converse pair has isomorphic graphs"]


def test_family_matches_closed_form():
    for fam in [(1, 1, 0), (2, 3, 1), (3, 2, 3), (4, 1, 4)]:
        assert len(W.family(*fam)) == W.family_size(*fam)


def test_witness_check_rejects_dropped_move_and_long_witness():
    ops = [op for op in W.build("witness", 0) if op["walk"]][:3]
    for op in ops:
        stdout = output(op)
        assert checks.check(op, stdout) == []
        moves = json.loads(stdout)["result"]["witness"]["moves"]
        assert checks.check(op, edit(stdout, lambda r: r["witness"]["moves"].pop()))
        short = dict(op, walk=sum(1 for m in moves if m[0] != "translate") - 1)
        assert checks.check(short, stdout)


def test_witness_check_rejects_move_that_does_not_apply():
    source = [(0, 1), (1, 2)]
    op = W._witness_op(source, R.translate(source, 1), 0)
    forged = {"command": "analyze", "result": {"witness": {
        "found": True, "moves": [["commute_swap", 1], ["translate", 1]]}}}
    assert checks.check(op, json.dumps(forged))


def test_qpoly_parser():
    assert checks.parse_qpoly("-(1/2)q^2+3q-1") == {2: -0.5, 1: 3, 0: -1}
    assert checks.parse_qpoly("q") == {1: 1}
    assert checks.parse_qpoly("0") == {}


def test_workloads_are_seeded():
    for name in W.WORKLOADS:
        assert W.build(name, 3) == W.build(name, 3)
        assert W.build(name, 3) != W.build(name, 4)
    assert len(W.build("expand", 0)) >= 100
    assert len(W.build("witness", 0)) >= 100


def test_tracer_patches_every_binding_and_restores():
    import lltgraphs
    import lltgraphs.chromatic
    import lltgraphs.cli
    import lltgraphs.llt
    import lltgraphs.wgraph

    original = lltgraphs.llt.llt_poly
    tracer = tracing.Tracer()
    with tracer.patch():
        for module in (lltgraphs, lltgraphs.cli, lltgraphs.wgraph, lltgraphs.chromatic):
            assert module.llt_poly is lltgraphs.llt.llt_poly is not original
        run.run_round(entry, [W._llt_op("2/0,3/1", 2, "s")], [0], tracer)
    assert lltgraphs.cli.llt_poly is original
    stats = tracer.stats
    assert stats["llt.llt_poly"].calls == 1
    assert stats["qsymfunc.to_basis"].calls == 1
    to_basis = stats["qsymfunc.to_basis"]
    assert to_basis.self_s == pytest.approx(to_basis.s - stats["qsymfunc.eval_basis"].s)


def test_per_layer_names_are_all_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.Tracer().layer_metrics(0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
