import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from lltgraphs.cli import main, partition_key, run_verify

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def body(result):
    return json.loads(result.output)


GOLDEN_LLT = (
    '{"command":"llt","inputs":{"strip":"2/1,2/0","vars":null,"basis":"s"},'
    '"result":{"(3)":"1","(2,1)":"q"},"version":"0.1.0"}\n'
)


def test_llt_schur_golden_bytes(runner):
    result = invoke(runner, "llt", "--strip", "2/1,2/0", "--basis", "s")
    assert result.exit_code == 0
    assert result.output == GOLDEN_LLT


def test_llt_monomial_payload(runner):
    result = invoke(runner, "llt", "--strip", "1/0,1/0")
    assert result.exit_code == 0
    payload = body(result)
    assert payload["result"] == {
        "vars": 2,
        "degree": 2,
        "monomials": {"(2,0)": "1", "(1,1)": "q+1", "(0,2)": "1"},
    }
    assert list(payload["result"]["monomials"]) == ["(2,0)", "(1,1)", "(0,2)"]


def test_llt_report_key_order(runner):
    result = invoke(runner, "llt", "--strip", "2/1,2/0", "--basis", "s")
    assert list(body(result)) == ["command", "inputs", "result", "version"]


def test_llt_text_format_has_elapsed(runner):
    result = invoke(runner, "llt", "--strip", "2/1,2/0", "--format", "text")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[-1].startswith("elapsed_ms:")


def test_llt_parse_error_goes_to_stderr(runner):
    result = invoke(runner, "llt", "--strip", "4/4")
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["exit_code"] == 2
    assert result.stdout == ""


def test_unknown_basis_is_a_usage_error(runner):
    result = invoke(runner, "llt", "--strip", "2/1", "--basis", "x")
    assert result.exit_code == 2


def test_pi_payload(runner):
    result = invoke(runner, "pi", "--strip", "4/0,5/4,8/5,6/1")
    assert body(result)["result"] == {
        "weights": [4, 1, 3, 5],
        "edges": [[1, 4, 3], [2, 4, 1], [3, 4, 2]],
    }


def test_iso_from_files(runner):
    result = invoke(
        runner,
        "iso",
        "--a",
        str(DATA / "wgraph_pair_a.json"),
        "--b",
        str(DATA / "wgraph_pair_b.json"),
    )
    assert result.exit_code == 0
    assert body(result)["result"] == {
        "isomorphic": True,
        "permutation": [2, 1, 4, 3],
    }


def test_iso_inline_negative(runner):
    a = '{"weights":[1,1],"edges":[[1,2,1]]}'
    b = '{"weights":[1,1],"edges":[]}'
    result = invoke(runner, "iso", "--a", a, "--b", b)
    assert result.exit_code == 0
    assert body(result)["result"] == {"isomorphic": False, "permutation": None}


def test_iso_missing_file(runner):
    result = invoke(runner, "iso", "--a", "no-such.json", "--b", "also-missing.json")
    assert result.exit_code == 2


def test_chromatic_from_strip(runner):
    result = invoke(runner, "chromatic", "--strip", "1/0,1/0", "--vars", "2")
    assert body(result)["result"]["monomials"] == {"(1,1)": "q+1"}


def test_chromatic_from_graph(runner):
    result = invoke(
        runner, "chromatic", "--graph", '{"weights":[2],"edges":[]}', "--vars", "2"
    )
    assert body(result)["result"]["monomials"] == {"(2,0)": "1", "(0,2)": "1"}


def test_chromatic_requires_one_source(runner):
    both = invoke(
        runner,
        "chromatic",
        "--graph",
        '{"weights":[1],"edges":[]}',
        "--strip",
        "1/0",
    )
    assert both.exit_code == 2
    neither = invoke(runner, "chromatic")
    assert neither.exit_code == 2


@pytest.mark.parametrize(
    "source", [["--graph", '{"weights":[2],"edges":[]}'], ["--strip", "1/0,1/0"]]
)
def test_chromatic_rejects_zero_colours(runner, source):
    result = invoke(runner, "chromatic", *source, "--vars", "0")
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "graph",
    [
        '{"weights":[2,1.5],"edges":[[1,2,1]]}',
        '{"weights":[2,1],"edges":[[1,2,1.0]]}',
        '{"weights":[true,1],"edges":[[1,2,1]]}',
    ],
    ids=["fractional-vertex-weight", "float-edge-weight", "bool-vertex-weight"],
)
def test_chromatic_rejects_non_integer_graph_json(runner, graph):
    result = invoke(runner, "chromatic", "--graph", graph)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "ParseError"


def test_chromatic_wide_rows_hit_precondition(runner):
    result = invoke(runner, "chromatic", "--strip", "2/0,1/0")
    assert result.exit_code == 3
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "NotUnicellular"


def test_path_llt_with_oracle(runner):
    result = invoke(runner, "path-llt", "--alpha", "1,1", "--check-oracle")
    assert result.exit_code == 0
    payload = body(result)["result"]
    assert payload["h_expansion"] == {"(2)": "-q+1", "(1,1)": "q"}
    assert payload["oracle_match"] is True


def test_path_llt_printed_sign_fails_oracle(runner):
    result = invoke(
        runner, "path-llt", "--alpha", "1,1", "--printed-sign", "--check-oracle"
    )
    assert result.exit_code == 1
    assert body(result)["result"]["oracle_match"] is False


def test_compose(runner):
    result = invoke(runner, "compose", "--alpha", "1,2", "--beta", "2,1")
    assert body(result)["result"] == "2,1,2,3,1"


def test_analyze_default_reports(runner):
    result = invoke(runner, "analyze", "--strip", "6/1,12/6,8/4")
    assert result.exit_code == 0
    assert body(result)["result"] == {
        "strict": {
            "pairs": [[1, 2], [1, 3]],
            "sequences": [{"indices": [1, 2], "witness": 3}],
        },
        "nesting": False,
        "ncp": [{"endpoints": [1, 3], "indices": [1, 2, 3]}],
    }


def test_analyze_witness_needs_other(runner):
    result = invoke(runner, "analyze", "--strip", "2/0,2/1", "--report", "witness")
    assert result.exit_code == 2
    ok = invoke(
        runner,
        "analyze",
        "--strip",
        "2/0,2/1",
        "--report",
        "witness",
        "--other",
        "2/1,2/0",
    )
    assert ok.exit_code == 0
    assert body(ok)["result"]["witness"] == {
        "found": True,
        "moves": [["commute_swap", 1]],
    }


def test_analyze_witness_rejects_a_budget_below_one(runner):
    for budget in ("0", "-3"):
        result = invoke(
            runner,
            "analyze",
            "--strip",
            "2/0,2/1",
            "--report",
            "witness",
            "--other",
            "2/1,2/0",
            "--budget",
            budget,
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        err = json.loads(result.stderr)
        assert err["error"]["type"] == "PreconditionViolated"
        assert err["error"]["exit_code"] == 3


def test_analyze_rejects_unknown_report(runner):
    result = invoke(runner, "analyze", "--strip", "2/0", "--report", "bogus")
    assert result.exit_code == 2


def test_verify_small_family(runner):
    result = invoke(
        runner,
        "verify",
        "--max-rows",
        "2",
        "--max-len",
        "2",
        "--max-offset",
        "2",
    )
    assert result.exit_code == 0
    assert body(result)["result"] == {
        "strips": 22,
        "buckets": 9,
        "mismatches": [],
        "converse_failures": 0,
        "converse_example": None,
    }


def test_verify_sampling_is_deterministic(runner):
    args = [
        "verify",
        "--max-rows",
        "3",
        "--max-len",
        "2",
        "--max-offset",
        "2",
        "--sample",
        "15",
        "--seed",
        "7",
    ]
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert body(first)["result"]["strips"] == 15


def test_verify_rejects_bad_bounds(runner):
    result = invoke(runner, "verify", "--max-rows", "0")
    assert result.exit_code == 2


def test_verify_rejects_a_sample_below_one(runner):
    family = ["verify", "--max-rows", "2", "--max-len", "2", "--max-offset", "2"]
    for sample in ("0", "-5"):
        result = invoke(runner, *family, "--sample", sample)
        assert result.exit_code == 2, sample
        assert json.loads(result.stderr)["error"]["type"] == "ParseError"
    whole = invoke(runner, *family, "--sample", "1000")
    assert whole.exit_code == 0
    assert body(whole)["result"]["strips"] == 22


@pytest.mark.parametrize("sample", [0, -3])
def test_run_verify_rejects_a_sample_below_one(sample):
    with pytest.raises(ValueError, match="sample must be at least 1"):
        run_verify(2, 2, 2, sample=sample)


def test_version_flag(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_partition_key_round_trip():
    for parts in [(), (3,), (6, 4, 3), (1, 1, 1, 1)]:
        key = partition_key(parts)
        assert key == "(" + key[1:-1] + ")"
        assert tuple(json.loads("[" + key[1:-1] + "]")) == parts


def test_run_verify_counts_match_cli_fixture(sweep_main):
    report = run_verify(3, 3, 4, sample=40, seed=1)
    assert report["strips"] == 40
    assert report["mismatches"] == []
    assert len(sweep_main) == 1731


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-m", "lltgraphs", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "verify" in result.stdout
