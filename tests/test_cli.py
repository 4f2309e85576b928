import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from lltgraphs import QPoly, canonical_form, llt_poly, pi_graph
from lltgraphs import cli, llt
from lltgraphs.cli import main, partition_key, run_verify, sweep_family
from lltgraphs.errors import PreconditionViolated
from lltgraphs.qsymfunc import partitions_of
from lltgraphs.strips import HorizontalStrip, Row

from formulas import mask_components

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


def _graph_error(result) -> dict:
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    return json.loads(line)["error"]


def test_iso_unreadable_graph_file_is_a_parse_error(runner, tmp_path):
    error = _graph_error(invoke(runner, "iso", "--a", str(tmp_path), "--b", str(tmp_path)))
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"cannot read graph file {str(tmp_path)!r}: ")


# deeper than the JSON decoder can recurse, yet short enough for one argv entry
DEEP_GRAPH = '{"weights":' + "[" * 100_000


@pytest.mark.parametrize("where", ["inline", "file"])
def test_graph_json_nested_too_deep_is_a_parse_error(runner, tmp_path, where):
    graph = DEEP_GRAPH
    if where == "file":
        graph = tmp_path / "deep.json"
        graph.write_text(DEEP_GRAPH)
    error = _graph_error(invoke(runner, "iso", "--a", str(graph), "--b", '{"weights":[1]}'))
    assert error["type"] == "ParseError"
    assert error["message"].startswith("bad graph JSON: maximum recursion depth exceeded")


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


@pytest.mark.parametrize(
    "command, graphs",
    [
        ("iso", ["--a", '{"weights":[2,2],"edges":[[1,2,1],[2,1,2]]}',
                 "--b", '{"weights":[2,2],"edges":[[1,2,2]]}']),
        ("chromatic", ["--graph", '{"weights":[1,1],"edges":[[1,2,1],[1,2,0]]}']),
    ],
    ids=["iso-conflicting-weights", "chromatic-dropped-edge"],
)
def test_graph_json_with_a_pair_given_twice_is_a_parse_error(runner, command, graphs):
    result = invoke(runner, command, *graphs)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ParseError"
    assert "(1, 2)" in error["message"]


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


@pytest.mark.parametrize("nvars", ["0", "-2"])
def test_verify_refuses_no_variables_before_sweeping(runner, monkeypatch, nvars):
    def unreachable(*args, **kwargs):
        raise AssertionError("swept a family it cannot check")

    monkeypatch.setattr(cli, "sweep_family", unreachable)
    result = invoke(runner, "verify", "--max-rows", "4", "--max-len", "3",
                    "--max-offset", "4", "--vars", nvars)
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == {
        "type": "ValueError", "message": "need at least one variable", "exit_code": 2
    }


def test_verify_refuses_to_sample_a_family_past_sys_maxsize(runner):
    """A family of 2**(r+1) - r - 2 strips (rows up to r, one cell, offsets
    0..1) is sampled at r = 62, the last size up to sys.maxsize; the full
    20/3/4 family is refused with the one-line JSON error."""
    assert 2**63 - 64 <= sys.maxsize < 2**64 - 65
    assert len(sweep_family(62, 1, 1, sample=3, seed=5)) == 3
    with pytest.raises(PreconditionViolated, match=f"of {2**64 - 65} strips"):
        sweep_family(63, 1, 1, sample=3, seed=5)
    result = invoke(runner, "verify", "--max-rows", "20", "--max-len", "3",
                    "--max-offset", "4", "--sample", "3")
    assert result.exit_code == 3
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "PreconditionViolated"
    assert "a family of 352095223166123790139140 strips" in error["message"]


@pytest.mark.parametrize("args", [
    ["llt", "--strip", "1/0"],
    ["chromatic", "--strip", "1/0"],
    ["chromatic", "--graph", '{"weights":[1],"edges":[]}'],
    ["verify", "--max-rows", "2", "--max-len", "1", "--max-offset", "1"],
])
def test_a_variable_count_past_sys_maxsize_is_refused(runner, args):
    """Padding a monomial to more than sys.maxsize entries overflows, so
    such a count is refused before the engine runs, with the one-line
    JSON error."""
    count = 10**20
    assert count > sys.maxsize
    result = invoke(runner, *args, "--vars", str(count))
    assert result.exit_code == 3
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error == {"type": "PreconditionViolated", "exit_code": 3,
                     "message": f"cannot use {count} variables, more than {sys.maxsize}"}


@pytest.mark.parametrize("command", ["llt", "chromatic"])
def test_many_variables_list_every_monomial(runner, command):
    """One cell in 1,500 variables: x_1 + ... + x_1500, with no deep
    recursion on the way to the report."""
    result = invoke(runner, command, "--strip", "1/0", "--vars", "1500")
    assert result.exit_code == 0
    monomials = body(result)["result"]["monomials"]
    assert len(monomials) == 1500
    assert set(monomials.values()) == {"1"}


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


# verify outputs recorded by earlier sweeps: verify_5_1_4.json, with one
# converse pair, before connected and split buckets shared one rule,
# verify_3_3_4.json before split buckets were checked component by
# component, verify_4_2_2.json, with one converse pair, before inputs
# were memoised by normal form, verify_7_1_3.json, with 33 converse pairs,
# before canonical_form and normal_form shared one least-reading search,
# the others before the sweep shared any work between strips; CI also
# replays verify_4_3_4.json, recorded with verify_7_1_3.json, and the
# multi-cell verify_4_3_5.json and verify_5_2_3.json, recorded before
# verify kept one memo and one agreement rule, which take too long here
GOLDEN_VERIFY = {
    "verify_4_2_2.json": ["--max-rows", "4", "--max-len", "2", "--max-offset", "2"],
    "verify_3_3_4.json": ["--max-rows", "3", "--max-len", "3", "--max-offset", "4"],
    "verify_4_1_4.json": ["--max-rows", "4", "--max-len", "1", "--max-offset", "4"],
    "verify_5_1_4.json": ["--max-rows", "5", "--max-len", "1", "--max-offset", "4"],
    "verify_7_1_3.json": ["--max-rows", "7", "--max-len", "1", "--max-offset", "3"],
    "verify_4_2_3_sample100_seed1675479830.json": [
        "--max-rows", "4", "--max-len", "2", "--max-offset", "3",
        "--sample", "100", "--seed", "1675479830",
    ],
    "verify_4_2_3_sample100_seed7.json": [
        "--max-rows", "4", "--max-len", "2", "--max-offset", "3",
        "--sample", "100", "--seed", "7",
    ],
    "verify_5_1_4_sample80_seed1945980801.json": [
        "--max-rows", "5", "--max-len", "1", "--max-offset", "4",
        "--sample", "80", "--seed", "1945980801",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_golden_bytes(runner, name):
    result = invoke(runner, "verify", *GOLDEN_VERIFY[name])
    assert result.exit_code == 0
    assert result.output == (DATA / name).read_text()


# witness outputs whose move chains each use local_rotate
GOLDEN_WITNESS = {
    "witness_local_rotate_1.json": ("1/0,2/1,4/2", "1/0,3/1,4/3"),
    "witness_local_rotate_2.json": ("2/0,3/2,6/4", "1/0,4/2,6/4"),
    "witness_local_rotate_3.json": ("1/0,6/4,5/3", "1/0,3/1,3/1"),
    "witness_local_rotate_4.json": ("6/4,6/4,3/0", "2/0,2/0,5/2"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WITNESS))
def test_witness_golden_bytes(runner, name):
    strip, other = GOLDEN_WITNESS[name]
    result = invoke(runner, "analyze", "--strip", strip, "--other", other, "--report", "witness")
    assert result.exit_code == 0
    assert result.output == (DATA / name).read_text()
    assert ["local_rotate"] in [move[:1] for move in body(result)["result"]["witness"]["moves"]]


def test_witness_budget_miss_golden_bytes(runner):
    # same weighted graph, but the search spends its whole default budget
    # of 100,000 states without finding a chain
    result = invoke(runner, "analyze", "--strip", "2/0,4/1,7/4", "--other", "3/0,4/2,7/4",
                    "--report", "witness")
    assert result.exit_code == 0
    assert result.output == (DATA / "witness_budget_miss.json").read_text()


GOLDENS = json.loads((DATA / "cli_goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_golden(name):
    """stdout, stderr and exit code of each case in cli_goldens.json, with
    click wrapping help at 80 columns; a text report's trailing elapsed_ms
    line is left out."""
    case = GOLDENS[name]
    result = CliRunner().invoke(main, case["args"], prog_name="lltgraphs", terminal_width=80)
    lines = result.stdout.splitlines(keepends=True)
    if lines and lines[-1].startswith("elapsed_ms: "):
        lines.pop()
    assert ("".join(lines), result.stderr, result.exit_code) == (
        case["stdout"], case["stderr"], case["exit_code"]
    )


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("name", sorted(name for name in GOLDENS if name.endswith("-help")))
def test_console_script_help_matches_golden_at_any_width(name, columns):
    """The console script's entry point, run in a fresh process, prints the
    golden help whatever COLUMNS says; CliRunner fixes the width itself, so
    only a subprocess sees the terminal's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, COLUMNS=columns,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    case = GOLDENS[name]
    result = subprocess.run(
        [sys.executable, "-c", "from lltgraphs.cli import main; main(prog_name='lltgraphs')",
         *case["args"]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.stdout, result.stderr, result.returncode) == (
        case["stdout"], case["stderr"], case["exit_code"]
    )


def test_cli_goldens_cover_every_subcommand():
    wanted = {"json", "reordered", "text", "help"}
    for command in main.commands:
        kinds = {name[len(command) + 1:] for name in GOLDENS if name.startswith(command + "-")}
        assert wanted <= kinds, command


def _product_family(max_rows, max_len, max_offset):
    """The family as itertools.product lists it, filtered to strips with a
    row starting at 0."""
    choices = [Row(lo, lo + length - 1)
               for lo in range(max_offset + 1) for length in range(1, max_len + 1)]
    return [HorizontalStrip(combo) for n in range(1, max_rows + 1)
            for combo in itertools.product(choices, repeat=n)
            if min(row.lo for row in combo) == 0]


@given(
    max_rows=st.integers(1, 4),
    max_len=st.integers(1, 2),
    max_offset=st.integers(0, 3),
    data=st.data(),
)
def test_sampled_family_is_a_slice_of_the_full_family(max_rows, max_len, max_offset, data):
    full = _product_family(max_rows, max_len, max_offset)
    assert sweep_family(max_rows, max_len, max_offset) == full
    sample = data.draw(st.one_of(
        st.just(1), st.integers(1, len(full)), st.integers(len(full), len(full) + 3)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    if sample < len(full):
        want = [full[t] for t in sorted(Random(seed).sample(range(len(full)), sample))]
    else:
        want = full
    assert sweep_family(max_rows, max_len, max_offset, sample, seed) == want


def _verify_without_memos(max_rows, max_len, max_offset, sample, seed, k):
    """run_verify's report with llt_poly and canonical_form(pi_graph(.))
    called afresh for every strip."""
    nvars = k if k is not None else max_rows
    buckets = {}
    for strip in sweep_family(max_rows, max_len, max_offset, sample, seed):
        form = canonical_form(pi_graph(strip))
        buckets.setdefault(form, []).append((strip, llt_poly(strip, nvars)))
    mismatches = [[members[0][0].literal, strip.literal]
                  for members in buckets.values()
                  for strip, poly in members[1:] if poly != members[0][1]]
    by_poly = {}
    for members in buckets.values():
        by_poly.setdefault(members[0][1], []).append(members[0][0])
    return {
        "strips": sum(len(members) for members in buckets.values()),
        "buckets": len(buckets),
        "mismatches": mismatches,
        "converse_failures": sum(len(v) * (len(v) - 1) // 2 for v in by_poly.values()),
        "converse_example": next(
            ([v[0].literal, v[1].literal] for v in by_poly.values() if len(v) > 1),
            None),
    }


def _engine_runs(family, sample, seed, k, engine):
    """The engine runs run_verify should make, each once per call, as a
    Counter of (sizes, out) for a whole run and (sizes, out, lead) for a
    screen. An input asked for whole runs once per normal-form class, on
    its normal form. Every member comparison asks for the component
    inputs of both strips, its key, and for both strips whole where their
    component polynomials differ as a multiset. Then each first whose
    input is neither asked for nor a normal form already run gets a
    screen at lead n - 2, n its cell count, on its own input; and each
    first whose screen, its coefficients at those partitions, another
    first shares is asked for whole."""
    nvars = k if k is not None else family[0]
    buckets = {}
    for strip in sweep_family(*family, sample, seed):
        buckets.setdefault(canonical_form(pi_graph(strip)), []).append(strip)

    def key(strip):
        groups = mask_components(*llt.llt_input(strip))
        return tuple(llt.llt_input(HorizontalStrip(tuple(strip.rows[i] for i in g)))
                     for g in groups)

    def polys(key):
        return Counter(engine(*pair, nvars) for pair in key)

    asked, screens = set(), []
    for first, *others in buckets.values():
        for other in others:
            asked.update(key(other) + key(first))
            if polys(key(other)) != polys(key(first)):
                asked.update([llt.llt_input(other), llt.llt_input(first)])
    run = asked | {llt.normal_form(*pair) for pair in asked}
    by_screen = {}
    for first, *_ in buckets.values():
        pair = llt.llt_input(first)
        n = len(pair[1])
        if pair in run:
            f = engine(*pair, nvars)
        else:
            screens.append(pair + (n - 2,))
            f = engine(*pair, nvars, n - 2)
        leading = [lam for lam in partitions_of(n, nvars) if lam[0] >= n - 2]
        screen = (n, tuple(f.coeff(lam + (0,) * (nvars - len(lam))) for lam in leading))
        by_screen.setdefault(screen, []).append(pair)
    asked.update(pair for same in by_screen.values() if len(same) > 1 for pair in same)
    return Counter({llt.normal_form(*pair) for pair in asked}) + Counter(screens)


def test_equal_screens_leave_polynomials_apart():
    """In the seeded 4/2/3 sample, three groups of bucket first strips
    share a screen, their coefficients on the partitions lam with
    lam_1 >= n - 2, yet hold unequal polynomials. Only one pair of firsts
    has equal polynomials, so a converse count that took equal screens
    for equal polynomials would report more."""
    buckets = {}
    for strip in sweep_family(4, 2, 3, 100, 7):
        buckets.setdefault(canonical_form(pi_graph(strip)), []).append(strip)
    by_screen = {}
    for first, *_ in buckets.values():
        pair = llt.llt_input(first)
        screen = llt.llt_of_input(*pair, 4, len(pair[1]) - 2)
        by_screen.setdefault(screen, []).append(llt.llt_of_input(*pair, 4))
    apart = [polys for polys in by_screen.values() if len(set(polys)) > 1]
    assert [len(polys) for polys in apart] == [3, 3, 2]
    report = run_verify(4, 2, 3, sample=100, seed=7)
    assert report["converse_failures"] == 1
    assert report["converse_example"] == ["3/1,4/3,3/2,2/0", "4/3,4/3,3/1,2/0"]


@given(
    family=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2)),
    sample=st.one_of(st.none(), st.integers(1, 40)),
    seed=st.integers(0, 2**31 - 1),
    k=st.one_of(st.none(), st.integers(1, 3)),
    skewed=st.booleans(),
)
@example(family=(3, 2, 2), sample=None, seed=0, k=None, skewed=True)  # 50 fallbacks
@example(family=(4, 2, 3), sample=100, seed=7, k=None, skewed=False)  # equal screens apart
def test_run_verify_matches_a_memo_free_reference(family, sample, seed, k, skewed):
    """Equal reports, and the engine runs of _engine_runs. A skewed engine
    also multiplies a connected input's polynomial by a power of q that
    depends on the inversion masks' total popcount, which no relabelling
    of the input changes, so every input of a normal-form class keeps
    one polynomial. It differs inside connected buckets, so mismatches
    are compared too, and between the component multisets of a split
    bucket, so the whole-strip fallback runs; a disconnected input, run
    whole, keeps its true polynomial. Screens go through the same
    wrappers, so a skewed screen must agree with the skewed whole
    polynomial for the converse counts to match."""
    engine, runs = llt.llt_of_input, []

    def maybe_skewed(sizes, out, nvars, *lead):
        f = engine(sizes, out, nvars, *lead)
        if skewed and len(mask_components(sizes, out)) == 1:
            return f * QPoly.q_power(sum(m.bit_count() for m in out) % 3)
        return f

    def counted(sizes, out, nvars, *lead):
        runs.append((sizes, out, *lead))
        return maybe_skewed(sizes, out, nvars, *lead)

    with patch.object(llt, "llt_of_input", maybe_skewed):
        want = _verify_without_memos(*family, sample, seed, k)
    with patch.object(cli, "llt_of_input", counted):
        got = run_verify(*family, sample=sample, seed=seed, k=k)
    assert got == want
    assert Counter(runs) == _engine_runs(family, sample, seed, k, maybe_skewed)
