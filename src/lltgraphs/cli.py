"""Command-line front end: every computation behind one batch binary.

Reports are single-line JSON with a fixed key order (command, inputs,
result, version); the text format prints the same data as indented
key/value lines and adds a trailing elapsed_ms line.  Exit codes:
0 success, 1 a checked property failed, 2 parse error, 3 precondition
violation.
"""

import json
import sys
import time
from pathlib import Path
from random import Random

import click

from . import __version__
from . import compositions as comps
from .chromatic import chrom_quasisym, extended_chromatic, path_llt_h_expansion
from .errors import ParseError, PreconditionError
from .llt import llt_input, llt_of_input, llt_poly
from .qsymfunc import BasisExpansion, SymFunc, to_basis
from .strips import HorizontalStrip, Row, format_strip, parse_strip, strip_of_composition
from .structure import (
    find_minimal_ncp,
    is_nesting,
    similarity_witness,
    strict_pairs,
    strict_sequences,
)
from .wgraph import canonical_form, gamma_graph, is_isomorphic, pi_graph, WeightedGraph


def partition_key(parts) -> str:
    """Render an integer tuple as the compact key "(6,4,3)"."""
    return "(" + ",".join(str(p) for p in parts) + ")"


def expansion_payload(exp: BasisExpansion) -> dict:
    """Compact map partition -> coefficient string, decreasing partitions."""
    return {partition_key(lam): str(c) for lam, c in exp.items()}


def symfunc_payload(f: SymFunc) -> dict:
    return {
        "vars": f.k,
        "degree": f.degree,
        "monomials": {partition_key(e): str(c) for e, c in f.terms()},
    }


def sweep_family(
    max_rows: int, max_len: int, max_offset: int, sample=None, seed: int = 0
) -> list[HorizontalStrip]:
    """Translation-normalized strips with at most max_rows rows, row lengths
    1..max_len, and row starts 0..max_offset, in a fixed deterministic order:
    by row count, then the rows' (start, length) in itertools.product order.

    A sample smaller than the family keeps only the strips at the indices
    sorted(Random(seed).sample(range(size), sample)), each decoded from its
    index without listing the others; any larger sample takes the whole
    family."""
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    choices = [
        Row(lo, lo + length - 1)
        for lo in range(max_offset + 1)
        for length in range(1, max_len + 1)
    ]
    # the first max_len choices start at 0; a strip needs one of them
    width, free = len(choices), len(choices) - max_len
    counts = [width**n - free**n for n in range(1, max_rows + 1)]
    size = sum(counts)
    if sample is None or sample >= size:
        picked = range(size)
    else:
        picked = sorted(Random(seed).sample(range(size), sample))

    def strip_at(t: int) -> HorizontalStrip:
        for n, count in enumerate(counts, 1):
            if t < count:
                break
            t -= count
        combo, anchored = [], False
        for rest in range(n - 1, -1, -1):
            block = width**rest  # completions once a row starts at 0
            if anchored or t < max_len * block:
                c, t = divmod(t, block)
                anchored = anchored or c < max_len
            else:
                c, t = divmod(t - max_len * block, block - free**rest)
                c += max_len
            combo.append(choices[c])
        return HorizontalStrip(tuple(combo))

    return [strip_at(t) for t in picked]


def run_verify(
    max_rows: int,
    max_len: int,
    max_offset: int,
    sample=None,
    seed: int = 0,
    k=None,
) -> dict:
    """Bucket a strip family by graph isomorphism and compare polynomials
    inside each bucket; also count bucket pairs with equal polynomial but
    non-isomorphic graphs (failures of the converse direction). A sample
    of at least the family size takes the whole family.

    Strips with one labelled graph share one canonical form. The engine
    llt_of_input is a pure function of llt_input's pair, so strips of a
    bucket with equal pairs share one run; that memo keeps only whether
    the run agreed with the bucket, and only while the bucket is checked."""
    strips = sweep_family(max_rows, max_len, max_offset, sample, seed)
    nvars = k if k is not None else max_rows
    forms: dict[WeightedGraph, tuple] = {}  # freed once the strips are bucketed
    buckets: dict[tuple, list[HorizontalStrip]] = {}
    for strip in strips:
        graph = pi_graph(strip)
        form = forms.get(graph)
        if form is None:
            form = forms[graph] = canonical_form(graph)
        buckets.setdefault(form, []).append(strip)
    del forms
    mismatches = []
    bucket_poly = {}
    bucket_rep = {}
    for key, members in buckets.items():
        first = llt_input(members[0])
        base = bucket_poly[key] = llt_of_input(*first, nvars)
        bucket_rep[key] = members[0]
        agrees = {first: True}  # engine input -> its polynomial equals base
        for other in members[1:]:
            engine_input = llt_input(other)
            same = agrees.get(engine_input)
            if same is None:
                same = agrees[engine_input] = llt_of_input(*engine_input, nvars) == base
            if not same:
                mismatches.append([format_strip(members[0]), format_strip(other)])
    by_poly: dict[SymFunc, list[tuple]] = {}
    for key, poly in bucket_poly.items():
        by_poly.setdefault(poly, []).append(key)
    converse = 0
    example = None
    for keys in by_poly.values():
        if len(keys) > 1:
            converse += len(keys) * (len(keys) - 1) // 2
            if example is None:
                example = [
                    format_strip(bucket_rep[keys[0]]),
                    format_strip(bucket_rep[keys[1]]),
                ]
    return {
        "strips": len(strips),
        "buckets": len(buckets),
        "mismatches": mismatches,
        "converse_failures": converse,
        "converse_example": example,
    }


def _load_graph(text: str) -> WeightedGraph:
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            raw = Path(text).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read graph file {text!r}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    return WeightedGraph.from_json_dict(payload)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _text_lines(value, prefix=""):
    if isinstance(value, dict):
        for key, inner in value.items():
            if _is_scalar_list(inner):
                yield f"{prefix}{key}: {' '.join(str(x) for x in inner)}"
            elif isinstance(inner, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _text_lines(inner, prefix + "  ")
            else:
                yield f"{prefix}{key}: {inner}"
    elif isinstance(value, list):
        for inner in value:
            if _is_scalar_list(inner):
                yield f"{prefix}- {' '.join(str(x) for x in inner)}"
            elif isinstance(inner, (dict, list)):
                yield from _text_lines(inner, prefix + "  ")
            else:
                yield f"{prefix}- {inner}"
    else:
        yield f"{prefix}{value}"


def _emit_error(exc: Exception, code: int) -> None:
    payload = {
        "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    }
    click.echo(json.dumps(payload, separators=(",", ":")), err=True)
    sys.exit(code)


def _finish(command: str, inputs: dict, fmt: str, build) -> None:
    started = time.perf_counter()
    try:
        result, violation = build()
    except ParseError as exc:
        _emit_error(exc, 2)
    except PreconditionError as exc:
        _emit_error(exc, 3)
    except ValueError as exc:
        _emit_error(exc, 2)
    elapsed_ms = round((time.perf_counter() - started) * 1000)
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "version": __version__,
    }
    if fmt == "json":
        click.echo(json.dumps(report, separators=(",", ":"), ensure_ascii=False))
    else:
        for line in _text_lines(result):
            click.echo(line)
        click.echo(f"elapsed_ms: {elapsed_ms}")
    if violation:
        sys.exit(1)


FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
    help="output format",
)


@click.group()
@click.version_option(version=__version__, prog_name="lltgraphs")
def main():
    """Exact horizontal-strip polynomials, their weighted graphs, and checks."""


@main.command("llt")
@click.option("--strip", "strip_text", required=True, help="rows as a/b, bottom row first")
@click.option("--vars", "k", type=int, default=None, help="variable count (default: row count)")
@click.option("--basis", type=click.Choice(["m", "s", "h", "e", "p"]), default=None)
@FORMAT
def cmd_llt(strip_text, k, basis, fmt):
    """Polynomial of a strip, as raw monomials or against a basis."""

    def build():
        strip = parse_strip(strip_text)
        f = llt_poly(strip, k)
        if basis is None:
            return symfunc_payload(f), False
        return expansion_payload(to_basis(f, basis)), False

    _finish("llt", {"strip": strip_text, "vars": k, "basis": basis}, fmt, build)


@main.command("pi")
@click.option("--strip", "strip_text", required=True, help="rows as a/b, bottom row first")
@FORMAT
def cmd_pi(strip_text, fmt):
    """Weighted graph of a strip: row sizes and shifted-overlap edge weights."""

    def build():
        return pi_graph(parse_strip(strip_text)).to_json_dict(), False

    _finish("pi", {"strip": strip_text}, fmt, build)


@main.command("iso")
@click.option("--a", "a_text", required=True, help="graph JSON, file path or inline")
@click.option("--b", "b_text", required=True, help="graph JSON, file path or inline")
@FORMAT
def cmd_iso(a_text, b_text, fmt):
    """Weight-respecting isomorphism between two graphs, if one exists."""

    def build():
        perm = is_isomorphic(_load_graph(a_text), _load_graph(b_text))
        return {
            "isomorphic": perm is not None,
            "permutation": list(perm) if perm is not None else None,
        }, False

    _finish("iso", {"a": a_text, "b": b_text}, fmt, build)


@main.command("chromatic")
@click.option("--graph", "graph_text", default=None, help="weighted graph JSON, file or inline")
@click.option("--strip", "strip_text", default=None, help="strip of single-cell rows")
@click.option("--vars", "k", type=int, default=None, help="colour count (default: vertex count)")
@FORMAT
def cmd_chromatic(graph_text, strip_text, k, fmt):
    """Extended chromatic function of a weighted graph, or the ascent-weighted
    chromatic function of a strip's cell graph."""

    def build():
        if (graph_text is None) == (strip_text is None):
            raise ParseError("give exactly one of --graph or --strip")
        if graph_text is not None:
            graph = _load_graph(graph_text)
            f = extended_chromatic(graph, graph.n if k is None else k)
            return symfunc_payload(f), False
        cells = gamma_graph(parse_strip(strip_text))
        return symfunc_payload(chrom_quasisym(cells, cells.n if k is None else k)), False

    _finish(
        "chromatic",
        {"graph": graph_text, "strip": strip_text, "vars": k},
        fmt,
        build,
    )


@main.command("path-llt")
@click.option("--alpha", required=True, help="composition, comma-separated")
@click.option("--printed-sign", is_flag=True, default=False,
              help="use the (q-1)-power variant instead of the alternating one")
@click.option("--check-oracle", is_flag=True, default=False,
              help="re-expand and compare against direct tableau enumeration")
@FORMAT
def cmd_path_llt(alpha, printed_sign, check_oracle, fmt):
    """Complete homogeneous expansion of a weighted path's polynomial."""

    def build():
        comp = comps.parse_composition(alpha)
        exp = path_llt_h_expansion(comp, printed_sign=printed_sign)
        result = {"h_expansion": expansion_payload(exp)}
        violation = False
        if check_oracle:
            n = sum(comp)
            matched = exp.evaluate(n) == llt_poly(strip_of_composition(comp), n)
            result["oracle_match"] = matched
            violation = not matched
        return result, violation

    _finish(
        "path-llt",
        {"alpha": alpha, "printed_sign": printed_sign, "check_oracle": check_oracle},
        fmt,
        build,
    )


@main.command("compose")
@click.option("--alpha", required=True, help="outer composition, comma-separated")
@click.option("--beta", required=True, help="inner composition, comma-separated")
@FORMAT
def cmd_compose(alpha, beta, fmt):
    """Substitute the second composition into the first."""

    def build():
        result = comps.compose(
            comps.parse_composition(alpha), comps.parse_composition(beta)
        )
        return comps.format_composition(result), False

    _finish("compose", {"alpha": alpha, "beta": beta}, fmt, build)


@main.command("analyze")
@click.option("--strip", "strip_text", required=True, help="rows as a/b, bottom row first")
@click.option("--report", default="strict,nesting,ncp", show_default=True,
              help="comma-separated subset of strict,nesting,ncp,witness")
@click.option("--other", "other_text", default=None,
              help="second strip, needed by the witness report")
@click.option("--budget", type=int, default=100000, show_default=True,
              help="state budget for the witness search")
@FORMAT
def cmd_analyze(strip_text, report, other_text, budget, fmt):
    """Structural reports: strict pairs and sequences, nesting, minimal
    noncommuting paths, and an optional move-sequence witness."""

    def build():
        strip = parse_strip(strip_text)
        wanted = [w.strip() for w in report.split(",") if w.strip()]
        known = {"strict", "nesting", "ncp", "witness"}
        for w in wanted:
            if w not in known:
                raise ParseError(f"unknown report {w!r}")
        result = {}
        for w in wanted:
            if w == "strict":
                result["strict"] = {
                    "pairs": [list(p) for p in strict_pairs(strip)],
                    "sequences": [
                        {"indices": list(idx), "witness": h}
                        for idx, h in strict_sequences(strip)
                    ],
                }
            elif w == "nesting":
                result["nesting"] = is_nesting(strip)
            elif w == "ncp":
                paths = []
                for i in range(1, strip.n + 1):
                    for j in range(i + 1, strip.n + 1):
                        found = find_minimal_ncp(strip, i, j)
                        if found is not None:
                            paths.append(
                                {"endpoints": [i, j], "indices": list(found.indices)}
                            )
                result["ncp"] = paths
            else:
                if other_text is None:
                    raise ParseError("the witness report needs --other")
                moves = similarity_witness(strip, parse_strip(other_text), budget)
                result["witness"] = {
                    "found": moves is not None,
                    "moves": [list(m) for m in moves] if moves is not None else None,
                }
        return result, False

    _finish(
        "analyze",
        {"strip": strip_text, "report": report, "other": other_text, "budget": budget},
        fmt,
        build,
    )


@main.command("verify")
@click.option("--max-rows", type=int, default=3, show_default=True)
@click.option("--max-len", type=int, default=3, show_default=True)
@click.option("--max-offset", type=int, default=4, show_default=True)
@click.option("--sample", type=int, default=None,
              help="check only this many strips, chosen by --seed")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--vars", "k", type=int, default=None,
              help="variable count (default: max rows)")
@FORMAT
def cmd_verify(max_rows, max_len, max_offset, sample, seed, k, fmt):
    """Sweep a strip family: bucket by graph isomorphism and demand equal
    polynomials inside every bucket.  Exits 1 on any mismatch."""

    def build():
        if max_rows < 1 or max_len < 1 or max_offset < 0:
            raise ParseError("family bounds must be positive (offset may be 0)")
        if sample is not None and sample < 1:
            raise ParseError("--sample must be at least 1")
        result = run_verify(max_rows, max_len, max_offset, sample=sample, seed=seed, k=k)
        return result, bool(result["mismatches"])

    _finish(
        "verify",
        {
            "max_rows": max_rows,
            "max_len": max_len,
            "max_offset": max_offset,
            "sample": sample,
            "seed": seed,
            "vars": k,
        },
        fmt,
        build,
    )
