"""Command-line front end: every computation behind one batch binary.

Reports are single-line JSON with a fixed key order (command, inputs,
result, version); the text format prints the same data as indented
key/value lines and adds a trailing elapsed_ms line.  Exit codes:
0 success, 1 a checked property failed, 2 parse error, 3 precondition
violation.
"""

import functools
import json
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path
from random import Random

import click

from . import __version__
from . import compositions as comps
from .chromatic import chrom_quasisym, extended_chromatic, path_llt_h_expansion
from .errors import ParseError, PreconditionError, PreconditionViolated
from .llt import llt_input, llt_of_input, llt_poly, normal_form, row_components
from .qsymfunc import BasisExpansion, SymFunc, _check_int, to_basis
from .strips import HorizontalStrip, Row, parse_strip, strip_of_composition
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
    """The monomial listing; one of more than sys.maxsize exponents in
    all is refused before any is padded to the variable count."""
    if len(f) * f.k > sys.maxsize:
        raise PreconditionViolated(f"cannot list {len(f)} monomials in {f.k} variables, "
                                   f"more than {sys.maxsize} exponents")
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
    family. A family of more than sys.maxsize strips cannot be sampled,
    which raises PreconditionViolated."""
    for bound in (max_rows, max_len, max_offset):
        _check_int(bound, "family bound")
    if sample is not None and _check_int(sample, "sample") < 1:
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
    elif size > sys.maxsize:
        raise PreconditionViolated(f"cannot sample a family of {size} strips, "
                                   f"more than {sys.maxsize}")
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

    Strips with one labelled graph share one canonical form and one split
    of their rows into row_components. The engine llt_of_input is a pure
    function of llt_input's pair, and inputs with one normal_form share
    their polynomial. One memo, kept for the call, maps each pair asked
    for, a whole strip or a component, and each normal form run, to the
    id of its polynomial; a normal form is an input of its own class, so
    the engine runs once per class, on its normal form. A strip is keyed
    by the inputs of its components; a connected strip is its own one
    component. A member agrees with its bucket's first strip when their
    component polynomials are equal as multisets, or else their whole
    polynomials are.

    The converse count groups the first strips by whole polynomial, but
    runs a first whole only when its screen equals another first's. The
    screen of a first is its own pair run in min(k, 2) variables: its
    k-variable polynomial with x_3 = ... = x_k = 0. Polynomials with
    different screens differ, so a first whose screen no other first
    shares is in no converse pair; equal screens prove nothing, and those
    firsts are grouped by their whole polynomials, in bucket order. At
    k = 1 the screen is the whole polynomial, x_1^n for every first of n
    cells, which two variables would tell apart."""
    strips = sweep_family(max_rows, max_len, max_offset, sample, seed)
    nvars = k if k is not None else max_rows
    forms: dict[WeightedGraph, tuple] = {}  # freed once the strips are bucketed
    buckets: dict[tuple, list[tuple]] = {}  # canonical form -> [(strip, its split)]
    splits: dict[tuple, tuple] = {}  # one copy of each split, which outlives forms
    for strip in strips:
        graph = pi_graph(strip)
        known = forms.get(graph)
        if known is None:
            groups = row_components(graph.matrix)
            known = forms[graph] = canonical_form(graph), splits.setdefault(groups, groups)
        buckets.setdefault(known[0], []).append((strip, known[1]))
    del forms
    ids: dict[tuple, int] = {}  # engine input or normal form -> id of its polynomial
    poly_ids: dict[SymFunc, int] = {}

    def poly_id(pair) -> int:
        if pair not in ids:
            form = normal_form(*pair)
            if form not in ids:
                ids[form] = poly_ids.setdefault(llt_of_input(*form, nvars), len(poly_ids))
            ids[pair] = ids[form]
        return ids[pair]

    def key(strip, groups) -> tuple:
        if len(groups) == 1:
            return (llt_input(strip),)
        return tuple(llt_input(HorizontalStrip(tuple(strip.rows[i] for i in g)))
                     for g in groups)

    def whole(strip, key) -> tuple:
        return key[0] if len(key) == 1 else llt_input(strip)

    mismatches = []
    screened = []  # (first strip, its whole input, its screen)
    for (first, groups), *others in buckets.values():
        first_key = key(first, groups)
        for other, groups in others:
            other_key = key(other, groups)
            if not (sorted(map(poly_id, other_key)) == sorted(map(poly_id, first_key))
                    or poly_id(whole(other, other_key)) == poly_id(whole(first, first_key))):
                mismatches.append([first.literal, other.literal])
        pair = whole(first, first_key)
        screened.append((first, pair, llt_of_input(*pair, min(nvars, 2))))
    shared = Counter(screen for _, _, screen in screened)
    by_poly: dict[int, list[HorizontalStrip]] = {}  # whole polynomial id -> first strips
    for first, pair, screen in screened:
        if shared[screen] > 1:
            by_poly.setdefault(poly_id(pair), []).append(first)
    equal = [same for same in by_poly.values() if len(same) > 1]
    return {
        "strips": len(strips),
        "buckets": len(buckets),
        "mismatches": mismatches,
        "converse_failures": sum(len(same) * (len(same) - 1) // 2 for same in equal),
        "converse_example": [equal[0][0].literal, equal[0][1].literal] if equal else None,
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
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter when nested too deep
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
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    click.echo(json.dumps({"error": error}, separators=(",", ":")), err=True)
    sys.exit(code)


def _var_count(vars, default: int) -> int:
    """vars, or default when it is None. A report lists each monomial as
    one exponent per variable, so a count past sys.maxsize is refused."""
    if vars is None:
        return default
    if vars > sys.maxsize:
        raise PreconditionViolated(f"cannot use {vars} variables, more than {sys.maxsize}")
    return vars


def _reported(body):
    """Make a body that takes its options by name and returns (result,
    violation) into a subcommand with --format: time the body, map its
    errors, running out of memory among them, to exit codes 2 and 3,
    write the report and exit 1 on a
    violation. The report's inputs are the other options under their
    parameter names, in declaration order whatever the command line's."""

    @functools.wraps(body)
    def command(fmt, **options):
        ctx = click.get_current_context()
        started = time.perf_counter()
        try:
            result, violation = body(**options)
        except PreconditionError as exc:
            _emit_error(exc, 3)
        except MemoryError as exc:
            # work too big for the process's memory; a MemoryError often has no message
            _emit_error(MemoryError(str(exc) or "the run needs more memory than it can get"), 3)
        except ValueError as exc:  # a ParseError among them
            _emit_error(exc, 2)
        elapsed_ms = round((time.perf_counter() - started) * 1000)
        report = {
            "command": ctx.command.name,
            "inputs": {p.name: options[p.name] for p in ctx.command.params if p.name != "fmt"},
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

    fmt = click.Option(["--format", "fmt"], type=click.Choice(["json", "text"]),
                       default="json", show_default=True, help="output format")
    # click keeps options last-declared first, so --format is listed last
    command.__click_params__ = [fmt, *body.__click_params__]
    return command


@click.group(context_settings={"terminal_width": 80})
@click.version_option(version=__version__, prog_name="lltgraphs")
def main():
    """Exact horizontal-strip polynomials, their weighted graphs, and checks."""


@main.command("llt")
@_reported
@click.option("--strip", required=True, help="rows as a/b, bottom row first")
@click.option("--vars", type=int, default=None, help="variable count (default: row count)")
@click.option("--basis", type=click.Choice(["m", "s", "h", "e", "p"]), default=None)
def cmd_llt(strip, vars, basis):
    """Polynomial of a strip, as raw monomials or against a basis."""
    parsed = parse_strip(strip)
    f = llt_poly(parsed, _var_count(vars, parsed.n))
    if basis is None:
        return symfunc_payload(f), False
    return expansion_payload(to_basis(f, basis)), False


@main.command("pi")
@_reported
@click.option("--strip", required=True, help="rows as a/b, bottom row first")
def cmd_pi(strip):
    """Weighted graph of a strip: row sizes and shifted-overlap edge weights."""
    return pi_graph(parse_strip(strip)).to_json_dict(), False


@main.command("iso")
@_reported
@click.option("--a", required=True, help="graph JSON, file path or inline")
@click.option("--b", required=True, help="graph JSON, file path or inline")
def cmd_iso(a, b):
    """Weight-respecting isomorphism between two graphs, if one exists."""
    perm = is_isomorphic(_load_graph(a), _load_graph(b))
    listed = None if perm is None else list(perm)
    return {"isomorphic": perm is not None, "permutation": listed}, False


@main.command("chromatic")
@_reported
@click.option("--graph", default=None, help="weighted graph JSON, file or inline")
@click.option("--strip", default=None, help="strip of single-cell rows")
@click.option("--vars", type=int, default=None, help="colour count (default: vertex count)")
def cmd_chromatic(graph, strip, vars):
    """Extended chromatic function of a weighted graph, or the ascent-weighted
    chromatic function of a strip's cell graph."""
    if (graph is None) == (strip is None):
        raise ParseError("give exactly one of --graph or --strip")
    if graph is not None:
        weighted = _load_graph(graph)
        f = extended_chromatic(weighted, _var_count(vars, weighted.n))
        return symfunc_payload(f), False
    cells = gamma_graph(parse_strip(strip))
    return symfunc_payload(chrom_quasisym(cells, _var_count(vars, cells.n))), False


@main.command("path-llt")
@_reported
@click.option("--alpha", required=True, help="composition, comma-separated")
@click.option("--printed-sign", is_flag=True, default=False,
              help="use the (q-1)-power variant instead of the alternating one")
@click.option("--check-oracle", is_flag=True, default=False,
              help="re-expand and compare against the LLT polynomial engine")
def cmd_path_llt(alpha, printed_sign, check_oracle):
    """Complete homogeneous expansion of a weighted path's polynomial."""
    comp = comps.parse_composition(alpha)
    exp = path_llt_h_expansion(comp, printed_sign=printed_sign)
    result = {"h_expansion": expansion_payload(exp)}
    if not check_oracle:
        return result, False
    n = sum(comp)
    result["oracle_match"] = exp.evaluate(n) == llt_poly(strip_of_composition(comp), n)
    return result, not result["oracle_match"]


@main.command("compose")
@_reported
@click.option("--alpha", required=True, help="outer composition, comma-separated")
@click.option("--beta", required=True, help="inner composition, comma-separated")
def cmd_compose(alpha, beta):
    """Substitute the second composition into the first."""
    result = comps.compose(comps.parse_composition(alpha), comps.parse_composition(beta))
    return comps.format_composition(result), False


@main.command("analyze")
@_reported
@click.option("--strip", required=True, help="rows as a/b, bottom row first")
@click.option("--report", default="strict,nesting,ncp", show_default=True,
              help="comma-separated subset of strict,nesting,ncp,witness")
@click.option("--other", default=None, help="second strip, needed by the witness report")
@click.option("--budget", type=int, default=100000, show_default=True,
              help="state budget for the witness search")
def cmd_analyze(strip, report, other, budget):
    """Structural reports: strict pairs and sequences, nesting, minimal
    noncommuting paths, and an optional move-sequence witness."""
    parsed = parse_strip(strip)
    wanted = [w.strip() for w in report.split(",") if w.strip()]
    for w in wanted:
        if w not in ("strict", "nesting", "ncp", "witness"):
            raise ParseError(f"unknown report {w!r}")
    result = {}
    for w in wanted:
        if w == "strict":
            result["strict"] = {
                "pairs": [list(p) for p in strict_pairs(parsed)],
                "sequences": [
                    {"indices": list(idx), "witness": h}
                    for idx, h in strict_sequences(parsed)
                ],
            }
        elif w == "nesting":
            result["nesting"] = is_nesting(parsed)
        elif w == "ncp":
            pairs = combinations(range(1, parsed.n + 1), 2)
            found = [(ends, find_minimal_ncp(parsed, *ends)) for ends in pairs]
            result["ncp"] = [{"endpoints": list(ends), "indices": list(path)}
                             for ends, path in found if path is not None]
        else:
            if other is None:
                raise ParseError("the witness report needs --other")
            moves = similarity_witness(parsed, parse_strip(other), budget)
            listed = None if moves is None else [list(m) for m in moves]
            result["witness"] = {"found": moves is not None, "moves": listed}
    return result, False


@main.command("verify")
@_reported
@click.option("--max-rows", type=int, default=3, show_default=True)
@click.option("--max-len", type=int, default=3, show_default=True)
@click.option("--max-offset", type=int, default=4, show_default=True)
@click.option("--sample", type=int, default=None,
              help="check only this many strips, chosen by --seed")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--vars", type=int, default=None, help="variable count (default: max rows)")
def cmd_verify(max_rows, max_len, max_offset, sample, seed, vars):
    """Sweep a strip family: bucket by graph isomorphism and demand equal
    polynomials inside every bucket.  Exits 1 on any mismatch."""
    if max_rows < 1 or max_len < 1 or max_offset < 0:
        raise ParseError("family bounds must be positive (offset may be 0)")
    if sample is not None and sample < 1:
        raise ParseError("--sample must be at least 1")
    if vars is not None and vars < 1:
        raise ValueError("need at least one variable")
    result = run_verify(max_rows, max_len, max_offset, sample=sample, seed=seed,
                        k=_var_count(vars, max_rows))
    return result, bool(result["mismatches"])
