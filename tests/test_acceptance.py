"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints "criterion NN PASS/FAIL <name>: <detail>"; the same lines
are echoed in the terminal summary via the conftest hook.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lltgraphs import (
    QPoly,
    WeightedGraph,
    canonical_form,
    chrom_quasisym,
    commutes,
    coarsening_multiset,
    coarsenings,
    dc_triple,
    extended_chromatic,
    gamma_graph,
    is_isomorphic,
    is_nesting,
    llt_poly,
    m_ij,
    parse_strip,
    path_llt_h_expansion,
    pi_graph,
    prec,
    predict_dc_graphs,
    realize,
    strict_pairs,
    strict_sequences,
    strip_of_composition,
    to_basis,
    verify_plethysm_bridge,
)
from lltgraphs.qsymfunc import BasisExpansion, partitions_of
from lltgraphs.strips import HorizontalStrip, Row
from lltgraphs.structure import local_rotate
from lltgraphs.errors import BlockNotSeparable, HypothesisViolated, PreconditionViolated
from lltgraphs.cli import run_verify

from formulas import is_minimal_ncp, path_graph, two_row_schur
from oracle import kostka, raw_strict_sequences

DATA = Path(__file__).parent / "data"

RUNNING_STRIP = "4/0,5/4,8/5,6/1"
RUNNING_PARTNER = "5/4,9/5,7/2,3/0"
FIVE_CELL_A = "2/1,1/0,1/0,2/1,2/1"
FIVE_CELL_B = "1/0,2/1,2/1,1/0,2/1"


def conclude(log, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict} {name}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def path_polys():
    """llt of the staircase strip of alpha, in |alpha| variables, |alpha| <= 6."""
    cache = {}
    for n in range(1, 7):
        for alpha in coarsenings((1,) * n):
            cache[alpha] = llt_poly(strip_of_composition(alpha), n)
    return cache


def q_one_value(c: QPoly) -> Fraction:
    return Fraction(c.evaluate(1))


def test_criterion_01_schur_expansion_of_running_example(criterion_log):
    start = time.monotonic()
    exp = to_basis(llt_poly(parse_strip(RUNNING_STRIP), 4), "s")
    elapsed = time.monotonic() - start
    stored = json.loads((DATA / "schur_display.json").read_text())
    golden = BasisExpansion(stored["basis"], stored["degree"], {
        tuple(c["partition"]): QPoly(map(tuple, c["q"])) for c in stored["coeffs"]})
    problems = []
    if exp != golden:
        problems.append("expansion differs from golden file")
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    # independent route: at q=1 each coefficient collapses to a Kostka number
    mu = (5, 4, 3, 1)
    for lam, c in exp.items():
        if q_one_value(c) != kostka(lam, mu):
            problems.append(f"q=1 coefficient of {lam} is not Kostka")
    for lam in partitions_of(13, max_len=4):
        if kostka(lam, mu) > 0 and exp.coeff(lam).is_zero:
            problems.append(f"missing partition {lam}")
    conclude(
        criterion_log,
        1,
        "schur expansion of the 13-cell example",
        not problems,
        problems[0] if problems else f"{len(exp.items())} terms in {elapsed:.1f}s, q=1 matches Kostka",
    )


def test_criterion_02_isomorphism_implies_equal_llt(criterion_log):
    main = run_verify(3, 3, 4)
    uni = run_verify(4, 1, 3)
    ok = main["mismatches"] == [] and uni["mismatches"] == []
    conclude(
        criterion_log,
        2,
        "sweep: isomorphic graphs share the polynomial",
        ok,
        f"{main['strips']}+{uni['strips']} strips, "
        f"{main['buckets']}+{uni['buckets']} buckets, "
        f"{len(main['mismatches']) + len(uni['mismatches'])} mismatches",
    )


def test_criterion_03_four_row_pair(criterion_log):
    lam = parse_strip(RUNNING_STRIP)
    mu = parse_strip(RUNNING_PARTNER)
    perm = is_isomorphic(pi_graph(lam), pi_graph(mu))
    ok = perm == (2, 1, 4, 3) and llt_poly(lam, 4) == llt_poly(mu, 4)
    conclude(
        criterion_log,
        3,
        "the documented 4-row pair",
        ok,
        f"permutation {perm}, polynomials equal at k=4",
    )


def test_criterion_04_converse_fails(criterion_log):
    lam = parse_strip(FIVE_CELL_A)
    mu = parse_strip(FIVE_CELL_B)
    problems = []
    if llt_poly(lam, 5) != llt_poly(mu, 5):
        problems.append("polynomials differ")
    if chrom_quasisym(gamma_graph(lam), 5) != chrom_quasisym(gamma_graph(mu), 5):
        problems.append("colouring generating functions differ")
    form_a = canonical_form(gamma_graph(lam))
    form_b = canonical_form(gamma_graph(mu))
    if form_a == form_b:
        problems.append("graphs are isomorphic after all")
    sweep = run_verify(5, 1, 1)
    if sweep["converse_failures"] < 1:
        problems.append("five-cell sweep saw no converse failure")
    conclude(
        criterion_log,
        4,
        "equal polynomial despite non-isomorphic graphs",
        not problems,
        problems[0] if problems else
        f"five-cell pair equal at k=5, sweep found {sweep['converse_failures']} such pairs",
    )


def test_criterion_05_deletion_contraction(criterion_log, sweep_main, sweep_uni):
    q = QPoly.q_power(1)
    qm1 = q - QPoly.one()
    identities = graph_matches = 0
    problems = []
    for strip in itertools.chain(sweep_main, sweep_uni):
        for i in range(1, strip.n):
            ri, rj = strip.row(i), strip.row(i + 1)
            if commutes(ri, rj) or rj.lo <= ri.lo:
                continue
            swapped, merged = dc_triple(strip, i)
            lhs = llt_poly(strip, 3) * q
            rhs = llt_poly(swapped, 3) + llt_poly(merged, 3) * qm1
            if lhs != rhs:
                problems.append(f"identity fails at ({strip}, {i})")
                continue
            identities += 1
            p1, p2 = predict_dc_graphs(pi_graph(strip), i, i + 1)
            if canonical_form(p1) != canonical_form(pi_graph(swapped)):
                problems.append(f"swap graph prediction wrong at ({strip}, {i})")
            elif canonical_form(p2) != canonical_form(pi_graph(merged)):
                problems.append(f"merge graph prediction wrong at ({strip}, {i})")
            else:
                graph_matches += 1
    conclude(
        criterion_log,
        5,
        "deletion-contraction over the sweep",
        not problems,
        problems[0] if problems else
        f"{identities} identities, {graph_matches} graph predictions",
    )


def test_criterion_06_two_row_formula(criterion_log):
    checked = 0
    problems = []
    for a in range(1, 7):
        for b in range(1, a + 1):
            if a + b > 7:
                continue
            for m in range(0, b + 1):
                graph = WeightedGraph.from_edges((a, b), [(1, 2, m)] if m else [])
                strip = realize(graph)
                if strip is None:
                    problems.append(f"no realization for ({a},{b},{m})")
                    continue
                if to_basis(llt_poly(strip, 2), "s") != two_row_schur(a, b, m):
                    problems.append(f"formula wrong at ({a},{b},{m})")
                    continue
                checked += 1
    conclude(
        criterion_log,
        6,
        "closed form for two-row strips",
        not problems,
        problems[0] if problems else f"{checked} (a,b,m) triples",
    )


def test_criterion_07_path_classification(criterion_log, path_polys):
    problems = []
    pairs = 0
    for n in range(1, 7):
        comps = coarsenings((1,) * n)
        for a, b in itertools.combinations(comps, 2):
            pairs += 1
            if (path_polys[a] == path_polys[b]) != (
                    coarsening_multiset(a) == coarsening_multiset(b)):
                problems.append(f"llt side wrong on {a} vs {b}")
    xpairs = 0
    for n in range(1, 8):
        comps = coarsenings((1,) * n)
        xs = [extended_chromatic(path_graph(alpha), n) for alpha in comps]
        for (a, xa), (b, xb) in itertools.combinations(zip(comps, xs), 2):
            xpairs += 1
            if (xa == xb) != (coarsening_multiset(a) == coarsening_multiset(b)):
                problems.append(f"chromatic side wrong on {a} vs {b}")
    conclude(
        criterion_log,
        7,
        "path strips classified by coarsening multiset",
        not problems,
        problems[0] if problems else f"{pairs} llt pairs, {xpairs} chromatic pairs",
    )


def test_criterion_08_sign_corrected_h_expansion(criterion_log, path_polys):
    problems = []
    checked = 0
    for alpha, poly in path_polys.items():
        n = sum(alpha)
        if path_llt_h_expansion(alpha).evaluate(n) != poly:
            problems.append(f"h-expansion wrong at {alpha}")
        else:
            checked += 1
    wrong_sign = path_llt_h_expansion((1, 1), printed_sign=True)
    if wrong_sign.evaluate(2) == path_polys[(1, 1)]:
        problems.append("uncorrected sign variant unexpectedly matches")
    conclude(
        criterion_log,
        8,
        "h-expansion of path strips, corrected sign",
        not problems,
        problems[0] if problems else
        f"{checked} compositions, uncorrected variant fails at (1,1) as documented",
    )


def test_criterion_09_plethysm_bridge(criterion_log, sweep_uni):
    failures = [str(s) for s in sweep_uni if not verify_plethysm_bridge(s)]
    conclude(
        criterion_log,
        9,
        "colouring-to-llt bridge on single-cell rows",
        not failures,
        failures[0] if failures else f"{len(sweep_uni)} strips",
    )


def test_criterion_10_structural_invariants(criterion_log, sweep_main, sweep_uni,
                                            sweep_main_polys, sweep_main_forms):
    problems = []
    counts = {"strict": 0, "sequences": 0, "prec": 0, "chains": 0, "rotations": 0}
    strips = list(itertools.chain(sweep_main, sweep_uni))
    for idx, strip in enumerate(strips):
        rows = [(r.lo, r.hi) for r in strip.rows]
        for i, j in strict_pairs(strip):
            counts["strict"] += 1
            if commutes(strip.row(i), strip.row(j)):
                problems.append(f"strict pair commutes in {strip}")
        if strict_sequences(strip) != raw_strict_sequences(rows):
            problems.append(f"sequence characterization differs on {strip}")
        counts["sequences"] += 1
        if is_nesting(strip):
            n = strip.n
            for i, j, l in itertools.combinations(range(1, n + 1), 3):
                if prec(strip, i, j) and prec(strip, j, l) and not prec(strip, i, l):
                    problems.append(f"prec not transitive on {strip}")
                counts["prec"] += 1
            for i, j in itertools.combinations(range(1, n + 1), 2):
                if not commutes(strip.row(i), strip.row(j)):
                    continue
                if m_ij(strip, i, j) != 0 or strip.row(i).lo >= strip.row(j).lo:
                    continue
                for size in range(1, j - i):
                    for mid in itertools.combinations(range(i + 1, j), size):
                        chain = (i,) + mid + (j,)
                        if not is_minimal_ncp(strip, chain):
                            continue
                        counts["chains"] += 1
                        steps = [strip.row(t) for t in chain]
                        if any(b.lo != a.hi + 1 for a, b in zip(steps, steps[1:])):
                            problems.append(f"gapped minimal path {chain} in {strip}")
        in_main = idx < len(sweep_main)
        k = 3 if in_main else strip.n
        poly = sweep_main_polys[idx] if in_main else llt_poly(strip, k)
        form = sweep_main_forms[idx] if in_main else canonical_form(pi_graph(strip))
        for i in range(2, strip.n + 1):
            try:
                rotated = local_rotate(strip, i)
            except (PreconditionViolated, HypothesisViolated, BlockNotSeparable):
                continue
            counts["rotations"] += 1
            if canonical_form(pi_graph(rotated)) != form:
                problems.append(f"rotation changed the graph: ({strip}, {i})")
            elif llt_poly(rotated, k) != poly:
                problems.append(f"rotation changed the polynomial: ({strip}, {i})")
    conclude(
        criterion_log,
        10,
        "structural invariants over the sweep",
        not problems,
        problems[0] if problems else
        "{strict} strict pairs, {sequences} strips, {prec} prec triples, "
        "{chains} minimal paths, {rotations} rotations".format(**counts),
    )


def test_criterion_11_maximal_overlap_degeneration(criterion_log, sweep_main,
                                                   sweep_main_polys, sweep_uni):
    checked = 0
    problems = []
    for strip, poly, k in itertools.chain(
        ((s, p, 3) for s, p in zip(sweep_main, sweep_main_polys)),
        ((s, None, 4) for s in sweep_uni),
    ):
        sizes = sorted(strip.sizes, reverse=True)
        n_lambda = sum(i * size for i, size in enumerate(sizes))
        if sum(w for _, _, w in pi_graph(strip).edge_list()) != n_lambda:
            continue
        left_justified = HorizontalStrip(tuple(Row(0, p - 1) for p in sizes))
        lhs = poly if poly is not None else llt_poly(strip, k)
        if lhs != llt_poly(left_justified, k):
            problems.append(f"degeneration fails on {strip}")
        else:
            checked += 1
    conclude(
        criterion_log,
        11,
        "maximal-overlap strips reduce to sorted row lengths",
        not problems,
        problems[0] if problems else f"{checked} strips at the weight bound",
    )


def test_criterion_12_variable_count_stability(criterion_log, sweep_main):
    sample = sweep_main[::87][:20]
    problems = []
    for strip in sample:
        n = strip.n
        low = to_basis(llt_poly(strip, n), "s")
        high = to_basis(llt_poly(strip, n + 1), "s")
        if low != high:
            problems.append(f"expansion moved between k={n} and k={n + 1} on {strip}")
    conclude(
        criterion_log,
        12,
        "schur expansion stable in the variable count",
        not problems,
        problems[0] if problems else f"{len(sample)} strips, k=rows vs k=rows+1",
    )
