import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    BasisExpansion,
    QPoly,
    SymFunc,
    eval_basis,
    llt_poly,
    coarsening_multiset,
    coarsenings,
    parse_strip,
    to_basis,
)
from lltgraphs import qsymfunc
from lltgraphs.chromatic import chrom_quasisym
from lltgraphs.errors import (
    InsufficientVariables,
    NotSymmetric,
    PreconditionViolated,
)
from lltgraphs.qsymfunc import (
    BASES,
    _merge_count,
    partitions_of,
    plethystic_q_substitute,
)
from lltgraphs.strips import HorizontalStrip, Row
from lltgraphs.wgraph import WeightedGraph

from formulas import q_coefficients, ribbon
from oracle import _mono_mul, brute_basis, brute_llt, brute_ribbon, h_in_e, h_in_p, kostka

MAX_FILLINGS = 2000


# ---- QPoly ------------------------------------------------------------------

def test_qpoly_str_forms():
    assert str(QPoly.zero()) == "0"
    assert str(QPoly.one()) == "1"
    assert str(QPoly.q_power(1)) == "q"
    assert str(QPoly({6: 3, 5: 1})) == "3q^6+q^5"
    assert str(QPoly({1: -1, 0: 1})) == "-q+1"
    assert str(QPoly({2: Fraction(1, 2)})) == "(1/2)q^2"


# one signed term of str(QPoly): a coefficient c, (a/b) or a/b, then q or q^e
_TERM = re.compile(r"([+-]?)(?:\((\d+/\d+)\)|(\d+(?:/\d+)?))?(?:(q)(?:\^(\d+))?)?")


def _read_qpoly(text):
    """This test's own reading of the str(QPoly) grammar."""
    coeffs, pos = {}, 0
    while pos < len(text):
        sign, paren, plain, q, exp = (found := _TERM.match(text, pos)).groups()
        if not (paren or plain or q):
            raise ValueError(f"bad term at {pos} in {text!r}")
        e = int(exp or 1) if q else 0
        coeffs[e] = Fraction(paren or plain or 1) * (-1 if sign == "-" else 1)
        pos = found.end()
    return QPoly(coeffs)


@pytest.mark.parametrize(
    "text", ["0", "1", "q", "-q+1", "3q^6+q^5", "q^2-2q+1", "(1/2)q-1/2"]
)
def test_qpoly_parse_round_trip(text):
    assert str(_read_qpoly(text)) == text


def test_qpoly_arithmetic():
    q = QPoly.q_power(1)
    one = QPoly.one()
    assert (q - one) * (q + one) == QPoly({2: 1, 0: -1})
    assert (q - one) ** 2 == QPoly({2: 1, 1: -2, 0: 1})
    assert QPoly({2: 1, 0: -1}).evaluate(3) == 8


@pytest.mark.parametrize(
    "poly, number",
    [(QPoly.one(), 1), (QPoly(), 0), (QPoly.constant(Fraction(3, 2)), Fraction(3, 2))],
    ids=["one", "zero", "fraction"],
)
def test_constant_qpoly_hashes_as_its_number(poly, number):
    assert poly == number
    assert hash(poly) == hash(number)
    assert len({poly, number}) == 1


def test_zero_expansions_of_different_degrees_hash_equal():
    a, b = BasisExpansion("s", 2), BasisExpansion("s", 3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert BasisExpansion("s", 2) != BasisExpansion("h", 2)


def test_zero_symfuncs_of_different_degrees_hash_equal():
    a, b = SymFunc(2, 2), SymFunc(2, 3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert SymFunc(2, 2) != SymFunc(3, 2)


@pytest.mark.parametrize("coeffs", [{}, {(2,): 1, (1, 1): QPoly({1: 3})}], ids=["zero", "nonzero"])
def test_a_symfunc_never_equals_an_expansion(coeffs):
    f, exp = SymFunc(2, 2, coeffs), BasisExpansion("m", 2, coeffs)
    assert not f == exp and not exp == f
    assert f != exp and exp != f


def test_zero_of_either_coefficient_map_prints_as_0():
    for zero in (SymFunc(2, 3), BasisExpansion("s", 3), BasisExpansion("p", 0)):
        assert str(zero) == repr(zero) == "0"


def test_exact_values_have_no_instance_dict():
    """Sweep memo keys hold these by the thousand, so each uses slots only."""
    values = (QPoly({1: 2}), SymFunc(2, 2, {(2,): 1}), BasisExpansion("h", 2, {(1, 1): 1}))
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []


def test_basis_expansion_coeff_reads_only_partitions():
    exp = BasisExpansion("s", 3, {(2, 1): 1})
    assert exp.coeff((2, 1)) == 1
    assert exp.coeff((3,)).is_zero
    with pytest.raises(ValueError, match=r"^partition must be weakly decreasing: \(1, 2\)$"):
        exp.coeff((1, 2))


@pytest.mark.parametrize(
    "coeffs", [{0: 2.7}, {0: 0.5}, {0: True}, {0: "1"}, {1.9: 1}, {True: 1}],
    ids=["float", "float-below-one", "bool", "str", "float-exponent", "bool-exponent"],
)
def test_qpoly_rejects_what_it_would_truncate(coeffs):
    with pytest.raises(TypeError):
        QPoly(coeffs)


@pytest.mark.parametrize(
    "degree, part",
    [(1.9, 1), (1, 1.2), (1.0, 1), (1, 1.0), (True, 1), (1, True)],
    ids=["float-degree", "float-part", "whole-float-degree", "whole-float-part",
         "bool-degree", "bool-part"],
)
def test_expansion_rejects_what_it_would_truncate(degree, part):
    with pytest.raises(TypeError):
        BasisExpansion("s", degree, {(part,): 1})


@pytest.mark.parametrize(
    "k, degree, lam",
    [(2.7, 1, (1,)), (True, 1, (1,)), (2, 1.0, (1,)), (2, False, ()),
     (2, 1, (1.0,)), (2, 1, (True,))],
    ids=["float-k", "bool-k", "float-degree", "bool-degree", "float-part", "bool-part"],
)
def test_symfunc_rejects_what_it_would_truncate(k, degree, lam):
    with pytest.raises(TypeError):
        SymFunc(k, degree, [(lam, QPoly.constant(1))])


@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=5), max_size=3),
       st.integers(0, 2))
def test_terms_list_each_rearrangement_once(partitions, extra):
    """terms() spreads every stored partition over its distinct
    rearrangements, as itertools.permutations lists them once deduplicated."""
    k = max(map(len, partitions), default=1) + extra
    by_degree = {}
    for parts in partitions:
        by_degree.setdefault(sum(parts), set()).add(tuple(sorted(parts, reverse=True)))
    for degree, lams in by_degree.items():
        f = SymFunc(k, degree, [(lam, QPoly.constant(1)) for lam in lams])
        spread = {e for lam in lams for e in permutations(lam + (0,) * (k - len(lam)))}
        assert [e for e, _ in f.terms()] == sorted(spread, reverse=True)


@pytest.mark.parametrize("lam", [(2.0, 1), (2, True)], ids=["float-part", "bool-part"])
def test_basis_expansion_and_eval_basis_reject_non_int_parts(lam):
    with pytest.raises(TypeError):
        BasisExpansion("s", 3, {lam: 1})
    with pytest.raises(TypeError):
        eval_basis("s", lam, 2)


_q = QPoly.q_power(1)
_x1_plus_x2 = eval_basis("m", (1,), 2)

# each way a plain number x enters QPoly or SymFunc, and its value for an
# exact x, found without that way
_WITH_A_NUMBER = {
    "eq": (lambda x: QPoly({0: 2}) == x, lambda x: x == 2),
    "reflected-eq": (lambda x: x == QPoly({0: 2}), lambda x: x == 2),
    "add": (lambda x: _q + x, lambda x: QPoly({1: 1, 0: x})),
    "reflected-add": (lambda x: x + _q, lambda x: QPoly({1: 1, 0: x})),
    "sub": (lambda x: _q - x, lambda x: QPoly({1: 1, 0: -x})),
    "reflected-sub": (lambda x: x - _q, lambda x: QPoly({1: -1, 0: x})),
    "mul": (lambda x: _q * x, lambda x: QPoly({1: x})),
    "reflected-mul": (lambda x: x * _q, lambda x: QPoly({1: x})),
    "pow": (lambda x: _q ** x, lambda x: QPoly({x: 1})),
    "symfunc-mul": (lambda x: _x1_plus_x2 * x, lambda x: SymFunc(2, 1, [((1,), x)])),
    "reflected-symfunc-mul": (lambda x: x * _x1_plus_x2,
                              lambda x: SymFunc(2, 1, [((1,), x)])),
    "constructor": (lambda x: str(QPoly({0: x})), str),
    "evaluate": (lambda x: QPoly({2: 1, 0: -1}).evaluate(x), lambda x: x * x - 1),
}


@pytest.mark.parametrize(
    "x", [2, Fraction(1, 2), True, 1.5, "2"], ids=["int", "fraction", "bool", "float", "str"]
)
@pytest.mark.parametrize("way", list(_WITH_A_NUMBER))
def test_only_exact_numbers_enter(way, x):
    """An int or a Fraction enters exactly (a power only as an int); a
    bool, a float or a str is a TypeError, and == with it is False."""
    apply, want = _WITH_A_NUMBER[way]
    if type(x) is int or (type(x) is Fraction and way != "pow"):
        assert apply(x) == want(x)
    elif way in ("eq", "reflected-eq"):
        assert apply(x) is False
    else:
        with pytest.raises(TypeError):
            apply(x)


def test_qpoly_degree_and_coeff():
    p = QPoly({6: 3, 5: 1})
    assert p.degree == 6
    assert p.coeff(5) == 1
    assert p.coeff(4) == 0


# ---- basis elements against brute enumeration --------------------------------

def _as_int_dict(f):
    out = {}
    for exps, c in f.terms():
        assert c.degree in (0, None), f"non-constant coefficient {c}"
        out[exps] = c.coeff(0)
    return out


# long partitions, tried at k = length - 1 (where s_lam is zero) and k = length
LONG_PARTITIONS = {7: (2, 1, 1, 1, 1, 1), 8: (1,) * 8, 10: (3, 3, 2, 2)}


@pytest.mark.parametrize("basis", ["m", "s", "h", "e", "p"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 10])
def test_eval_basis_matches_brute_force(basis, n):
    if n in LONG_PARTITIONS:
        lam = LONG_PARTITIONS[n]
        cases = [(lam, len(lam) - 1), (lam, len(lam))]
    else:
        cases = [(lam, k) for lam in partitions_of(n) for k in (3, 4)]
    for lam, k in cases:
        got = _as_int_dict(eval_basis(basis, lam, k))
        want = brute_basis(basis, lam, k)
        want = {e: c for e, c in want.items() if c}
        assert got == want, (basis, lam, k)


@pytest.mark.parametrize("basis", ["m", "s", "h", "e", "p"])
def test_to_basis_inverts_eval_basis(basis):
    for n in range(1, 6):
        for lam in partitions_of(n):
            exp = to_basis(eval_basis(basis, lam, 6), basis)
            assert dict(exp.items()) == {lam: QPoly.one()}, (basis, lam)


# ---- transition coefficients and basis change against the oracle --------------

def _pad(mu, k):
    return tuple(mu) + (0,) * (k - len(mu))


def test_kostka_counts_match_oracle():
    # the m-coordinates of s_lam, by Jacobi-Trudi into h product counts
    for n in range(1, 8):
        for lam in partitions_of(n):
            s_lam = eval_basis("s", lam, n)
            for mu in partitions_of(n):
                assert s_lam.coeff(_pad(mu, n)) == kostka(lam, mu), (lam, mu)


@pytest.mark.parametrize("basis", ["h", "e", "p"])
def test_product_counts_match_brute_force(basis):
    # the coefficient of x^mu in b_lam, for every lam and mu of n <= 6; p's
    # is also the merge count that to_basis solves against
    for n in range(1, 7):
        memo = {}
        for lam in partitions_of(n):
            brute = brute_basis(basis, lam, n)
            got = eval_basis(basis, lam, n)
            for mu in partitions_of(n):
                want = brute.get(_pad(mu, n), 0)
                assert got.coeff(_pad(mu, n)) == want, (basis, lam, mu)
                if basis == "p":
                    assert _merge_count(lam, mu, memo) == want, (lam, mu)


def _fillings(rows, k):
    out = 1
    for lo, hi in rows:
        out *= comb(k + hi - lo, hi - lo + 1)
    return out


def _re_expand(exp, k):
    """An expansion summed back through the oracle's basis elements, in
    the exponent vector -> {q power: coefficient} form of brute_llt."""
    out = {}
    for lam, c in exp.items():
        for exps, n in brute_basis(exp.basis, lam, k).items():
            slot = out.setdefault(exps, {})
            for e, a in q_coefficients(c).items():
                slot[e] = slot.get(e, 0) + n * a
    out = {exps: {e: a for e, a in d.items() if a} for exps, d in out.items()}
    return {exps: d for exps, d in out.items() if d}


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.tuples(st.integers(-2, 4), st.integers(1, 3)), min_size=1, max_size=4
    ),
    basis=st.sampled_from(BASES),
    k=st.integers(1, 12),
)
def test_to_basis_re_expands_to_the_brute_polynomial(rows, basis, k):
    # h, e and p need k >= cells, so the strip is cut down to stay cheap;
    # s and m take any k, including ones below the cell count where the
    # expansion is truncated to partitions with at most k parts
    rows = [(lo, lo + size - 1) for lo, size in rows]

    def cells():
        return sum(hi - lo + 1 for lo, hi in rows)

    if basis in "hep":
        while _fillings(rows, cells()) > MAX_FILLINGS:
            rows.pop()
        k = cells()
    else:
        k = min(k, cells())
        while _fillings(rows, k) > MAX_FILLINGS:
            k -= 1
    strip = HorizontalStrip(tuple(Row(lo, hi) for lo, hi in rows))
    exp = to_basis(llt_poly(strip, k), basis)
    assert _re_expand(exp, k) == brute_llt(rows, k)


def test_to_basis_multiplies_no_polynomials(monkeypatch):
    f = llt_poly(parse_strip("3/0,5/3,2/0"), 7)
    want = {basis: to_basis(f, basis) for basis in BASES}

    def refuse(self, other):
        raise RuntimeError("to_basis built a polynomial product")

    monkeypatch.setattr(SymFunc, "__mul__", refuse)
    for basis in BASES:
        assert to_basis(f, basis) == want[basis], basis


_oracle_kostka = lru_cache(maxsize=None)(kostka)


def _oracle_schur_coords(f):
    """The s-coordinates of f, solved from its m-coordinates against the
    oracle's Kostka numbers, largest partition first."""
    coords = {}
    for mu in partitions_of(f.degree, max_len=f.k):
        c = f.coeff(_pad(mu, f.k))
        for nu, d in coords.items():
            c = c - d * _oracle_kostka(nu, mu)
        coords[mu] = c
    return {mu: c for mu, c in coords.items() if c}


_COEFF = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@settings(max_examples=80)
@given(
    n=st.integers(1, 6),
    source=st.sampled_from(BASES),
    integral=st.booleans(),
    data=st.data(),
)
def test_basis_changes_re_evaluate_to_the_input(n, source, integral, data):
    coeff = st.integers(-5, 5) if integral else _COEFF
    qpoly = st.dictionaries(st.integers(0, 3), coeff, max_size=3).map(QPoly)
    terms = data.draw(
        st.dictionaries(st.sampled_from(list(partitions_of(n))), qpoly, max_size=4)
    )
    given_exp = BasisExpansion(source, n, terms)
    f = given_exp.evaluate(n)
    for basis in BASES:
        exp = to_basis(f, basis)
        assert exp.basis == basis
        assert exp.evaluate(n) == f, basis
    assert to_basis(f, source) == given_exp
    # s and m give the exact coordinates, rational ones for a rational input
    monomial = ((mu, f.coeff(_pad(mu, n))) for mu in partitions_of(n))
    want = {"m": {mu: c for mu, c in monomial if c}, "s": _oracle_schur_coords(f)}
    for basis, coords in want.items():
        assert dict(to_basis(f, basis).items()) == coords, basis


@settings(max_examples=150)
@given(n=st.integers(1, 6), integral=st.booleans(), data=st.data())
def test_schur_coordinates_match_the_oracle_kostka_solve(n, integral, data):
    # any m-coordinates make a symmetric polynomial; k runs from below the
    # longest partition's length to above the degree
    k = data.draw(st.integers(1, n + 2), label="k")
    coeff = st.integers(-5, 5) if integral else _COEFF
    qpoly = st.dictionaries(st.integers(0, 3), coeff, max_size=3).map(QPoly)
    coords = data.draw(
        st.dictionaries(st.sampled_from(list(partitions_of(n, max_len=k))), qpoly,
                        max_size=5),
        label="coords",
    )
    f = SymFunc(k, n, coords.items())
    assert dict(to_basis(f, "s").items()) == _oracle_schur_coords(f)


def test_a_rational_expansion_round_trips_through_every_basis():
    given_exp = BasisExpansion("s", 2, {(2,): Fraction(1, 2)})
    f = given_exp.evaluate(2)
    assert to_basis(f, "s") == given_exp
    assert to_basis(f, "m") == BasisExpansion("m", 2, {(2,): Fraction(1, 2),
                                                      (1, 1): Fraction(1, 2)})
    assert str(to_basis(f, "h")) == "(1/2)*h2"
    for basis in BASES:
        assert to_basis(f, basis).evaluate(2) == f, basis


@pytest.mark.parametrize("n", range(1, 8))
def test_single_row_expands_as_h_n(n):
    # a single row has no inversions, so its polynomial is h_n = s_(n)
    one = {(n,): 1}
    for k in (1, n, n + 1):
        f = llt_poly(parse_strip(f"{n}/0"), k)
        assert dict(to_basis(f, "s").items()) == {(n,): QPoly.one()}, k
    f = llt_poly(parse_strip(f"{n}/0"), n)
    for basis, coeffs in {"h": one, "e": h_in_e(n), "p": h_in_p(n)}.items():
        want = {lam: QPoly.constant(c) for lam, c in coeffs.items()}
        assert dict(to_basis(f, basis).items()) == want, basis


def test_llt_poly_and_to_basis_list_no_monomials(monkeypatch):
    strip = parse_strip("3/0,5/3,2/0")
    f = llt_poly(strip, 7)
    want = {basis: to_basis(f, basis) for basis in BASES}

    def refuse(items):
        raise RuntimeError("listed the rearrangements of a partition")

    monkeypatch.setattr(qsymfunc, "_distinct_permutations", refuse)
    g = llt_poly(strip, 7)
    assert g == f
    assert hash(g) == hash(f)
    for basis in BASES:
        assert to_basis(g, basis) == want[basis], basis


def test_chrom_quasisym_rejects_an_asymmetric_labelling():
    # two edges from vertex 1: x1^2 x2 comes with q^0 but x1 x2^2 with q^2
    with pytest.raises(NotSymmetric):
        chrom_quasisym(WeightedGraph.from_edges((1, 1, 1), [(1, 2, 1), (1, 3, 1)]), 3)


@settings(max_examples=150)
@given(
    bases=st.tuples(st.sampled_from(BASES), st.sampled_from(BASES)),
    lams=st.tuples(
        st.integers(1, 4).flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
        st.integers(1, 3).flatmap(lambda n: st.sampled_from(list(partitions_of(n)))),
    ),
    k=st.integers(1, 4),
)
def test_product_matches_brute_monomial_product(bases, lams, k):
    f, g = (eval_basis(b, lam, k) for b, lam in zip(bases, lams))
    want = _mono_mul(*(brute_basis(b, lam, k) for b, lam in zip(bases, lams)))
    assert _as_int_dict(f * g) == {e: c for e, c in want.items() if c}


def test_q_coefficients_survive_basis_round_trip():
    f = eval_basis("s", (2, 1), 3) * QPoly({1: 1}) + eval_basis("s", (3,), 3)
    exp = to_basis(f, "s")
    assert exp.coeff((2, 1)) == QPoly.q_power(1)
    assert exp.coeff((3,)) == QPoly.one()
    assert exp.coeff((1, 1, 1)).is_zero


def test_multiplicative_bases_need_enough_variables():
    f = eval_basis("h", (2, 1), 2)
    with pytest.raises(InsufficientVariables):
        to_basis(f, "h")


def test_multiply_is_commutative_and_graded():
    f = eval_basis("s", (2,), 4)
    g = eval_basis("s", (1, 1), 4)
    fg = f * g
    assert fg.degree == 4
    assert fg == g * f
    # Pieri: s_2 * s_11 = s_31 + s_211
    assert to_basis(fg, "s").coeff((3, 1)) == QPoly.one()
    assert to_basis(fg, "s").coeff((2, 1, 1)) == QPoly.one()
    assert to_basis(fg, "s").coeff((2, 2)).is_zero


# ---- ribbons ------------------------------------------------------------------

def test_ribbon_matches_skew_shape_enumeration():
    for n in range(1, 6):
        for alpha in coarsenings((1,) * n):
            assert _as_int_dict(ribbon(alpha, n)) == brute_ribbon(alpha, n), alpha


def test_ribbon_product_identity():
    k = 4
    lhs = ribbon((2, 1), k) * ribbon((1,), k)
    rhs = ribbon((2, 1, 1), k) + ribbon((2, 2), k)
    assert lhs == rhs


def test_ribbon_needs_enough_variables():
    with pytest.raises(InsufficientVariables):
        ribbon((2, 1), 2)


def test_ribbon_equality_tracks_coarsening_multiset():
    n = 6
    comps = coarsenings((1,) * n)
    polys = [ribbon(a, n) for a in comps]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            same = polys[i] == polys[j]
            multisets = coarsening_multiset(comps[i]), coarsening_multiset(comps[j])
            assert same == (multisets[0] == multisets[1]), (comps[i], comps[j])


# ---- BasisExpansion -----------------------------------------------------------

def test_expansion_evaluate_round_trip():
    exp = BasisExpansion("h", 3, {(2, 1): QPoly.q_power(2), (3,): QPoly.one()})
    f = exp.evaluate(4)
    assert f == eval_basis("h", (2, 1), 4) * QPoly.q_power(2) + eval_basis(
        "h", (3,), 4
    )


def test_plethystic_substitute_multiplies_eigenvalues():
    exp = BasisExpansion("p", 2, {(2,): QPoly.one(), (1, 1): QPoly.one()})
    out = plethystic_q_substitute(exp)
    assert out.coeff((2,)) == QPoly({2: 1, 0: -1})
    assert out.coeff((1, 1)) == QPoly({1: 1, 0: -1}) ** 2


def test_plethystic_substitute_rejects_other_bases():
    exp = BasisExpansion("h", 1, {(1,): QPoly.one()})
    with pytest.raises(PreconditionViolated):
        plethystic_q_substitute(exp)


@pytest.mark.parametrize(
    "build", [lambda c: SymFunc(2, 2, [((2,), c), ((2,), 1)]),
              lambda c: BasisExpansion("s", 2, [((2,), c), ((2,), 1)])],
    ids=["symfunc", "expansion"],
)
def test_coefficients_are_collected_as_exact_qpolys(build):
    """A float coefficient is refused, not stored, and a plain number comes
    back as a constant QPoly in both constructors."""
    with pytest.raises(TypeError):
        build(1.5)
    f = build(2)
    c = f.coeff((2, 0) if isinstance(f, SymFunc) else (2,))
    assert isinstance(c, QPoly) and c == 3


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: BasisExpansion("s", 3, {(2, "1"): 1}), TypeError, "must be ints"),
        (lambda: BasisExpansion("s", 2, {(2, 0): 1}), ValueError, "must be positive"),
        (lambda: SymFunc(2, 3, [((1, 2), 1)]), ValueError, "weakly decreasing"),
        (lambda: BasisExpansion("x", 1), ValueError, "unknown basis"),
        (lambda: to_basis(eval_basis("m", (1,), 1), "x"), ValueError, "unknown basis"),
        (lambda: QPoly({-1: 1}), ValueError, "negative q-exponent"),
        (lambda: QPoly.q_power(1) ** -1, ValueError, "negative power"),
        (lambda: SymFunc(0, 0), ValueError, "at least one variable"),
        (lambda: SymFunc(2, 3, [((2,), 1)]), ValueError, "not of 3 with at most 2 parts"),
        (lambda: eval_basis("m", (1,), 2) + eval_basis("m", (2,), 2), ValueError,
         "different degrees"),
    ],
    ids=["non-int-part", "part-below-one", "increasing-parts",
         "expansion-basis", "to-basis-basis", "negative-exponent", "negative-power",
         "no-variables", "partition-off-degree", "different-degrees"],
)
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_symfunc_edge_branches():
    f = eval_basis("m", (1,), 2)
    zero = SymFunc(2, 5)
    assert f.coeff((1, 0, 0)).is_zero
    assert f != eval_basis("m", (1,), 3)
    assert f + zero == f and zero + f == f
    assert str(SymFunc(2, 0, [((), 5)])) == "(5)*1"


def test_length_difference_and_reversed_subtraction():
    f = eval_basis("s", (2, 1), 3)
    assert len(f) == len(f.terms()) == 7
    assert (f - f).is_zero
    assert f - eval_basis("m", (2, 1), 3) == eval_basis("m", (1, 1, 1), 3) * 2
    assert 1 - QPoly.q_power(1) == QPoly({0: 1, 1: -1})
    assert str(BasisExpansion("h", 3, {(2, 1): QPoly.q_power(1), (3,): 2})) == "(2)*h3 + (q)*h21"
    assert str(BasisExpansion("p", 0)) == "0"
