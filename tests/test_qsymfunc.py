import re
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lltgraphs import (
    BasisExpansion,
    QPoly,
    SymFunc,
    eval_basis,
    llt_poly,
    parse_strip,
    ribbon,
    to_basis,
)
from lltgraphs import qsymfunc
from lltgraphs.chromatic import chrom_quasisym
from lltgraphs.compositions import compositions_of, multiset_equal
from lltgraphs.errors import (
    InexactDivision,
    InsufficientVariables,
    NotSymmetric,
    NonIntegralCoefficient,
    ParseError,
    PreconditionViolated,
)
from lltgraphs.qsymfunc import (
    BASES,
    _product_count,
    divide_qpoly,
    partitions_of,
    plethystic_q_substitute,
)
from lltgraphs.strips import HorizontalStrip, Row
from lltgraphs.wgraph import WeightedGraph

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


def test_qpoly_division():
    num = QPoly({2: 1, 0: -1})
    assert num.divide(QPoly({1: 1, 0: 1})) == QPoly({1: 1, 0: -1})
    assert num.divide(QPoly({1: 1, 0: 2})) is None
    with pytest.raises(ZeroDivisionError):
        num.divide(QPoly.zero())


@pytest.mark.parametrize(
    "coeffs", [{0: 2.7}, {0: 0.5}, {0: True}, {0: "1"}, {1.9: 1}, {True: 1}],
    ids=["float", "float-below-one", "bool", "str", "float-exponent", "bool-exponent"],
)
def test_qpoly_rejects_what_it_would_truncate(coeffs):
    with pytest.raises(TypeError):
        QPoly(coeffs)


def test_expansion_json_rejects_float_coefficients():
    for pair in ([0, 0.5], [0, 2.7], [1.9, 1]):
        obj = {"basis": "s", "degree": 1, "coeffs": [{"partition": [1], "q": [pair]}]}
        with pytest.raises(ParseError):
            BasisExpansion.from_json_dict(obj)


@pytest.mark.parametrize(
    "degree, part",
    [(1.9, 1), (1, 1.2), (1.0, 1), (1, 1.0), (True, 1), (1, True)],
    ids=["float-degree", "float-part", "whole-float-degree", "whole-float-part",
         "bool-degree", "bool-part"],
)
def test_expansion_json_rejects_what_it_would_truncate(degree, part):
    obj = {"basis": "s", "degree": degree, "coeffs": [{"partition": [part], "q": [[0, 1]]}]}
    with pytest.raises(ParseError):
        BasisExpansion.from_json_dict(obj)


@pytest.mark.parametrize(
    "k, degree, lam",
    [(2.7, 1, (1,)), (True, 1, (1,)), (2, 1.0, (1,)), (2, False, ()),
     (2, 1, (1.0,)), (2, 1, (True,))],
    ids=["float-k", "bool-k", "float-degree", "bool-degree", "float-part", "bool-part"],
)
def test_symfunc_rejects_what_it_would_truncate(k, degree, lam):
    with pytest.raises(TypeError):
        SymFunc(k, degree, [(lam, QPoly.constant(1))])


@pytest.mark.parametrize("lam", [(2.0, 1), (2, True)], ids=["float-part", "bool-part"])
def test_basis_expansion_and_eval_basis_reject_non_int_parts(lam):
    with pytest.raises(TypeError):
        BasisExpansion("s", 3, {lam: 1})
    with pytest.raises(TypeError):
        eval_basis("s", lam, 2)


def test_qpoly_degree_and_coeff():
    p = QPoly({6: 3, 5: 1})
    assert p.degree == 6
    assert p.coeff(5) == 1
    assert p.coeff(4) == 0


# ---- basis elements against brute enumeration --------------------------------

def _as_int_dict(f):
    out = {}
    for exps, c in f.terms():
        assert c.degree in (0, None) or not c.pairs() or max(
            e for e, _ in c.pairs()
        ) == 0, f"non-constant coefficient {c}"
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
    for n in range(1, 7):
        memo = {}
        for lam in partitions_of(n):
            brute = brute_basis(basis, lam, n)
            for mu in partitions_of(n):
                got = _product_count(basis, lam, mu, memo)
                assert got == brute.get(_pad(mu, n), 0), (basis, lam, mu)


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
            for e, a in c.pairs():
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
    f = BasisExpansion(source, n, terms).evaluate(n)
    for basis in "hep":
        exp = to_basis(f, basis)
        assert exp.basis == basis
        assert exp.evaluate(n) == f, basis
    # s and m refuse exactly the inputs whose expansion has a fraction,
    # naming its first fractional coefficient in decreasing order
    monomial = ((mu, f.coeff(_pad(mu, n))) for mu in partitions_of(n))
    want = {"m": {mu: c for mu, c in monomial if c}, "s": _oracle_schur_coords(f)}
    for basis, coords in want.items():
        fractional = [(mu, c) for mu, c in coords.items() if not c.is_integral]
        if fractional:
            with pytest.raises(NonIntegralCoefficient) as caught:
                to_basis(f, basis)
            got = caught.value
            assert (got.partition, got.coefficient) == fractional[0], basis
        else:
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
    want = _oracle_schur_coords(f)
    fractional = [(mu, c) for mu, c in want.items() if not c.is_integral]
    if fractional:
        with pytest.raises(NonIntegralCoefficient) as caught:
            to_basis(f, "s")
        assert (caught.value.partition, caught.value.coefficient) == fractional[0]
    else:
        assert dict(to_basis(f, "s").items()) == want


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
        for alpha in compositions_of(n):
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
    comps = list(compositions_of(n))
    polys = [ribbon(a, n) for a in comps]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            same = polys[i] == polys[j]
            assert same == multiset_equal(comps[i], comps[j]), (
                comps[i],
                comps[j],
            )


# ---- BasisExpansion -----------------------------------------------------------

def test_expansion_json_round_trip():
    exp = BasisExpansion(
        "s", 3, {(3,): QPoly.one(), (2, 1): QPoly({1: 2, 0: -1})}
    )
    again = BasisExpansion.from_json_dict(exp.to_json_dict())
    assert again.basis == "s"
    assert dict(again.items()) == dict(exp.items())


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


def test_divide_qpoly():
    exp = BasisExpansion("p", 1, {(1,): QPoly({2: 1, 0: -1})})
    out = divide_qpoly(exp, QPoly({1: 1, 0: 1}))
    assert out.coeff((1,)) == QPoly({1: 1, 0: -1})
    with pytest.raises(InexactDivision):
        divide_qpoly(exp, QPoly({1: 1, 0: 2}))
