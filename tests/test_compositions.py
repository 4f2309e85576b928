import pytest

from lltgraphs import (
    coarsening_multiset,
    coarsenings,
    compose,
    format_composition,
    near_concat,
    parse_composition,
)
from lltgraphs.compositions import as_composition, near_concat_power
from lltgraphs.errors import ParseError

from oracle import coarsenings_rec


def test_parse_and_format_round_trip():
    for text in ["1", "2,1", "1,2,3,4", "10,1"]:
        assert format_composition(parse_composition(text)) == text


@pytest.mark.parametrize("bad", ["", "0", "1,0,2", "-1", "1,,2", "a,b", "1 2", "1_0", "+2", "\u0663"])
def test_parse_rejects_nonpositive_and_garbage(bad):
    with pytest.raises(ParseError):
        parse_composition(bad)


@pytest.mark.parametrize("parts", [(1.5, 2), (2.0, 1), (True, 1)], ids=["float", "float-integral", "bool"])
def test_as_composition_refuses_non_int_parts(parts):
    with pytest.raises(TypeError):
        as_composition(parts)


def test_concat_and_near_concat():
    assert near_concat((1, 2), (3, 1)) == (1, 5, 1)
    assert near_concat((2,), (1,)) == (3,)


def test_near_concat_power():
    assert near_concat_power((1, 2), 1) == (1, 2)
    assert near_concat_power((1, 2), 3) == (1, 3, 3, 2)


def test_compose_examples():
    assert compose((1, 2), (2, 1)) == (2, 1, 2, 3, 1)
    assert compose((2, 1), (2, 1)) == (2, 3, 1, 2, 1)


def test_compose_size():
    # |alpha o beta| = |alpha| * |beta|
    for alpha in coarsenings((1,) * 4):
        for beta in coarsenings((1,) * 3):
            assert sum(compose(alpha, beta)) == 12


def test_compose_singleton_identities():
    # (1,) is a two-sided identity for substitution
    assert compose((1,), (2, 1)) == (2, 1)
    assert compose((2, 1), (1,)) == (2, 1)
    assert compose((3,), (1,)) == (3,)


def test_coarsenings_of_three_ones():
    got = set(coarsenings((1, 1, 1)))
    assert got == {(1, 1, 1), (2, 1), (1, 2), (3,)}


@pytest.mark.parametrize("n", range(1, 8))
def test_coarsenings_match_recursive_oracle(n):
    for alpha in coarsenings((1,) * n):
        assert set(coarsenings(alpha)) == coarsenings_rec(alpha)
        assert len(coarsenings(alpha)) == 2 ** (len(alpha) - 1)


def test_coarsening_multiset_counts_sorted_parts():
    ms = coarsening_multiset((1, 1, 1))
    assert ms == {(1, 1, 1): 1, (2, 1): 2, (3,): 1}


def test_multiset_equal_on_substituted_pair():
    a = parse_composition("2,1,2,3,1")
    b = parse_composition("2,3,1,2,1")
    assert coarsening_multiset(a) == coarsening_multiset(b)
    assert coarsening_multiset((2, 1)) != coarsening_multiset((1, 1, 1))


def test_multiset_invariant_under_reversal():
    for alpha in coarsenings((1,) * 6):
        assert coarsening_multiset(alpha) == coarsening_multiset(alpha[::-1])


def test_compositions_of_counts():
    for n in range(1, 9):
        assert len(coarsenings((1,) * n)) == 2 ** (n - 1)


@pytest.mark.parametrize(
    "call, error",
    [(lambda: as_composition(()), ParseError),
     (lambda: near_concat_power((2, 1), 0), ValueError)],
    ids=["empty", "power-zero"],
)
def test_error_paths(call, error):
    with pytest.raises(error):
        call()
