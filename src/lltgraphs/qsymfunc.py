"""Exact arithmetic: polynomials in q, symmetric polynomials in k
variables with q-polynomial coefficients, and basis expansions.

Everything is exact. Integer coefficients are the norm; fractions enter
through power-sum expansions and the plethystic substitution and are
kept as exact rationals, never floats. A symmetric polynomial in k
variables is determined by its m-coordinates, the coefficient of x^mu
for each partition mu with at most k parts, and SymFunc stores only
those; its monomials are listed only on demand. Arithmetic and basis
changes work in the coordinates: s by the bialternant, h and e by
Jacobi-Trudi (Macdonald, Symmetric Functions and Hall Polynomials,
I.3), p by integer merge counts (I.6). Every way that needs an inverse,
into p and back from s, h and e, is the one triangular solve _solve.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import factorial, perm, prod
from operator import sub

from .errors import (
    InsufficientVariables,
    MismatchedVariableCount,
    PreconditionViolated,
)

BASES = ("m", "s", "h", "e", "p")
_INT_RE = re.compile("-?[0-9]+")  # an integer literal: ASCII digits, an optional minus


def _exact(x) -> bool:
    """Whether the plain number x is an int or a Fraction; a bool is neither."""
    return type(x) in (int, Fraction)


def _summed(pairs) -> dict:
    """The map exponent -> coefficient of unchecked (exponent, coefficient) pairs,
    each exponent's coefficients summed, zeros dropped, whole Fractions made ints."""
    data: dict[int, object] = {}
    for e, c in pairs:
        data[e] = data[e] + c if e in data else c
    return {e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
            for e, c in data.items() if c != 0}


class QPoly:
    """Polynomial in q with exact integer or rational coefficients.

    Stored as a map from nonnegative exponent to nonzero coefficient.
    The degree of the zero polynomial is None. Exponents must be ints and
    coefficients ints or Fractions, as must every plain number an operator
    takes; anything else, a bool or a float included, is a TypeError
    rather than a truncation, and == with it is False.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else list(coeffs or ())
        for e, c in items:
            if _check_int(e, "q-exponent") < 0:
                raise ValueError(f"negative q-exponent {e}")
            if not _exact(c):
                raise TypeError(f"q-coefficient {c!r} is not an int or a Fraction")
        self._coeffs = _summed(items)

    @classmethod
    def _of_counts(cls, counts: dict) -> "QPoly":
        """The map exponent -> nonzero coefficient, unchecked and not copied."""
        poly = object.__new__(cls)
        poly._coeffs = counts
        return poly

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int) -> "QPoly":
        return cls({e: 1})

    @classmethod
    def constant(cls, c) -> "QPoly":
        return cls({0: c})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient, or None for zero."""
        return max(self._coeffs) if self._coeffs else None

    def coeff(self, e: int):
        return self._coeffs.get(e, 0)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        other = _as_qpoly(other)
        return other if other is NotImplemented else self._coeffs == other._coeffs

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if self._coeffs.keys() <= {0}:
            return hash(self.coeff(0))
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if (other := _as_qpoly(other)) is NotImplemented:
            return other
        return QPoly._of_counts(_summed([*self._coeffs.items(), *other._coeffs.items()]))

    __radd__ = __add__

    def __neg__(self):
        return QPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _as_qpoly(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        return -self + other if _exact(other) else NotImplemented

    def __mul__(self, other):
        if (other := _as_qpoly(other)) is NotImplemented:
            return other
        return QPoly._of_counts(_summed([(e1 + e2, c1 * c2) for e1, c1 in self._coeffs.items()
                                         for e2, c2 in other._coeffs.items()]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if _check_int(n, "power") < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, value):
        """Value of the polynomial at the exact number q = value."""
        if not _exact(value):
            raise TypeError(f"point {value!r} is not an int or a Fraction")
        return sum((c * value**e for e, c in self._coeffs.items()), 0)

    def __str__(self):
        text = ""
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            # no sign before a leading positive term
            sign = "-" if c < 0 else "+" if text else ""
            c = abs(c)
            if isinstance(c, Fraction):
                body = f"({c})" if e > 0 else str(c)
            else:
                body = "" if (c == 1 and e > 0) else str(c)
            text += sign + body + ("" if e == 0 else "q" if e == 1 else f"q^{e}")
        return text or "0"

    __repr__ = __str__


def _combined(terms) -> QPoly:
    """The QPoly sum of n * c over unchecked (int n, QPoly c) pairs."""
    return QPoly._of_counts(_summed([(e, n * a) for n, c in terms for e, a in c._coeffs.items()]))


def _as_qpoly(x):
    """x as a QPoly, an int or a Fraction as a constant; else NotImplemented."""
    if isinstance(x, QPoly):
        return x
    return QPoly._of_counts(_summed([(0, x)])) if _exact(x) else NotImplemented


class _CoeffMap:
    """A map from partitions to nonzero QPoly coefficients in one degree,
    equal only to one of the same class with the same tag, _tag(), which
    says what the partitions index. __str__ joins _named_terms(), the
    (name, coefficient) pairs in display order."""

    __slots__ = ("degree", "_coeffs")

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _key(self):
        # zero has every degree, so it is keyed as degree 0
        return self._tag(), self.degree if self._coeffs else 0, frozenset(self._coeffs.items())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        return " + ".join(f"({c})*{name}" for name, c in self._named_terms()) or "0"

    __repr__ = __str__


class SymFunc(_CoeffMap):
    """Symmetric homogeneous polynomial in x_1..x_k with QPoly coefficients.

    Stored by its m-coordinates: the coefficient of x^lam for each
    partition lam with at most k parts, which is also the coefficient of
    every rearrangement of lam padded to length k. The one constructor
    takes these coordinates, so every SymFunc is symmetric by
    construction. terms() spreads the coordinates over the monomials on
    demand; nothing else lists them.
    """

    __slots__ = ("k",)

    def __init__(self, k: int, degree: int, coords=None):
        """The polynomial with coefficient c on x^lam, and so on every
        rearrangement, for each (partition lam, c) pair; each lam sums to
        degree and has at most k parts, and pairs on one lam add up."""
        _check_int(k, "variable count")
        self.degree = _check_int(degree, "degree")
        if k < 1:
            raise ValueError("need at least one variable")
        self.k = k
        self._coeffs = _collect(coords, degree, k)

    @classmethod
    def _of_counts(cls, k: int, degree: int, counts: dict) -> "SymFunc":
        """The m-coordinates lam -> QPoly._of_counts map, for partitions lam
        of degree with at most k parts, unchecked; an empty map is dropped."""
        f = object.__new__(cls)
        f.k = k
        f.degree = degree
        f._coeffs = {lam: QPoly._of_counts(c) for lam, c in counts.items() if c}
        return f

    def _tag(self):
        return self.k

    def coeff(self, exps) -> QPoly:
        exps = tuple(exps)
        if len(exps) != self.k:
            return QPoly.zero()
        return self._coeffs.get(_partition(exps), QPoly.zero())

    def terms(self):
        """(exponent vector, QPoly) pairs in decreasing lexicographic order,
        every rearrangement of each stored partition listed."""
        spread = [(exps, c) for lam, c in self._coeffs.items()
                  for exps in _distinct_permutations(_pad(lam, self.k))]
        return sorted(spread, key=lambda term: term[0], reverse=True)

    def __len__(self):
        """The number of monomials, counted without listing them: a stored
        partition of length l has k!/(k - l)! placements of its parts in k
        slots, each monomial met once per order of its equal parts."""
        return sum(perm(self.k, len(lam)) // prod(map(factorial, Counter(lam).values()))
                   for lam in self._coeffs)

    def _check_k(self, other: "SymFunc"):
        if self.k != other.k:
            raise MismatchedVariableCount(
                f"cannot combine polynomials in {self.k} and {other.k} variables"
            )

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_k(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        return SymFunc(self.k, self.degree, [*self._coeffs.items(), *other._coeffs.items()])

    def __sub__(self, other):
        return self + (other * QPoly.constant(-1))

    def __mul__(self, other):
        if (scalar := _as_qpoly(other)) is not NotImplemented:
            return SymFunc(self.k, self.degree,
                           ((lam, c * scalar) for lam, c in self._coeffs.items()))
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_k(other)
        # the coefficient of x^nu sums f_e g_{nu - e} over the monomials
        # x^e of f, g_{nu - e} being g's coordinate at the sorted
        # difference; a difference with a negative entry finds none
        spread, degree = self.terms(), self.degree + other.degree
        return SymFunc(self.k, degree, (
            (lam, c * d) for lam in partitions_of(degree, max_len=self.k)
            for exps, c in spread
            if (d := other._coeffs.get(_partition(map(sub, _pad(lam, self.k), exps))))))

    __rmul__ = __mul__

    def _named_terms(self):
        for e, c in self.terms():
            yield "".join(f"x{i+1}" + (f"^{p}" if p > 1 else "")
                          for i, p in enumerate(e) if p) or "1", c


def partitions_of(n: int, max_len=None) -> list:
    """Partitions of n in decreasing lexicographic order, as tuples."""
    found = []

    def fill(rest, top, room, prefix):
        if rest == 0:
            found.append(prefix)
        for first in range(min(rest, top), 0, -1):
            # the next room parts are at most first each
            if first * room < rest:
                break
            fill(rest - first, first, room - 1, prefix + (first,))

    if n >= 0:
        fill(n, n, n if max_len is None else max_len, ())
    return found


def _check_int(value, what: str) -> int:
    """value itself when it is an int; a bool, a float or anything else is
    a TypeError rather than a truncation."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an int")
    return value


def _check_partition(lam) -> tuple[int, ...]:
    """lam as a tuple of positive ints in weakly decreasing order; a bool or
    a float part is a TypeError rather than a truncation."""
    lam = tuple(lam)
    ordered = True
    prev = None
    for p in lam:
        if type(p) is not int:
            raise TypeError(f"partition parts must be ints: {lam!r}")
        if p < 1:
            raise ValueError(f"partition parts must be positive: {lam}")
        if prev is not None and prev < p:
            ordered = False
        prev = p
    if not ordered:
        raise ValueError(f"partition must be weakly decreasing: {lam}")
    return lam


def _collect(pairs, degree: int, max_len: int) -> dict:
    """The (partition lam, c) pairs, or a map lam -> c, summed per lam with
    the zero sums dropped. Each lam sums to degree and has at most max_len
    parts; a plain number c becomes a constant QPoly, so a float is a
    TypeError."""
    data: dict[tuple[int, ...], QPoly] = {}
    for lam, c in pairs.items() if isinstance(pairs, dict) else pairs or ():
        lam = _check_partition(lam)
        if len(lam) > max_len or sum(lam) != degree:
            raise ValueError(
                f"partition {lam} is not of {degree} with at most {max_len} parts"
            )
        if not isinstance(c, QPoly):
            c = QPoly.constant(c)
        prev = data.get(lam)
        data[lam] = c if prev is None else prev + c
    return {lam: c for lam, c in data.items() if c}


def _distinct_permutations(items: tuple[int, ...]):
    """All distinct rearrangements, each once, in increasing lexicographic
    order; stepping to the next permutation needs no recursion."""
    perm = sorted(items)
    while True:
        yield tuple(perm)
        j = len(perm) - 2  # the last ascent, then the last entry above perm[j]
        while j >= 0 and perm[j] >= perm[j + 1]:
            j -= 1
        if j < 0:
            return
        t = len(perm) - 1
        while perm[t] <= perm[j]:
            t -= 1
        perm[j], perm[t] = perm[t], perm[j]
        perm[j + 1 :] = perm[:j:-1]


def _pad(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    return lam + (0,) * (k - len(lam))


def _partition(vec) -> tuple[int, ...]:
    return tuple(sorted(filter(None, vec), reverse=True))


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(p > i for p in lam) for i in range(lam[0] if lam else 0))


def _antisymmetrised(nu: tuple[int, ...]) -> dict:
    """Sum of sgn(w) over the permutations w of delta = (n-1, ..., 1, 0)
    leaving nu + delta - w(delta) >= 0, grouped by the partition that
    vector sorts to (Macdonald I.3). w is fixed from the last row up, row
    i taking a free value of delta of at most nu_i + delta_i, so trailing
    zero rows of nu force w: any n >= l(nu) gives the sums on l(nu) rows."""
    rows = len(nu)
    if rows < 2:
        return {nu: 1}
    tops = [p + rows - 1 - i for i, p in enumerate(nu)]
    found: dict[tuple[int, ...], int] = {}

    def place(i, free, sign, tail):
        # the q-th smallest free value makes q inversions with the rows
        # above; the top row takes the last value, below tops[0] >= rows
        top = tops[i]
        for q, d in enumerate(free):
            if d > top:
                break
            s = -sign if q & 1 else sign
            t = tail + (top - d,) if d < top else tail
            if i > 1:
                place(i - 1, free[:q] + free[q + 1:], s, t)
            else:
                key = tuple(sorted(t + (tops[0] - free[1 - q],), reverse=True))
                found[key] = found.get(key, 0) + s

    place(rows - 1, tuple(range(rows)), 1, ())
    return found


def _jacobi_trudi(schur: dict, basis: str) -> dict:
    """The h- or e-coefficients (basis "h" or "e") of sum_nu schur[nu] s_nu:
    s_nu = sum_w sgn(w) h_{nu + delta - w(delta)}, and the same in e on
    the conjugate nu' (Macdonald I.3.4, I.3.5)."""
    terms: dict[tuple[int, ...], list] = {}
    for nu, c in schur.items():
        for lam, n in _antisymmetrised(_conjugate(nu) if basis == "e" else nu).items():
            if n:
                terms.setdefault(lam, []).append((n, c))
    return {lam: _combined(t) for lam, t in terms.items()}


def _merge_count(parts: tuple[int, ...], room: tuple[int, ...], memo: dict) -> int:
    """Coefficient of x^room in p_{parts[0]} p_{parts[1]} ...: the ways to
    give each part one whole coordinate of room, so that the parts merge
    into room. Memoised on room sorted, which the count ignores."""
    if not parts:
        return 1
    key = (parts, room)
    hit = memo.get(key)
    if hit is None:
        r = parts[0]
        hit = memo[key] = sum(
            _merge_count(parts[1:], _partition(room[:j] + (v - r,) + room[j + 1:]), memo)
            for j, v in enumerate(room) if v >= r
        )
    return hit


def _solve(order, given: dict, row, diag=None) -> dict:
    """Solve a triangular system along order: the unknown at mu is given[mu]
    less row(mu)(nu) x_nu summed over the unknowns nu already solved, divided
    by diag(mu), or by 1 when diag is None. row(mu)(nu) is 0 or None where
    the system has no entry. Returns the nonzero unknowns."""
    solved: dict[tuple[int, ...], QPoly] = {}
    for mu in order:
        entry = row(mu)
        terms = [(1, given[mu])] if mu in given else []
        terms += [(-n, x) for nu, x in solved.items() if (n := entry(nu))]
        if acc := _combined(terms):
            d = 1 if diag is None else diag(mu)
            solved[mu] = acc if d == 1 else acc * Fraction(1, d)
    return solved


def eval_basis(basis: str, lam, k: int) -> SymFunc:
    """The basis element named by partition lam, as a polynomial in k
    variables, by BasisExpansion.evaluate. A Schur or monomial element
    needing more than k rows evaluates to the zero polynomial rather than
    raising.
    """
    lam = _check_partition(lam)
    return BasisExpansion(basis, sum(lam), {lam: 1}).evaluate(k)


class BasisExpansion(_CoeffMap):
    """Coefficients of a symmetric polynomial against a named basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: str, degree: int, coeffs=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.degree = _check_int(degree, "degree")
        self._coeffs = _collect(coeffs, degree, degree)

    def coeff(self, lam) -> QPoly:
        return self._coeffs.get(_check_partition(lam), QPoly.zero())

    def items(self):
        """(partition, QPoly) pairs in decreasing lexicographic order."""
        return [(lam, self._coeffs[lam]) for lam in sorted(self._coeffs, reverse=True)]

    def _tag(self):
        return self.basis

    def evaluate(self, k: int) -> SymFunc:
        """Expand back into a polynomial in k variables, in m-coordinates;
        an s_lam with more than k rows is zero in k variables.

        p sums the merge counts of to_basis. h goes to s by Jacobi-Trudi
        solved backwards: the h-expansion of s_nu is J(nu) =
        _antisymmetrised(nu), nonzero only on partitions that dominate nu
        and 1 at nu, so the s-coefficients c of sum_lam b_lam h_lam solve
        b_lam = sum_nu J(nu)[lam] c_nu in increasing lexicographic order,
        from the smallest lam with a coefficient. e does the same, each
        c_nu then belonging to s of the conjugate of nu. s inverts the
        bialternant read of to_basis, c_mu = sum_nu A(mu)[nu] a_nu with
        A(mu) = _antisymmetrised(mu): each nu there dominates mu, and the
        entry at mu is 1, so the a come out in decreasing order, from the
        largest partition with a coefficient."""
        coeffs = self._coeffs
        if self.basis == "m":
            return SymFunc(k, self.degree,
                           ((lam, c) for lam, c in coeffs.items() if len(lam) <= k))
        if self.basis == "p":
            memo: dict = {}
            return SymFunc(k, self.degree, (
                (mu, c * n) for mu in partitions_of(self.degree, max_len=k)
                for lam, c in coeffs.items() if (n := _merge_count(lam, mu, memo))))
        if self.basis != "s":
            low = min(coeffs, default=())
            order = [lam for lam in reversed(partitions_of(self.degree)) if lam >= low]
            jt = {nu: _antisymmetrised(nu) for nu in order}
            coeffs = _solve(order, coeffs, lambda lam: lambda nu: jt[nu].get(lam))
            if self.basis == "e":
                coeffs = {_conjugate(nu): c for nu, c in coeffs.items()}
        top = max(coeffs, default=())
        order = [mu for mu in partitions_of(self.degree, max_len=k) if mu <= top]
        return SymFunc(k, self.degree, _solve(
            order, coeffs, lambda mu: _antisymmetrised(mu).get).items())

    def _named_terms(self):
        for lam, c in self.items():
            yield f"{self.basis}{''.join(str(p) for p in lam) if lam else '()'}", c


def to_basis(f: SymFunc, basis: str) -> BasisExpansion:
    """Expand a symmetric homogeneous polynomial in the named basis.

    Only the stored m-coordinates a of f are read, a_mu being the
    coefficient of x^mu. The coefficient of s_lam is that of x^(lam+delta)
    in f a_delta, the bialternant sum_w sgn(w) a_{sort(lam+delta-w(delta))}
    over the permutations w of delta = (k-1, ..., 1, 0) (Macdonald I.3);
    h and e follow from s by Jacobi-Trudi. For p, a_mu = sum_lam R(lam,
    mu) c_lam with R counting the ways the parts of lam merge into mu;
    _solve takes the c in increasing order, dividing only by R(mu, mu)
    (I.6).

    The coefficients are exact in every basis: integral inputs give
    integral s- and m-coefficients, rational inputs rational ones. Raises
    InsufficientVariables when basis is h, e or p and k < degree (they
    need every partition of the degree).
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if f.is_zero:
        return BasisExpansion(basis, f.degree, None)
    if basis not in ("s", "m") and f.k < f.degree:
        raise InsufficientVariables(
            f"{basis}-expansion of degree {f.degree} needs at least "
            f"{f.degree} variables, got {f.k}"
        )
    parts = list(partitions_of(f.degree, max_len=f.k))
    coords = f._coeffs
    if basis == "m":
        coeffs = {mu: coords[mu] for mu in parts if mu in coords}
    elif basis == "p":
        memo: dict = {}
        coeffs = _solve(reversed(parts), coords,
                        lambda mu: lambda lam: _merge_count(lam, mu, memo),
                        lambda mu: _merge_count(mu, mu, memo))
    else:
        # plain numbers first: most of these sums cancel to zero
        coeffs = {lam: c for lam in parts if (c := _combined(
            (n, coords[mu]) for mu, n in _antisymmetrised(lam).items() if n and mu in coords))}
        if basis != "s":
            coeffs = _jacobi_trudi(coeffs, basis)
    return BasisExpansion(basis, f.degree, coeffs)


def plethystic_q_substitute(exp: BasisExpansion) -> BasisExpansion:
    """On the power-sum basis, substitute x -> x(q-1): the coefficient
    of p_lam picks up a factor prod_i (q^{lam_i} - 1)."""
    if exp.basis != "p":
        raise PreconditionViolated("plethystic substitution needs a p-expansion")
    coeffs = {}
    for lam, c in exp.items():
        factor = QPoly.one()
        for part in lam:
            factor = factor * (QPoly.q_power(part) - QPoly.one())
        coeffs[lam] = c * factor
    return BasisExpansion("p", exp.degree, coeffs)

