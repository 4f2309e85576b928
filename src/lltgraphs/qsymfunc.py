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
I.3), p by a triangular solve on integer merge counts (I.6).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from operator import sub

from . import compositions as comps
from .errors import (
    InexactDivision,
    InsufficientVariables,
    MismatchedVariableCount,
    NonIntegralCoefficient,
    ParseError,
    PreconditionViolated,
)

BASES = ("m", "s", "h", "e", "p")


def _norm_coeff(c):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


class QPoly:
    """Polynomial in q with exact integer or rational coefficients.

    Stored as a map from nonnegative exponent to nonzero coefficient.
    The degree of the zero polynomial is None. Exponents must be ints and
    coefficients ints or Fractions (bool counts as neither); anything
    else, a float included, is a TypeError rather than a truncation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data: dict[int, object] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, c in items:
                if isinstance(e, bool) or not isinstance(e, int):
                    raise TypeError(f"q-exponent {e!r} is not an int")
                if e < 0:
                    raise ValueError(f"negative q-exponent {e}")
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise TypeError(f"q-coefficient {c!r} is not an int or a Fraction")
                data[e] = data.get(e, 0) + c
        self._coeffs = {e: _norm_coeff(c) for e, c in data.items() if c != 0}

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

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._coeffs.values())

    def coeff(self, e: int):
        return self._coeffs.get(e, 0)

    def pairs(self):
        """(exponent, coefficient) pairs, decreasing exponent."""
        return [(e, self._coeffs[e]) for e in sorted(self._coeffs, reverse=True)]

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, QPoly) else QPoly.constant(-other))

    def __rsub__(self, other):
        return QPoly.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        out: dict[int, object] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, value):
        """Value of the polynomial at q = value (exact)."""
        return sum((c * value**e for e, c in self._coeffs.items()), 0)

    def divide(self, d: "QPoly"):
        """Exact quotient self / d, or None if a remainder is left."""
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = {e: Fraction(c) for e, c in self._coeffs.items()}
        quot: dict[int, Fraction] = {}
        d_deg = d.degree
        d_lead = Fraction(d.coeff(d_deg))
        while rem:
            r_deg = max(rem)
            if r_deg < d_deg:
                return None
            factor = rem[r_deg] / d_lead
            quot[r_deg - d_deg] = factor
            for e, c in d._coeffs.items():
                shifted = e + r_deg - d_deg
                new = rem.get(shifted, Fraction(0)) - factor * c
                if new:
                    rem[shifted] = new
                else:
                    rem.pop(shifted, None)
        return QPoly(quot)

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


def _orbit_size(exps: tuple[int, ...]) -> int:
    size = factorial(len(exps))
    for m in Counter(exps).values():
        size //= factorial(m)
    return size


class SymFunc:
    """Symmetric homogeneous polynomial in x_1..x_k with QPoly coefficients.

    Stored by its m-coordinates: the coefficient of x^lam for each
    partition lam with at most k parts, which is also the coefficient of
    every rearrangement of lam padded to length k. The one constructor
    takes these coordinates, so every SymFunc is symmetric by
    construction. terms() spreads the coordinates over the monomials on
    demand; nothing else lists them.
    """

    __slots__ = ("k", "degree", "_coords")

    def __init__(self, k: int, degree: int, coords=None):
        """The polynomial with coefficient c on x^lam, and so on every
        rearrangement, for each (partition lam, c) pair; each lam sums to
        degree and has at most k parts, and pairs on one lam add up."""
        _check_int(k, "variable count")
        _check_int(degree, "degree")
        if k < 1:
            raise ValueError("need at least one variable")
        self.k = k
        self.degree = degree
        data: dict[tuple[int, ...], QPoly] = {}
        for lam, c in coords or ():
            lam = _check_partition(lam)
            if len(lam) > k or sum(lam) != degree:
                raise ValueError(
                    f"partition {lam} is not of {degree} with at most {k} parts"
                )
            prev = data.get(lam)
            data[lam] = c if prev is None else prev + c
        self._coords = {lam: c for lam, c in data.items() if c}

    @classmethod
    def zero(cls, k: int, degree: int) -> "SymFunc":
        return cls(k, degree)

    @property
    def is_zero(self) -> bool:
        return not self._coords

    def coeff(self, exps) -> QPoly:
        exps = tuple(exps)
        if len(exps) != self.k:
            return QPoly.zero()
        return self._coords.get(_partition(exps), QPoly.zero())

    def terms(self):
        """(exponent vector, QPoly) pairs in decreasing lexicographic order,
        every rearrangement of each stored partition listed."""
        spread = [(exps, c) for lam, c in self._coords.items()
                  for exps in _distinct_permutations(_pad(lam, self.k))]
        return sorted(spread, key=lambda term: term[0], reverse=True)

    def __len__(self):
        """The number of monomials."""
        return sum(_orbit_size(_pad(lam, self.k)) for lam in self._coords)

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.k != other.k:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self._coords == other._coords

    def __hash__(self):
        return hash((self.k, self.degree if self._coords else 0,
                     frozenset(self._coords.items())))

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
        coords = list(self._coords.items()) + list(other._coords.items())
        return SymFunc(self.k, self.degree, coords)

    def __sub__(self, other):
        return self + (other * QPoly.constant(-1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if isinstance(other, QPoly):
            return SymFunc(
                self.k, self.degree,
                ((lam, c * other) for lam, c in self._coords.items()),
            )
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
            if (d := other._coords.get(_partition(map(sub, _pad(lam, self.k), exps))))))

    __rmul__ = __mul__

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e, c in self.terms():
            mono = "".join(
                f"x{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e) if p
            ) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    __repr__ = __str__


def partitions_of(n: int, max_part=None, max_len=None) -> list:
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
        fill(n, n if max_part is None else max_part, n if max_len is None else max_len, ())
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


def _distinct_permutations(items: tuple[int, ...]):
    """All distinct rearrangements, without generating duplicates."""
    if not items:
        yield ()
    for v in sorted(set(items)):
        rest = list(items)
        rest.remove(v)
        for tail in _distinct_permutations(tuple(rest)):
            yield (v,) + tail


def _pad(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    return lam + (0,) * (k - len(lam))


def _takes(r: int, caps):
    """Vectors t with 0 <= t[i] <= caps[i] and sum r."""
    if not caps:
        if r == 0:
            yield ()
        return
    spare = sum(caps[1:])
    for t in range(max(0, r - spare), min(r, caps[0]) + 1):
        for rest in _takes(r - t, caps[1:]):
            yield (t,) + rest


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
    pairs: dict[tuple[int, ...], list] = {}
    for nu, c in schur.items():
        for lam, n in _antisymmetrised(_conjugate(nu) if basis == "e" else nu).items():
            if n:
                pairs.setdefault(lam, []).extend((e, n * a) for e, a in c._coeffs.items())
    return {lam: QPoly(p) for lam, p in pairs.items()}


def _product_count(basis: str, parts: tuple[int, ...], room: tuple[int, ...],
                   memo: dict) -> int:
    """Coefficient of x^room in b_{parts[0]} b_{parts[1]} ... for b one of
    h, e, p: the ways to give out each part over the coordinates of room,
    any amounts for h, at most 1 per coordinate for e, one whole
    coordinate for p. Memoised on room sorted, which the count ignores."""
    if not parts:
        return 1
    key = (parts, room)
    hit = memo.get(key)
    if hit is None:
        r = parts[0]
        if basis == "p":
            takes = [tuple(r * (i == j) for i in range(len(room)))
                     for j, v in enumerate(room) if v >= r]
        else:
            takes = _takes(r, room if basis == "h" else [min(1, v) for v in room])
        hit = memo[key] = sum(
            _product_count(basis, parts[1:], _partition(map(sub, room, t)), memo)
            for t in takes
        )
    return hit


def eval_basis(basis: str, lam, k: int) -> SymFunc:
    """The basis element named by partition lam, as a polynomial in k
    variables, by BasisExpansion.evaluate. A Schur or monomial element
    needing more than k rows evaluates to the zero polynomial rather than
    raising.
    """
    lam = _check_partition(lam)
    return BasisExpansion(basis, sum(lam), {lam: 1}).evaluate(k)


class BasisExpansion:
    """Coefficients of a symmetric polynomial against a named basis."""

    __slots__ = ("basis", "degree", "_coeffs")

    def __init__(self, basis: str, degree: int, coeffs=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.degree = _check_int(degree, "degree")
        data: dict[tuple[int, ...], QPoly] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for lam, c in items:
                lam = _check_partition(lam)
                if sum(lam) != self.degree:
                    raise ValueError(f"partition {lam} does not sum to {degree}")
                if not isinstance(c, QPoly):
                    c = QPoly.constant(c)
                prev = data.get(lam)
                c = c if prev is None else prev + c
                if c.is_zero:
                    data.pop(lam, None)
                else:
                    data[lam] = c
        self._coeffs = data

    def coeff(self, lam) -> QPoly:
        return self._coeffs.get(tuple(lam), QPoly.zero())

    def items(self):
        """(partition, QPoly) pairs in decreasing lexicographic order."""
        return [(lam, self._coeffs[lam]) for lam in sorted(self._coeffs, reverse=True)]

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, BasisExpansion):
            return NotImplemented
        return (
            self.basis == other.basis
            and (self.is_zero and other.is_zero or self.degree == other.degree)
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.basis, self.degree, frozenset(self._coeffs.items())))

    def evaluate(self, k: int) -> SymFunc:
        """Expand back into a polynomial in k variables by summing the
        terms in m-coordinates; an s_lam with more than k rows is zero in
        k variables.

        s inverts the bialternant read of to_basis, c_mu = sum_nu A(mu)[nu]
        a_nu with A(mu) = _antisymmetrised(mu): each nu there dominates mu,
        so it comes first in decreasing lexicographic order, and A(mu)[mu]
        = 1. Solved from the top, a_mu = c_mu - sum_{nu != mu} A(mu)[nu]
        a_nu, starting at the largest partition with a coefficient."""
        if self.basis == "s":
            coords: dict[tuple[int, ...], QPoly] = {}
            top = max(self._coeffs, default=())
            for mu in partitions_of(self.degree, max_len=k):
                if mu > top:
                    continue
                solved = [(e, -n * a) for nu, n in _antisymmetrised(mu).items()
                          if nu != mu and nu in coords
                          for e, a in coords[nu]._coeffs.items()]
                c = QPoly(list(self.coeff(mu)._coeffs.items()) + solved)
                if c:
                    coords[mu] = c
            return SymFunc(k, self.degree, coords.items())
        memo: dict = {}
        coords = []
        for mu in partitions_of(self.degree, max_len=k):
            total = QPoly.zero()
            for lam, c in self._coeffs.items():
                count = (int(lam == mu) if self.basis == "m"
                         else _product_count(self.basis, lam, mu, memo))
                if count:
                    total = total + c * count
            coords.append((mu, total))
        return SymFunc(k, self.degree, coords)

    def __str__(self):
        if not self._coeffs:
            return "0"
        bits = []
        for lam, c in self.items():
            name = f"{self.basis}{''.join(str(p) for p in lam) if lam else '()'}"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        """Canonical JSON form: partitions in decreasing lexicographic
        order, q-pairs [exponent, coefficient] in decreasing exponent
        order, rational coefficients rendered as "a/b" strings."""
        coeffs = []
        for lam, c in self.items():
            pairs = [
                [e, cf if isinstance(cf, int) else str(cf)]
                for e, cf in c.pairs()
            ]
            coeffs.append({"partition": list(lam), "q": pairs})
        return {"basis": self.basis, "degree": self.degree, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, obj) -> "BasisExpansion":
        try:
            basis = obj["basis"]
            degree = obj["degree"]
            coeffs = {}
            for entry in obj["coeffs"]:
                lam = tuple(entry["partition"])
                pairs = []
                for e, cf in entry["q"]:
                    if isinstance(cf, str):
                        cf = Fraction(cf)
                    pairs.append((e, cf))
                coeffs[lam] = QPoly(pairs)
            return cls(basis, degree, coeffs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad basis expansion JSON: {exc}") from None


def to_basis(f: SymFunc, basis: str) -> BasisExpansion:
    """Expand a symmetric homogeneous polynomial in the named basis.

    Only the stored m-coordinates a of f are read, a_mu being the
    coefficient of x^mu. The coefficient of s_lam is that of x^(lam+delta)
    in f a_delta, the bialternant sum_w sgn(w) a_{sort(lam+delta-w(delta))}
    over the permutations w of delta = (k-1, ..., 1, 0) (Macdonald I.3);
    h and e follow from s by Jacobi-Trudi. For p, a_mu = sum_lam R(lam,
    mu) c_lam with R counting the ways the parts of lam merge into mu,
    solved in increasing order, dividing only by R(mu, mu) (I.6).

    Raises InsufficientVariables when basis is h, e or p and k < degree
    (they need every partition of the degree), and NonIntegralCoefficient,
    naming the first in decreasing order, when the s or m expansion
    (always integral for integral inputs) comes out fractional.
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
    coords = f._coords
    coeffs: dict[tuple[int, ...], QPoly] = {}
    if basis == "m":
        coeffs = {mu: coords[mu] for mu in parts if mu in coords}
    elif basis == "p":
        memo: dict = {}
        for mu in reversed(parts):
            solved = [(e, -a * n) for lam, d in coeffs.items()
                      if (n := _product_count("p", lam, mu, memo))
                      for e, a in d._coeffs.items()]
            c = QPoly(list(coords.get(mu, QPoly.zero())._coeffs.items()) + solved)
            if c:
                diag = _product_count("p", mu, mu, memo)
                coeffs[mu] = c if diag == 1 else c * Fraction(1, diag)
    else:
        for lam in parts:
            # plain numbers first: most of these sums cancel to zero
            acc: dict[int, object] = {}
            for mu, n in _antisymmetrised(lam).items():
                if n and mu in coords:
                    for e, a in coords[mu]._coeffs.items():
                        acc[e] = acc.get(e, 0) + n * a
            if any(acc.values()):
                coeffs[lam] = QPoly(acc)
        if basis != "s":
            coeffs = _jacobi_trudi(coeffs, basis)
    if basis in ("s", "m"):
        for lam, c in coeffs.items():
            if not c.is_integral:
                raise NonIntegralCoefficient(lam, c)
    return BasisExpansion(basis, f.degree, coeffs)


def ribbon(alpha, k: int) -> SymFunc:
    """Ribbon Schur polynomial of the composition alpha in k variables,
    via the signed sum of complete homogeneous elements over the
    coarsening multiset of alpha."""
    alpha = comps.as_composition(alpha)
    if k < sum(alpha):
        raise InsufficientVariables(
            f"ribbon of size {sum(alpha)} needs at least {sum(alpha)} variables"
        )
    coeffs = {
        lam: -mult if (len(alpha) - len(lam)) % 2 else mult
        for lam, mult in comps.coarsening_multiset(alpha).items()
    }
    return BasisExpansion("h", sum(alpha), coeffs).evaluate(k)


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


def divide_qpoly(exp: BasisExpansion, d: QPoly) -> BasisExpansion:
    """Coefficientwise exact division of a basis expansion by d."""
    coeffs = {}
    for lam, c in exp.items():
        quot = c.divide(d)
        if quot is None:
            raise InexactDivision(lam)
        coeffs[lam] = quot
    return BasisExpansion(exp.basis, exp.degree, coeffs)
