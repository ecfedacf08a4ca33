"""Places, divisors, and factored functions on the projective line.

The function field of the projective line over F_q is the rational
function field F_q(t).  Its places are the monic irreducible polynomials
in t together with one degree-one place at infinity.  Nonzero functions
are kept in factored form -- a constant times a product of powers of
monic irreducibles -- so orders and residues at every place are read off
exactly, with no refactoring and no rounding anywhere.

Canonical uniformizers, fixed once and for all:

* at a finite place, the monic irreducible polynomial itself;
* at infinity, 1/t.

With these choices the unit-part residue of a factored function at
infinity is simply its constant, because every monic factor tends to 1
against the matching power of t.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from .base_algebra import (
    Fq,
    Poly,
    ResidueField,
    const_str,
    irreducibles_of_degree,
    poly_deg,
    poly_factor,
    poly_is_irreducible,
    poly_monic,
    poly_norm,
    poly_parse,
    poly_str,
    rat_parse,
)


class Place:
    """A place of F_q(t): a monic irreducible polynomial, or infinity.

    Places compare and hash by their polynomial (None for infinity), and
    sort with infinity first, then by degree, then in the same order the
    irreducible-enumeration produces them.

    ``Place(field, poly)`` normalizes the polynomial and proves it
    irreducible with Rabin's test; text goes through the same check via
    ``ProjectiveLine.parse_place``.  Inside the package, polynomials
    that are irreducible by construction -- enumerated irreducibles,
    factors from poly_factor, factors of a RationalFunction -- become
    places through ``_proven``, which skips the test.
    """

    __slots__ = ("field", "poly")

    def __init__(self, field: Fq, poly: Optional[Poly] = None):
        if poly is not None:
            poly = poly_monic(poly_norm(poly), field)
            if poly_deg(poly) < 1 or not poly_is_irreducible(poly, field):
                raise ValueError("a finite place needs a monic irreducible polynomial, got %r"
                                 % (poly,))
        self.field = field
        self.poly = poly

    @classmethod
    def _proven(cls, field: Fq, poly: Poly) -> "Place":
        """The place of a monic polynomial already known to be irreducible."""
        place = cls.__new__(cls)
        place.field = field
        place.poly = poly
        return place

    @classmethod
    def infinity(cls, field: Fq) -> "Place":
        return cls(field, None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else poly_deg(self.poly)

    def sort_key(self):
        if self.poly is None:
            return (0, ())
        # high-digit-first tuples of equal length sort like integer codes
        return (poly_deg(self.poly), tuple(reversed(self.poly)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Place) and self.field.q == other.field.q
                and self.poly == other.poly)

    def __hash__(self) -> int:
        return hash((self.field.q, self.poly))

    def __lt__(self, other: "Place") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.poly is None:
            return "inf"
        return poly_str(self.poly, "t", self.field)

    def __repr__(self) -> str:
        return "Place(%s)" % self

    def residue_field(self):
        """The residue field: F_q itself at infinity, F_q[t]/(p) else."""
        if self.poly is None:
            return self.field
        return ResidueField(self.field, self.poly)


def finite_places_of_degree(F: Fq, d: int) -> List[Place]:
    """All degree-d finite places, in the canonical enumeration order."""
    return [Place._proven(F, f) for f in irreducibles_of_degree(F, d)]


class Divisor:
    """A formal integer combination of places, held as a sparse dict."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping] = None):
        self.coeffs = {P: n for P, n in (coeffs or {}).items() if n}

    @property
    def degree(self) -> int:
        return sum(n * P.degree for P, n in self.coeffs.items())

    def support(self) -> List:
        return sorted(self.coeffs, key=lambda P: P.sort_key())

    def items(self) -> List[Tuple]:
        return [(P, self.coeffs[P]) for P in self.support()]

    def get(self, place) -> int:
        return self.coeffs.get(place, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.coeffs)
        for P, n in other.coeffs.items():
            out[P] = out.get(P, 0) + n
        return Divisor(out)

    def __neg__(self) -> "Divisor":
        return Divisor({P: -n for P, n in self.coeffs.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor({P: k * n for P, n in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for P, n in self.items():
            term = "inf" if P.is_infinite else "(%s)" % P
            if abs(n) != 1:
                term = "%d*%s" % (abs(n), term)
            if not parts:
                parts.append(term if n > 0 else "-" + term)
            else:
                parts.append(("+ " if n > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "Divisor(%s)" % self


class RationalFunction:
    """A nonzero element of F_q(t) in factored form.

    The element is ``constant * prod(p ** e)`` over distinct monic
    irreducibles p with integer exponents e.  Multiplication, division,
    and powers stay in factored form; addition is deliberately absent.

    The public constructor proves every factor monic and irreducible and
    raises ValueError otherwise.  Results of arithmetic, of from_poly
    (whose factors come from poly_factor) and of function_with_divisor
    are built by ``_trusted``, which skips that check because their
    factors are irreducible by construction.
    """

    __slots__ = ("field", "constant", "factors")

    def __init__(self, field: Fq, constant: int,
                 factors: Optional[Mapping[Poly, int]] = None):
        for p, e in (factors or {}).items():
            if e and not (p and p[-1] == 1 and poly_is_irreducible(p, field)):
                raise ValueError("factors must be monic irreducibles, got %r" % (p,))
        self._fill(field, constant, factors)

    def _fill(self, field: Fq, constant: int,
              factors: Optional[Mapping[Poly, int]]) -> None:
        if constant == 0:
            raise ValueError("the zero element has no factored form")
        self.field = field
        self.constant = constant
        self.factors: Dict[Poly, int] = {p: e for p, e in (factors or {}).items() if e}

    @classmethod
    def _trusted(cls, field: Fq, constant: int,
                 factors: Optional[Mapping[Poly, int]] = None) -> "RationalFunction":
        """Build from factors already known to be monic irreducibles."""
        out = cls.__new__(cls)
        out._fill(field, constant, factors)
        return out

    @classmethod
    def one(cls, field: Fq) -> "RationalFunction":
        return cls(field, 1)

    @classmethod
    def from_poly(cls, field: Fq, f: Poly) -> "RationalFunction":
        f = poly_norm(f)
        if not f:
            raise ValueError("the zero element has no factored form")
        lc, factors = poly_factor(f, field)
        return cls._trusted(field, lc, {p: m for p, m in factors})

    @classmethod
    def parse(cls, field: Fq, s: str) -> "RationalFunction":
        """Parse an expression like ``2 * (t)^1 * (t - 1)^-1`` or ``t^2 + 2``."""
        num, den = rat_parse(s, field)
        n = num.get(0, ())
        if not n:
            raise ValueError("the zero element has no factored form: %r" % s)
        return cls.from_poly(field, n) / cls.from_poly(field, den.get(0, ()))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        fac = dict(self.factors)
        for p, e in other.factors.items():
            fac[p] = fac.get(p, 0) + e
        return RationalFunction._trusted(self.field,
                                         self.field.mul(self.constant, other.constant), fac)

    def inverse(self) -> "RationalFunction":
        return RationalFunction._trusted(self.field, self.field.inv(self.constant),
                                         {p: -e for p, e in self.factors.items()})

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int) -> "RationalFunction":
        return RationalFunction._trusted(self.field, self.field.pow(self.constant, k),
                                         {p: k * e for p, e in self.factors.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction) and self.field.q == other.field.q
                and self.constant == other.constant and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash((self.field.q, self.constant, frozenset(self.factors.items())))

    # -- orders, residues, divisors

    def ord_at(self, place: Place) -> int:
        """The valuation at a place."""
        if place.is_infinite:
            return -sum(e * poly_deg(p) for p, e in self.factors.items())
        return self.factors.get(place.poly, 0)

    def unit_residue(self, place: Place):
        """Residue of self / uniformizer**ord in the residue field.

        Uniformizers are canonical (the irreducible itself, 1/t at
        infinity), so this is well-defined and multiplicative.  At
        infinity the answer is always the constant.
        """
        if place.is_infinite:
            return self.constant
        rf = ResidueField(self.field, place.poly)
        res = rf.reduce((self.constant,))
        for p, e in self.factors.items():
            if p != place.poly:
                res = rf.mul(res, rf.pow(rf.reduce(p), e))
        return res

    def divisor(self) -> Divisor:
        coeffs = {Place._proven(self.field, p): e for p, e in self.factors.items()}
        inf = Place.infinity(self.field)
        n = self.ord_at(inf)
        if n:
            coeffs[inf] = n
        return Divisor(coeffs)

    def is_square(self) -> bool:
        """True when the element is a square in F_q(t)*."""
        if any(e % 2 for e in self.factors.values()):
            return False
        return self.field.quad_char(self.constant) == 1

    def __str__(self) -> str:
        parts = [const_str(self.constant, self.field)]
        for p in sorted(self.factors, key=lambda p: (poly_deg(p), tuple(reversed(p)))):
            parts.append("(%s)^%d" % (poly_str(p, "t", self.field), self.factors[p]))
        return " * ".join(parts)

    def __repr__(self) -> str:
        return "RationalFunction(%s)" % self


class ProjectiveLine:
    """The projective line over a finite field, as a divisor-theory backend.

    The divisor class group is Z via the degree, so principality and
    2-divisibility are degree conditions, and the subgroup generated by
    the classes of a set of places is gcd-of-degrees Z.
    """

    backend = "projective_line"  # recorded in certificates

    def __init__(self, field: Fq):
        self.field = field
        self.infinity = Place.infinity(field)
        self._of_degree: Dict[int, Tuple[Place, ...]] = {}

    def __repr__(self) -> str:
        return "ProjectiveLine(GF(%d))" % self.field.q

    # -- places

    def places_of_degree(self, d: int) -> List[Place]:
        """All places of degree d, the infinite one first.

        Each degree is enumerated once per model; every call returns a
        fresh list, so callers may mutate it.
        """
        got = self._of_degree.get(d)
        if got is None:
            out = [self.infinity] if d == 1 else []
            out.extend(finite_places_of_degree(self.field, d))
            got = self._of_degree[d] = tuple(out)
        return list(got)

    def parse_place(self, s: str) -> Place:
        """Parse 'inf' or the text of an irreducible polynomial in t."""
        text = s.strip()
        if text == "inf":
            return self.infinity
        return Place(self.field, poly_parse(text, self.field))

    # -- elements

    def one(self) -> RationalFunction:
        return RationalFunction.one(self.field)

    def constant(self, c: int) -> RationalFunction:
        return RationalFunction(self.field, c)

    def from_poly(self, f: Poly) -> RationalFunction:
        return RationalFunction.from_poly(self.field, f)

    def parse(self, s: str) -> RationalFunction:
        return RationalFunction.parse(self.field, s)

    # -- divisor class group facts

    def is_principal(self, D: Divisor) -> bool:
        return D.degree == 0

    def two_divisible(self, D: Divisor) -> bool:
        """Whether the class of D lies in 2 Pic."""
        return D.degree % 2 == 0

    def pic_mod2(self, place: Place) -> int:
        """F_2 coordinates of the class of the place in Pic/2Pic = Z/2.

        Pic is Z by the degree, so the only coordinate is the degree
        parity.
        """
        return place.degree & 1

    def halve_in_pic(self, D: Divisor) -> Optional[Divisor]:
        """Some divisor E with 2E ~ D, or None when the class is odd."""
        if D.degree % 2:
            return None
        return Divisor({self.infinity: D.degree // 2})

    def pic_zero_two_rank(self) -> int:
        """F_2-rank of the degree-zero class group (trivial here)."""
        return 0

    def two_torsion_witnesses(self) -> List[RationalFunction]:
        """Functions whose divisors are twice a 2-torsion class (none here)."""
        return []

    def function_with_divisor(self, D: Divisor) -> RationalFunction:
        """The constant-1 function with the given principal divisor."""
        if D.degree != 0:
            raise ValueError("divisor of degree %d is not principal on the line" % D.degree)
        fac = {P.poly: n for P, n in D.coeffs.items() if not P.is_infinite}
        h = RationalFunction._trusted(self.field, 1, fac)
        assert h.divisor() == D
        return h
