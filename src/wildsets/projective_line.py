"""Places and factored functions on the projective line.

The function field of the projective line over F_q is the rational
function field F_q(t).  Its places are the monic irreducible polynomials
in t together with one degree-one place at infinity.  Nonzero functions
are kept in factored form (function_field) -- a constant times a product
of powers of monic irreducibles -- so orders and residues at every place
are read off exactly, with no refactoring and no rounding anywhere.

Canonical uniformizers, fixed once and for all:

* at a finite place, the monic irreducible polynomial itself;
* at infinity, 1/t.

With these choices the unit-part residue of a factored function at
infinity is simply its constant, because every monic factor tends to 1
against the matching power of t.  Only the quadratic character of a
residue is ever needed; at a finite place it is a product of Jacobi
symbols of the factors, and the residue itself is never formed.

The place and model bases of function_field hold the plumbing.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .base_algebra import (
    Fq,
    Poly,
    _quoted,
    irreducibles_of_degree,
    poly_deg,
    poly_is_irreducible,
    poly_jacobi,
    poly_monic,
    poly_norm,
    poly_parse,
    poly_str,
)
from .function_field import Divisor, FactoredFunction, Model, ModelPlace, base_fault


class Place(ModelPlace):
    """A place of F_q(t): a monic irreducible polynomial, or infinity.

    Places compare and hash by their line's key and their polynomial
    (None for infinity), and sort with infinity first, then by degree,
    then in the same order the irreducible-enumeration produces them.

    ``Place(line, poly)`` makes the polynomial monic and proves it
    irreducible with ``poly_is_irreducible`` (the first block of the
    distinct-degree stage), refusing a constant or a reducible one by
    that name; text goes through the same check via
    ``ProjectiveLine.parse_place``.  Inside the package, polynomials
    that are irreducible by construction -- enumerated irreducibles,
    factors from poly_factor, factors of a RationalFunction -- become
    places through ``_proven``, which skips the test.
    """

    __slots__ = ("model", "poly")

    def __init__(self, model: "ProjectiveLine", poly: Optional[Poly] = None):
        if poly is not None:
            field = model.field
            given = poly_norm(poly)
            poly = poly_monic(given, field)
            fault = base_fault(poly, field)
            if fault:
                raise ValueError("a finite place needs an irreducible "
                                 "polynomial, but %s is %s"
                                 % (_quoted(poly_str(given, "t", field)), fault))
        self.model = model
        self.poly = poly

    @classmethod
    def _proven(cls, model: "ProjectiveLine", poly: Poly) -> "Place":
        """The place of a monic polynomial already known to be irreducible."""
        place = cls.__new__(cls)
        place.model = model
        place.poly = poly
        return place

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def base(self) -> Optional[Poly]:
        return self.poly

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else poly_deg(self.poly)

    def sort_key(self):
        if self.poly is None:
            return (0, ())
        # high-digit-first tuples of equal length sort like integer codes
        return (poly_deg(self.poly), tuple(reversed(self.poly)))

    def _identity(self):
        return (self.model.key, self.poly)

    def __str__(self) -> str:
        if self.poly is None:
            return "inf"
        return poly_str(self.poly, "t", self.field)


def finite_places_of_degree(line: "ProjectiveLine", d: int) -> List[Place]:
    """All degree-d finite places, in the canonical enumeration order."""
    return [Place._proven(line, f) for f in irreducibles_of_degree(line.field, d)]


class RationalFunction(FactoredFunction):
    """A nonzero element of F_q(t) in factored form.

    The atoms are distinct monic irreducibles p in t; at a finite place
    P each factor other than P contributes its Jacobi symbol (p/P) to
    the residue character.
    """

    __slots__ = ()

    _atom_str = staticmethod(lambda p, F: poly_str(p, "t", F))
    _atom_sort_key = staticmethod(lambda p: (poly_deg(p), tuple(reversed(p))))
    _poly_atom = staticmethod(lambda p: p)

    @staticmethod
    def _atom_char(p: Poly, place: Place, line: "ProjectiveLine") -> int:
        """The character of p's residue: 1 at infinity and at p itself."""
        m = place.poly
        if m is None or p == m:
            return 1
        return poly_jacobi(p, m, line.field)

    @staticmethod
    def _check_atom(p: Poly, F: Fq) -> None:
        if not (p and p[-1] == 1 and poly_is_irreducible(p, F)):
            raise ValueError("factors must be monic irreducibles, got %r" % (p,))

    @classmethod
    def _from_half(cls, line: "ProjectiveLine", half) -> Optional["RationalFunction"]:
        """The half's polynomial in t, factored; None where it is 0."""
        return cls.from_poly(line, half[0]) if half else None

    def ord_at(self, place: Place) -> int:
        """The valuation at a place: an atom has order 1 at its own place
        only, so a lookup replaces the sum over the atoms."""
        if place.poly is None:
            return -sum(e * poly_deg(p) for p, e in self.factors.items())
        return self.factors.get(place.poly, 0)

    def divisor(self) -> Divisor:
        return self._kept_divisor().copy()

    def _atoms_divisor(self) -> Divisor:
        line = self.model
        coeffs = {Place._proven(line, p): e for p, e in self.factors.items()}
        n = self.ord_at(line.infinity)
        if n:
            coeffs[line.infinity] = n
        return Divisor(coeffs)

    def is_square(self) -> bool:
        """True when the element is a square in F_q(t)*."""
        if any(e % 2 for e in self.factors.values()):
            return False
        return self.model.field.quad_char(self.constant) == 1


class ProjectiveLine(Model):
    """The projective line over a finite field, as a divisor-theory backend.

    The divisor class group is Z via the degree, so principality and
    2-divisibility are degree conditions, and the subgroup generated by
    the classes of a set of places is gcd-of-degrees Z.
    """

    backend = "projective_line"  # recorded in certificates
    _function = RationalFunction

    def __init__(self, field: Fq):
        super().__init__(field, field.q)
        self.infinity = Place(self, None)

    def __repr__(self) -> str:
        return "ProjectiveLine(GF(%d))" % self.field.q

    # -- places

    def places_of_degree(self, d: int) -> List[Place]:
        """All places of degree d, the infinite one first, in a fresh list."""
        return self._places_of_degree(d, finite_places_of_degree)

    def parse_place(self, s: str) -> Place:
        """Parse 'inf' or the text of an irreducible polynomial in t."""
        text = s.strip()
        if text == "inf":
            return self.infinity
        return Place(self, poly_parse(text, self.field))

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
        d = D.degree
        if d % 2:
            return None
        return Divisor({self.infinity: d // 2})

    def pic_zero_two_rank(self) -> int:
        """F_2-rank of the degree-zero class group (trivial here)."""
        return 0

    def punctured_pic_two_rank(self, S) -> int:
        """F_2-rank of Pic modulo the classes of S, without pic_mod2.

        Removing S leaves a cyclic group of order the gcd of the degrees.
        """
        g = 0
        for P in S:
            g = math.gcd(g, P.degree)
        return 1 if g % 2 == 0 else 0

    def two_torsion_witnesses(self) -> List[RationalFunction]:
        """Functions whose divisors are twice a 2-torsion class (none here)."""
        return []

    def function_with_divisor(self, D: Divisor) -> RationalFunction:
        """The constant-1 function with the given principal divisor."""
        if D.degree != 0:
            raise ValueError("divisor of degree %d is not principal on the line" % D.degree)
        fac = {P.poly: n for P, n in D.coeffs.items() if not P.is_infinite}
        h = RationalFunction._trusted(self, 1, fac)
        assert h.divisor() == D
        return h
