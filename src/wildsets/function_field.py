"""Divisors and factored functions, shared by both backends.

A nonzero function is kept as a constant times a product of integer
powers of atoms, irreducible pieces whose order and residue character at
every place the backend knows in closed form.  So the order of the whole
function is the sum of e * ord(atom), and, since a character ignores
squares, its residue character is chi(c)^(deg P) times the characters of
the atoms with odd exponent.  Places and functions belong to a model,
whose ``key`` is its identity: they compare and hash through it.

``Model`` and ``ModelPlace`` are the bases of each backend's model and
place classes: they hold the plumbing both backends share, and
``Model``'s docstring is the contract the upper layers rely on.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

from .base_algebra import (MAX_PARSED_DEGREE, Poly, const_str, poly_factor,
                           poly_norm, poly_parse)

# one factor of the printed form: a parenthesized atom and its exponent
_POWER = re.compile(r"(\(.*\))\^(-?[0-9]+)")


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

    @classmethod
    def _of(cls, coeffs: Dict) -> "Divisor":
        """Wrap a fresh dict that already holds no zero coefficient."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def _plus(self, other: "Divisor", sign: int) -> "Divisor":
        out = dict(self.coeffs)
        for P, n in other.coeffs.items():
            m = out.get(P, 0) + sign * n
            if m:
                out[P] = m
            else:
                out.pop(P, None)
        return Divisor._of(out)

    def __add__(self, other: "Divisor") -> "Divisor":
        return self._plus(other, 1)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self._plus(other, -1)

    def __neg__(self) -> "Divisor":
        return Divisor._of({P: -n for P, n in self.coeffs.items()})

    def __rmul__(self, k: int) -> "Divisor":
        if not k:
            return Divisor()
        return Divisor._of({P: k * n for P, n in self.coeffs.items()})

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


class FactoredFunction:
    """A nonzero function ``constant * prod(atom ** e)`` on one model.

    Multiplication, division and powers stay in factored form; addition
    is deliberately absent.  Equality is equality of the factored form.
    The public constructor checks every atom and raises ValueError on a
    bad one; ``_trusted`` skips the check for atoms that hold by
    construction.  A backend's subclass gives the rules for one atom as
    static functions: ``_atom_ord`` and ``_atom_char`` (of atom, place,
    model), ``_check_atom`` and ``_atom_str`` (of atom, field),
    ``_atom_sort_key``, and ``_poly_atom``, the atom of a monic
    irreducible polynomial in t; and ``_parse_expression`` (of model,
    text), which reads any expression the backend accepts.  A subclass
    whose atoms each have order 1 at one place may replace ord_at by a
    lookup instead.
    """

    __slots__ = ("model", "constant", "factors")

    def __init__(self, model, constant: int, factors: Optional[Mapping] = None):
        for atom, e in (factors or {}).items():
            if e:
                self._check_atom(atom, model.field)
        self._fill(model, constant, factors)

    def _fill(self, model, constant: int, factors: Optional[Mapping]) -> None:
        if constant == 0:
            raise ValueError("the zero element has no factored form")
        self.model = model
        self.constant = constant
        self.factors: Dict = {atom: e for atom, e in (factors or {}).items() if e}

    @classmethod
    def _trusted(cls, model, constant: int, factors: Optional[Mapping] = None):
        """Build from atoms already known to satisfy the constructor's checks."""
        out = cls.__new__(cls)
        out._fill(model, constant, factors)
        return out

    @classmethod
    def one(cls, model):
        return cls(model, 1)

    @classmethod
    def from_poly(cls, model, f: Poly):
        f = poly_norm(f)
        if not f:
            raise ValueError("the zero element has no factored form")
        lc, factors = poly_factor(f, model.field)
        return cls._trusted(model, lc, {cls._poly_atom(p): m for p, m in factors})

    @classmethod
    def parse(cls, model, s: str, atoms: Optional[Dict] = None):
        """Parse a function from text.

        Text in the form ``str`` prints for polynomial atoms -- a nonzero
        constant, then ``(atom)^e`` factors joined by `` * `` -- is read
        factor by factor: each atom text is parsed, and each atom
        checked, once for all calls that share the dict ``atoms``.  Any
        other text, and such text that fails a check, goes to the
        backend's ``_parse_expression``, which multiplies the whole
        expression out and factors it, and raises its errors.
        """
        got = cls._read_printed(model, s, {} if atoms is None else atoms)
        return cls._parse_expression(model, s) if got is None else got

    @classmethod
    def _read_printed(cls, model, s: str, atoms: Dict):
        """The function s prints, or None where s is not read here.

        ``atoms`` maps an atom text to its polynomial, or to None when
        the text is no polynomial, and a polynomial to whether it passed
        the atom check.  Every piece is a single parenthesized group or
        a literal, so the expression parser reads s as the same product;
        with the total degree within MAX_PARSED_DEGREE it accepts s and
        gives this function.
        """
        if "y" in s:
            return None
        F = model.field
        const, *pieces = s.split(" * ")
        c = _read_poly(const, F)
        if c is None or len(c) != 1:
            return None
        powers: Dict[Poly, int] = {}
        degree = 0
        for piece in pieces:
            match = _POWER.fullmatch(piece)
            if match is None:
                return None
            text = match.group(1)
            try:
                e = int(match.group(2))
            except ValueError:  # more digits than int() converts
                return None
            if text not in atoms:
                atoms[text] = _read_poly(text, F)
            p = atoms[text]
            if p is None:
                return None
            degree += abs(e) * (len(p) - 1)
            powers[p] = powers.get(p, 0) + e
        if degree > MAX_PARSED_DEGREE:
            return None
        for p in powers:
            if p not in atoms:
                try:
                    cls._check_atom(cls._poly_atom(p), F)
                except ValueError:
                    atoms[p] = False
                else:
                    atoms[p] = True
            if not atoms[p]:
                return None
        return cls._trusted(model, c[0],
                            {cls._poly_atom(p): e for p, e in powers.items()})

    @property
    def field(self):
        return self.model.field

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        model = self.model
        if other.model is not model and other.model.key != model.key:
            raise ValueError("cannot multiply functions on different models")
        fac = dict(self.factors)
        for atom, e in other.factors.items():
            fac[atom] = fac.get(atom, 0) + e
        return self._trusted(model, model.field.mul(self.constant, other.constant), fac)

    def inverse(self):
        return self._trusted(self.model, self.model.field.inv(self.constant),
                             {atom: -e for atom, e in self.factors.items()})

    def __truediv__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        return self._trusted(self.model, self.model.field.pow(self.constant, k),
                             {atom: k * e for atom, e in self.factors.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.model.key == other.model.key
                and self.constant == other.constant and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash((self.model.key, self.constant, frozenset(self.factors.items())))

    def ord_at(self, place) -> int:
        """The valuation at a place."""
        model, atom_ord = self.model, self._atom_ord
        return sum(e * atom_ord(atom, place, model) for atom, e in self.factors.items())

    def residue_char(self, place) -> int:
        """The quadratic character (+1 or -1) of the unit-part residue."""
        model = self.model
        sign = model.field.quad_char(self.constant) if place.degree & 1 else 1
        for atom, e in self.factors.items():
            if e & 1:
                sign *= self._atom_char(atom, place, model)
        return sign

    def __str__(self) -> str:
        F = self.model.field
        parts = [const_str(self.constant, F)]
        for atom in sorted(self.factors, key=self._atom_sort_key):
            parts.append("(%s)^%d" % (self._atom_str(atom, F), self.factors[atom]))
        return " * ".join(parts)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


def _grouped(text: str) -> bool:
    """Whether text is one parenthesized group: its first '(' closes last."""
    if not text.startswith("("):
        return False
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if not depth:
                return i == len(text) - 1
    return False


def _read_poly(text: str, F) -> Optional[Poly]:
    """The polynomial a literal or parenthesized text denotes, or None."""
    if not (text.isascii() and text.isdigit() or _grouped(text)):
        return None
    try:
        return poly_parse(text, F)
    except ValueError:
        return None


class ModelPlace:
    """What every place shares: field, identity, order and printing.

    A backend's place sets ``model`` and gives ``degree``, ``is_infinite``,
    ``base`` (the monic irreducible of F_q[t] under a finite place, None
    at infinity), ``sort_key``, ``__str__`` and ``_identity``, the tuple
    of its model's key and its data that it compares and hashes by.  A
    place is never changed once built, so its hash is computed on first
    use and kept.
    """

    __slots__ = ("_hash",)

    @property
    def field(self):
        return self.model.field

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._identity() == other._identity()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._identity())
            return self._hash

    def __lt__(self, other) -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


class Model:
    """A curve over F_q as a divisor-theory backend: the contract.

    The layers above the backends use a model through these names only,
    and both backends provide each of them:

    ``backend``, ``key``, ``field``, ``infinity``: the name recorded in
        certificates, the model's identity, F_q, the place at infinity;
    ``places_of_degree(d)``, ``parse_place(s)``: places, infinity first;
    ``pic_mod2(P)``: the class of P in Pic/2Pic as a bitmask, bit 0 the
        degree parity; ``two_divisible(D)``: whether D lies in 2 Pic;
    ``halve_in_pic(D)``: some E with 2E ~ D, or None;
    ``pic_zero_two_rank()``, ``punctured_pic_two_rank(S)``: F_2-ranks of
        the 2-torsion of Pic^0 and of Pic modulo the classes of S;
    ``two_torsion_witnesses()``: functions whose divisors are twice
        independent 2-torsion classes;
    ``function_with_divisor(D)``: a function with divisor exactly D;
    ``one()``, ``constant(c)``, ``from_poly(f)``, ``parse(s)``: functions
        (``parse`` also takes a memo of atoms, see FactoredFunction.parse);
    ``header()``, ``from_header(field, data)``: the certificate fields
        that name the model, and back.

    The base holds the last two rows and the per-degree place cache.  A
    backend sets ``backend`` and ``_function``, its FactoredFunction
    subclass, and ``infinity``; its ``places_of_degree`` hands its
    enumeration of finite places to ``_places_of_degree``.
    """

    def __init__(self, field, key):
        self.field = field
        self.key = key  # the model's identity
        self._of_degree: Dict[int, Tuple] = {}

    def _places_of_degree(self, d: int, finite) -> List:
        """All places of degree d, infinity first, then ``finite(self, d)``.

        Each degree is enumerated whole, once per model, from the sieve
        ``irreducibles_of_degree`` (on the curve, of degrees d and d/2);
        every call returns a fresh list, so callers may mutate it.
        """
        got = self._of_degree.get(d)
        if got is None:
            out = [self.infinity] if d == 1 else []
            out.extend(finite(self, d))
            got = self._of_degree[d] = tuple(out)
        return list(got)

    def one(self):
        return self._function.one(self)

    def constant(self, c: int):
        return self._function(self, c)

    def from_poly(self, f: Poly):
        return self._function.from_poly(self, f)

    def parse(self, s: str, atoms: Optional[Dict] = None):
        """A function from text; ``atoms`` is FactoredFunction.parse's memo."""
        return self._function.parse(self, s, atoms)

    def header(self) -> dict:
        """The certificate fields that name this model."""
        return {"backend": self.backend, "q": self.field.q}

    @classmethod
    def from_header(cls, field, data: dict):
        return cls(field)
