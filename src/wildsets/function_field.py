"""Divisors and factored functions, shared by both backends.

A nonzero function is kept as a constant times a product of integer
powers of atoms, irreducible pieces whose divisor and residue character
at every place the backend knows.  So the divisor of the whole function
is the sum of e * div(atom), its order at a place is read off that
divisor, and, since a character ignores squares, its residue character
is chi(c)^(deg P) times the characters of the atoms with odd exponent.
Places and functions belong to a model, whose ``key`` is its identity:
they compare and hash through it.

Text has one route in, ``FactoredFunction.parse``: the expression
parser hands back the product at the top of the text factor by factor,
and the backend factors the numerator and the denominator of each
factor.  A product is never multiplied out to be factored again, so
``parse`` undoes ``str`` on both backends, pair atoms included.

A function never changes once built, so it computes its divisor on the
first call of ``divisor()`` and keeps it; every call hands out a fresh
copy, which the caller may change freely.

``Model`` and ``ModelPlace`` are the bases of each backend's model and
place classes: they hold the plumbing both backends share, and
``Model``'s docstring is the contract the upper layers rely on.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from .base_algebra import (Poly, _quoted, _RatParser, const_str, poly_deg,
                           poly_factor, poly_is_irreducible, poly_norm)


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

    def copy(self) -> "Divisor":
        return Divisor._of(dict(self.coeffs))

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
    static functions: ``_atom_char`` (of atom, place, model),
    ``_check_atom`` and ``_atom_str`` (of atom, field), ``_atom_sort_key``,
    and ``_poly_atom``, the atom of a monic irreducible polynomial in t;
    ``_allow_y``, whether texts may name y; ``_from_half`` (of model and
    a polynomial as the expression parser gives it, a dict {y_degree:
    coefficient polynomial}), its factored form, or None where it
    vanishes on the model.  Its ``_atoms_divisor()`` sums the atoms'
    divisors, and its ``divisor()`` returns a copy of ``_kept_divisor()``,
    which computes ``_atoms_divisor()`` on first use and keeps it;
    ``ord_at`` reads the kept divisor's coefficients.  A subclass whose
    atoms each have order 1 at one place may replace ord_at by a lookup
    instead.
    """

    __slots__ = ("model", "constant", "factors", "_divisor")
    _allow_y = False

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
        self._divisor: Optional[Divisor] = None

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
        if len(f) == 1:
            return cls._trusted(model, f[0])
        lc, factors = poly_factor(f, model.field)
        return cls._trusted(model, lc, {cls._poly_atom(p): m for p, m in factors})

    @classmethod
    def parse(cls, model, s: str, atoms: Optional[Dict] = None):
        """Parse a function from text.

        The expression parser hands back the product at the top of the
        text as (base, exponent) factors; the backend's ``_from_half``
        factors the numerator and the denominator of each base.  So a
        product stays factored as written, and ``parse(str(h)) == h``.

        ``atoms`` is a memo shared by the calls of one certificate.  It
        maps each text s read, as the key (s,), to its function; the
        parser's groups by their texts to their values; and each half by
        its key (a polynomial in t by its tuple) to its factored form,
        or None where it vanishes.  A monic irreducible entered as True,
        as a place's base is, stands for its own atom unchecked.
        """
        memo = {} if atoms is None else atoms
        got = memo.get((s,))
        if got is not None:
            return got
        F = model.field
        const, powers, zeros = 1, {}, []
        for base, e in _RatParser(s, F, cls._allow_y, memo).parse():
            if not e:
                continue
            for half, k in zip(base, (e, -e)):
                h = cls._half(model, half, memo)
                if h is None:
                    zeros.append(k)
                    continue
                const = F.mul(const, F.pow(h.constant, k))
                for atom, n in h.factors.items():
                    powers[atom] = powers.get(atom, 0) + k * n
        # as for the fraction multiplied out: its denominator first
        if any(k < 0 for k in zeros):
            raise ValueError("denominator vanishes on the curve: %s" % _quoted(s))
        if zeros:
            raise ValueError("the zero element has no factored form: %s" % _quoted(s))
        got = memo[(s,)] = cls._trusted(model, const, powers)
        return got

    @classmethod
    def _half(cls, model, half: Dict, memo: Dict):
        """``_from_half`` of one half of a base, once per memo."""
        key = half[0] if len(half) == 1 and 0 in half else tuple(sorted(half.items()))
        got = memo.get(key)
        if got is True:
            got = memo[key] = cls._trusted(model, 1, {cls._poly_atom(key): 1})
        elif key not in memo:
            got = memo[key] = cls._from_half(model, half)
        return got

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

    def _kept_divisor(self) -> Divisor:
        """The divisor, computed once and shared: read it, never change it."""
        D = self._divisor
        if D is None:
            D = self._divisor = self._atoms_divisor()
        return D

    def ord_at(self, place) -> int:
        """The valuation at a place: its coefficient in the divisor."""
        return self._kept_divisor().coeffs.get(place, 0)

    def residue_char(self, place, atom_char=None) -> int:
        """The quadratic character (+1 or -1) of the unit-part residue.

        ``atom_char`` stands in for ``_atom_char`` (same arguments), so a
        caller reading many functions at one place can pass a memo.
        """
        model = self.model
        atom_char = atom_char or self._atom_char
        sign = model.field.quad_char(self.constant) if place.degree & 1 else 1
        for atom, e in self.factors.items():
            if e & 1:
                sign *= atom_char(atom, place, model)
        return sign

    def __str__(self) -> str:
        F = self.model.field
        parts = [const_str(self.constant, F)]
        for atom in sorted(self.factors, key=self._atom_sort_key):
            parts.append("(%s)^%d" % (self._atom_str(atom, F), self.factors[atom]))
        return " * ".join(parts)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self)


def base_fault(p: Poly, field) -> Optional[str]:
    """Why a monic polynomial in t is no base of a finite place: "constant"
    or "reducible"; None when it is irreducible."""
    if poly_deg(p) < 1:
        return "constant"
    return None if poly_is_irreducible(p, field) else "reducible"


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
