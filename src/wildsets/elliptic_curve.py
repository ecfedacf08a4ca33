"""Places, divisors, and factored functions on an odd elliptic model.

The second backend is the function field F_q(t)[y] / (y^2 - f(t)) for a
squarefree cubic f over an odd finite field.  Because f has odd degree
there is a single place at infinity, ramified of degree one, and every
finite place sits over a monic irreducible p in t in one of three ways
decided by the quadratic character of f mod p:

* split    -- f mod p a nonzero square; two places, one per square root;
* inert    -- f mod p a nonsquare; one place of doubled degree;
* ramified -- p divides f; one place where y itself vanishes.

Canonical uniformizers, fixed once and for all: the base irreducible p
at split and inert places, y at ramified places, and t/y at infinity.

Nonzero functions are kept in factored form: a constant times a product
of monic irreducibles in t and of primitive pairs a + b*y (b monic,
gcd(a, b) = 1), with integer exponents.  Residue characters (quadratic
characters of the unit-part residues, by Jacobi symbols in F_q[t]) come
factor by factor from closed forms against the uniformizers above, and
orders are read off divisors; nothing is ever expanded, lifted, or
approximated.  The only identity used beyond bookkeeping is
(a + b*y)(a - b*y) = a^2 - b^2 f, which turns every question about a pair
into a question about polynomials.  The divisor of a pair comes from
factoring that norm, so each model computes it once per pair and keeps
it: the same chord, tangent and peel lines recur in every halving
witness.

The divisor class group is Z (+) E(F_q): a divisor class is its degree
together with the sum, under the chord-and-tangent law, of the Galois
orbits of the points below its places.  That finite group drives the
principality test, 2-divisibility, halving, and the construction of a
function with a prescribed principal divisor.

The place and model bases of function_field hold the plumbing; the
certificate header adds the curve to theirs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .base_algebra import (
    Fq,
    Poly,
    ResidueField,
    _quoted,
    irreducibles_of_degree,
    poly_add,
    poly_deg,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_jacobi,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_neg,
    poly_norm,
    poly_parse,
    poly_scalar,
    poly_str,
    poly_strip,
    poly_sub,
    poly_to_int,
)
from .errors import HypothesisError
from .function_field import Divisor, FactoredFunction, Model, ModelPlace, base_fault

Point = Optional[Tuple[int, int]]  # None is the point at infinity

_KINDS = ("infinite", "split", "inert", "ramified")


def _point_key(P: Point):
    return (0, 0, 0) if P is None else (1, P[0], P[1])


def _point_add(K, zero, f4, P, Q):
    """Chord-and-tangent sum on y^2 = a3 x^3 + a2 x^2 + a1 x + a0.

    Works over any field given as an (add, sub, neg, mul, inv)-object K
    with its zero element; f4 = (a0, a1, a2, a3) are coefficients in K
    and points are coordinate pairs in K (or None).  The multiples 2 and
    3 in the tangent slope are spelled out as sums so no embedding of
    the integers is needed.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    a0, a1, a2, a3 = f4
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if K.add(y1, y2) == zero:
            return None
        # doubling a point with y != 0: slope = f'(x) / 2y
        t2 = K.mul(a2, x1)
        t3 = K.mul(a3, K.mul(x1, x1))
        num = K.add(a1, K.add(K.add(t2, t2), K.add(t3, K.add(t3, t3))))
        lam = K.mul(num, K.inv(K.add(y1, y1)))
    else:
        lam = K.mul(K.sub(y2, y1), K.inv(K.sub(x2, x1)))
    x3 = K.sub(K.sub(K.mul(K.sub(K.mul(lam, lam), a2), K.inv(a3)), x1), x2)
    y3 = K.neg(K.add(y1, K.mul(lam, K.sub(x3, x1))))
    return (x3, y3)


class CurvePlace(ModelPlace):
    """A place of the elliptic function field.

    Finite places carry their base irreducible and kind; split places
    also carry the branch, i.e. the square root of f mod p that y
    reduces to.  The infinite place has no base.  Places compare by
    (model key, kind, base, branch) and sort with infinity first, then
    by degree and base.
    """

    __slots__ = ("model", "kind", "base", "branch")

    def __init__(self, model: "EllipticModel", kind: str,
                 base: Optional[Poly] = None, branch: Optional[Poly] = None):
        assert kind in _KINDS
        assert (base is None) == (kind == "infinite")
        assert (branch is not None) == (kind == "split")
        self.model = model
        self.kind = kind
        self.base = base
        self.branch = branch

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    @property
    def degree(self) -> int:
        if self.kind == "infinite":
            return 1
        d = poly_deg(self.base)
        return 2 * d if self.kind == "inert" else d

    def sort_key(self):
        if self.kind == "infinite":
            return (0, 0, (), ())
        return (1, self.degree, tuple(reversed(self.base)),
                tuple(reversed(self.branch or ())))

    def _identity(self):
        return (self.model.key, self.kind, self.base, self.branch)

    def __str__(self) -> str:
        if self.kind == "infinite":
            return "inf"
        base = poly_str(self.base, "t", self.field)
        if self.kind == "split":
            return "(%s; split; %s)" % (base, poly_str(self.branch, "t", self.field))
        return "(%s; %s)" % (base, self.kind)


def _reduce_y(ydict, model: "EllipticModel"):
    """Fold y^k down to y^(k mod 2) using y^2 = f."""
    F = model.field
    out: Dict[int, Poly] = {}
    for k, c in ydict.items():
        for _ in range(k // 2):
            c = poly_mul(c, model.f, F)
        s = poly_add(out.get(k % 2, ()), c, F)
        if s:
            out[k % 2] = s
        else:
            out.pop(k % 2, None)
    return out


def _pair_norm(a: Poly, b: Poly, model: "EllipticModel") -> Poly:
    """(a + b*y)(a - b*y) = a^2 - b^2 f, the norm down to F_q(t)."""
    F = model.field
    return poly_sub(poly_mul(a, a, F),
                    poly_mul(poly_mul(b, b, F), model.f, F), F)


def _atom_char(atom, place: CurvePlace, model: "EllipticModel") -> int:
    """The quadratic character of an atom's unit-part residue at a place.

    A character ignores inverses and sees exponents only mod 2, so each
    case takes Jacobi symbols of the polynomials whose products and
    quotients make up the residue against the canonical uniformizer.
    """
    kind, data = atom
    F = model.field
    if place.kind == "infinite":
        # the residue is a leading coefficient over a power of lc(f)
        lcf = model.f[-1]
        if kind == "poly":
            c, n = 1, poly_deg(data)
        else:
            a, b = data
            if a and 2 * poly_deg(a) > 2 * poly_deg(b) + 3:
                c, n = a[-1], poly_deg(a)
            else:
                c, n = b[-1], poly_deg(b) + 1
        return F.quad_char(F.mul(c, lcf) if n & 1 else c)
    p = place.base
    if place.kind == "inert":
        # every element of F_Q is a square in F_(Q^2), and a + b*y is a
        # square there exactly when its norm a^2 - b^2 f is one in F_Q
        if kind == "poly":
            return 1
        return poly_jacobi(_pair_norm(data[0], data[1], model), p, F)
    if kind == "poly":
        if data != p:
            return poly_jacobi(data, p, F)
        if place.kind == "split":
            return 1
        # ramified base: p = y^2 / (f/p)
        return poly_jacobi(poly_divmod(model.f, p, F)[0], p, F)
    a, b = data
    if place.kind == "ramified":
        # p divides at most one half of a primitive pair; the residue is
        # the other half
        return poly_jacobi(a, p, F) or poly_jacobi(b, p, F)
    # split
    chi = poly_jacobi(poly_add(a, poly_mul(b, place.branch, F), F), p, F)
    if chi:
        return chi
    # the residue of the norm splits across the two branches
    n = poly_strip(_pair_norm(a, b, model), p, F)[1]
    conj = poly_sub(a, poly_mul(b, place.branch, F), F)
    return poly_jacobi(n, p, F) * poly_jacobi(conj, p, F)


def _atom_sort_key(atom):
    kind, data = atom
    if kind == "poly":
        return (0, poly_deg(data), tuple(reversed(data)), ())
    a, b = data
    return (1, poly_deg(b), tuple(reversed(b)), tuple(reversed(a)))


class CurveFunction(FactoredFunction):
    """A nonzero function on the curve in factored form.

    An atom is either ("poly", p) for a monic irreducible p in t, or
    ("lin", (a, b)) for a primitive pair a + b*y with b monic and
    gcd(a, b) = 1.  Products merge exponents, so equality is equality of
    the factored form: the same function assembled from different
    factorizations may compare unequal, while orders, residues, and
    divisors always agree.

    The public constructor checks every atom -- polynomial factors monic
    and irreducible, pairs primitive with a monic y-coefficient.
    """

    __slots__ = ()

    _atom_char = staticmethod(_atom_char)
    _atom_sort_key = staticmethod(_atom_sort_key)
    _poly_atom = staticmethod(lambda p: ("poly", p))
    _allow_y = True

    @staticmethod
    def _atom_str(atom, F: Fq) -> str:
        kind, data = atom
        if kind == "poly":
            return poly_str(data, "t", F)
        a, b = data
        ys = "y" if b == (1,) else "(%s)y" % poly_str(b, "t", F)
        return "%s + %s" % (poly_str(a, "t", F), ys) if a else ys

    @staticmethod
    def _check_atom(atom, F: Fq) -> None:
        kind, data = atom
        if kind == "poly":
            if not (data and data[-1] == 1 and poly_is_irreducible(data, F)):
                raise ValueError("polynomial factors must be monic "
                                 "irreducibles, got %r" % (data,))
        else:
            a, b = data
            if not (b and b[-1] == 1 and poly_gcd(a, b, F) == (1,)):
                raise ValueError("pairs must be primitive with a monic "
                                 "y-coefficient, got %r" % (data,))

    @classmethod
    def from_pair(cls, model: "EllipticModel", a: Poly, b: Poly) -> "CurveFunction":
        """The function a + b*y, normalized into factored form."""
        F = model.field
        a, b = poly_norm(a), poly_norm(b)
        if not b:
            return cls.from_poly(model, a)
        g = poly_gcd(a, b, F)
        a1, _ = poly_divmod(a, g, F)
        b1, _ = poly_divmod(b, g, F)
        c = b1[-1]
        ci = F.inv(c)
        pair = (poly_scalar(a1, ci, F), poly_scalar(b1, ci, F))
        out = cls.from_poly(model, g)
        return out * cls._trusted(model, c, {("lin", pair): 1})

    @classmethod
    def _from_half(cls, model: "EllipticModel", half) -> Optional["CurveFunction"]:
        """The half with y^2 folded to f, as a + b*y; None where that is 0."""
        r = _reduce_y(half, model)
        return cls.from_pair(model, r.get(0, ()), r.get(1, ())) if r else None

    def divisor(self) -> Divisor:
        return self._kept_divisor().copy()

    def _atoms_divisor(self) -> Divisor:
        model = self.model
        coeffs: Dict[CurvePlace, int] = {}
        for atom, e in self.factors.items():
            for P, n in model._atom_divisor(atom):
                coeffs[P] = coeffs.get(P, 0) + e * n
        D = Divisor(coeffs)
        assert D.degree == 0
        return D

    def is_square(self) -> bool:
        """True when the element is a square in the function field.

        The divisor must be twice a principal divisor; dividing by the
        square of a function with that half leaves a constant, and the
        constant decides the question.  Exact, unlike any test by local
        data at finitely many places.
        """
        D = self.divisor()
        if any(n % 2 for n in D.coeffs.values()):
            return False
        half = Divisor({P: n // 2 for P, n in D.coeffs.items()})
        if not self.model.is_principal(half):
            return False
        h = self.model.function_with_divisor(half)
        rest = self / (h * h)
        return rest.residue_char(self.model.infinity) == 1


def _finite_places_of_degree(model: "EllipticModel", d: int) -> List[CurvePlace]:
    """The split and ramified places over degree-d irreducibles and the
    inert ones over degree-d/2 irreducibles, in sort-key order."""
    out: List[CurvePlace] = []
    for p in irreducibles_of_degree(model.field, d):
        out.extend(P for P in model._places_over_irreducible(p) if P.kind != "inert")
    if d % 2 == 0:
        for p in irreducibles_of_degree(model.field, d // 2):
            out.extend(P for P in model._places_over_irreducible(p) if P.kind == "inert")
    out.sort(key=CurvePlace.sort_key)
    return out


class EllipticModel(Model):
    """The curve y^2 = f(t) for a squarefree cubic f, as a divisor backend.

    The cubic need not be monic; its leading coefficient enters the
    residues at infinity.  The field is odd: GF rejects characteristic
    two, because the square-class machinery needs odd residue fields
    everywhere.
    """

    backend = "elliptic_curve"  # recorded in certificates
    _function = CurveFunction

    def __init__(self, field: Fq, f: Poly):
        f = poly_norm(f)
        if poly_deg(f) != 3:
            raise ValueError("the defining polynomial must be a cubic")
        if poly_deg(poly_gcd(f, poly_deriv(f, field), field)) != 0:
            raise ValueError("the defining polynomial must be squarefree")
        super().__init__(field, (field.q, f))
        self.f = f
        self.infinity = CurvePlace(self, "infinite")
        self._above: Dict[Poly, Tuple[CurvePlace, ...]] = {}
        self._points: Optional[List[Point]] = None
        self._halves_of: Optional[Dict[Point, Point]] = None
        self._classes: Dict[CurvePlace, Point] = {}
        self._pair_divisors: Dict[tuple, Tuple[Tuple[CurvePlace, int], ...]] = {}
        self._coset_bits: Optional[Dict[Point, int]] = None

    def __repr__(self) -> str:
        return "EllipticModel(GF(%d), y^2 = %s)" % (
            self.field.q, poly_str(self.f, "t", self.field))

    # -- places

    def places_above(self, p: Poly) -> List[CurvePlace]:
        """The places over an irreducible p, by the character of f mod p.

        p is made monic first; a constant or reducible p is refused by
        that name.
        """
        given = poly_norm(p)
        p = poly_monic(given, self.field)
        fault = None if p in self._above else base_fault(p, self.field)
        if fault:
            raise ValueError("finite places sit over irreducibles, but %s is %s"
                             % (_quoted(poly_str(given, "t", self.field)), fault))
        return list(self._places_over_irreducible(p))

    def _places_over_irreducible(self, p: Poly) -> Tuple[CurvePlace, ...]:
        """places_above for a monic p already known to be irreducible."""
        got = self._above.get(p)
        if got is not None:
            return got
        rf = ResidueField(self.field, p)
        fbar = rf.reduce(self.f)
        chi = rf.quad_char(fbar)
        if chi == 0:
            out = (CurvePlace(self, "ramified", p),)
        elif chi < 0:
            out = (CurvePlace(self, "inert", p),)
        else:
            s = rf.sqrt(fbar)
            branches = sorted((s, rf.neg(s)),
                              key=lambda w: poly_to_int(w, self.field))
            out = tuple(CurvePlace(self, "split", p, w) for w in branches)
        self._above[p] = out
        return out

    def _atom_divisor(self, atom) -> Sequence[Tuple[CurvePlace, int]]:
        """The divisor of one atom, as (place, coefficient) pairs.

        A poly atom's is read off the places above it.  A pair atom's
        needs its norm factored; it depends on the model and the atom
        alone, so it is computed once per model and kept.  Poly atoms
        are not kept: there are far more of them, and they are cheap.

        A primitive a + b*y meets exactly one place over each factor p of
        its norm, with p's multiplicity: p cannot divide both conjugates,
        and no inert place divides the norm.  That place is the ramified
        one, or the split one whose branch w has a + b*w = 0 mod p.  At
        infinity the order is minus the norm's degree, max(2 deg a,
        2 deg b + 3).
        """
        kind, data = atom
        if kind == "poly":
            out = [(P, 2 if P.kind == "ramified" else 1)
                   for P in self._places_over_irreducible(data)]
            out.append((self.infinity, -2 * poly_deg(data)))
            return out
        got = self._pair_divisors.get(atom)
        if got is None:
            F = self.field
            a, b = data
            out = []
            for p, m in poly_factor(_pair_norm(a, b, self), F)[1]:
                P, *other = self._places_over_irreducible(p)
                assert P.kind != "inert", "a primitive pair has no inert zeros"
                if other and poly_mod(poly_add(a, poly_mul(b, P.branch, F), F), p, F):
                    P = other[0]
                out.append((P, m))
            out.append((self.infinity, -max(2 * poly_deg(a), 2 * poly_deg(b) + 3)))
            got = self._pair_divisors[atom] = tuple(out)
        return got

    def places_of_degree(self, d: int) -> List[CurvePlace]:
        """All places of degree d, the infinite one first, in a fresh list."""
        return self._places_of_degree(d, _finite_places_of_degree)

    def parse_place(self, s: str) -> CurvePlace:
        """Parse 'inf' or '(base; kind)' / '(base; split; branch)'."""
        text = s.strip()
        if text == "inf":
            return self.infinity
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("expected 'inf' or '(base; kind[; branch])', got %s"
                             % _quoted(s))
        parts = [part.strip() for part in text[1:-1].split(";")]
        if len(parts) not in (2, 3):
            raise ValueError("expected '(base; kind[; branch])', got %s" % _quoted(s))
        base = poly_parse(parts[0], self.field)
        kind = parts[1]
        above = self.places_above(base)
        if kind not in _KINDS:
            raise ValueError("unknown place kind %s" % _quoted(kind))
        if above[0].kind != kind:
            raise ValueError("%s is %s here, not %s"
                             % (_quoted(parts[0]), above[0].kind, kind))
        if kind != "split":
            if len(parts) == 3:
                raise ValueError("only split places carry a branch")
            return above[0]
        if len(parts) != 3:
            raise ValueError("a split place needs its branch: %s" % _quoted(s))
        rf = ResidueField(self.field, above[0].base)
        branch = rf.reduce(poly_parse(parts[2], self.field))
        for P in above:
            if P.branch == branch:
                return P
        raise ValueError("%s is not a square root of f at %s"
                         % (_quoted(parts[2]), _quoted(parts[0])))

    # -- elements

    def from_pair(self, a: Poly, b: Poly) -> CurveFunction:
        return CurveFunction.from_pair(self, a, b)

    def y(self) -> CurveFunction:
        return CurveFunction.from_pair(self, (), (1,))

    def _irreducible(self, p: Poly) -> CurveFunction:
        """The function p, for a monic p known to be irreducible: its own atom,
        as from_poly would factor it."""
        return CurveFunction._trusted(self, 1, {("poly", p): 1})

    # -- certificates

    def header(self) -> dict:
        return dict(super().header(), curve=poly_str(self.f, "t", self.field))

    @classmethod
    def from_header(cls, field: Fq, data: dict) -> "EllipticModel":
        curve = data["curve"]
        if not isinstance(curve, str):
            raise ValueError("the curve must be a string, got %s" % _quoted(curve))
        return cls(field, poly_parse(curve, field))

    # -- the Mordell-Weil group over F_q

    def rational_points(self) -> List[Point]:
        """All F_q-points: None for the point at infinity, then (x, y)."""
        if self._points is None:
            F = self.field
            pts: List[Point] = [None]
            for x in F.elements():
                v = poly_eval(self.f, x, F)
                chi = F.quad_char(v)
                if chi == 0:
                    pts.append((x, 0))
                elif chi > 0:
                    r = F.sqrt(v)
                    pts.append((x, min(r, F.neg(r))))
                    pts.append((x, max(r, F.neg(r))))
            self._points = pts
        return list(self._points)

    def add_points(self, P: Point, Q: Point) -> Point:
        return _point_add(self.field, 0, tuple(self.f), P, Q)

    def negate_point(self, P: Point) -> Point:
        return None if P is None else (P[0], self.field.neg(P[1]))

    def multiply_point(self, n: int, P: Point) -> Point:
        if P is None:
            return None
        if n < 0:
            n, P = -n, self.negate_point(P)
        R: Point = None
        Q = P
        while n:
            if n & 1:
                R = self.add_points(R, Q)
            Q = self.add_points(Q, Q)
            n >>= 1
        return R

    def _halves(self) -> Dict[Point, Point]:
        """{2H: the first such H in rational_points order}, over all doubles."""
        if self._halves_of is None:
            halves: Dict[Point, Point] = {}
            for H in self.rational_points():
                halves.setdefault(self.add_points(H, H), H)
            self._halves_of = halves
        return self._halves_of

    # -- divisor classes: Pic = Z (+) E(F_q)

    def pic_zero_two_rank(self) -> int:
        """F_2-dimension of the 2-torsion of the degree-zero class group."""
        points = self.rational_points()[1:]
        return {0: 0, 1: 1, 3: 2}[sum(y == 0 for _, y in points)]

    def two_torsion_witnesses(self) -> List["CurveFunction"]:
        """Functions whose divisors are twice an independent 2-torsion class.

        Each root x0 of f gives the vertical line t - x0 with divisor
        2(x0, 0) - 2*infinity, so its class halves to the 2-torsion point
        (x0, 0).  With full 2-torsion the three verticals multiply to
        f = y^2 times a constant, so only the first two are kept.  The
        roots are read off the rational points, in increasing order.
        """
        roots = [x for x, y in self.rational_points()[1:] if y == 0]
        return [self._irreducible((self.field.neg(x), 1)) for x in roots[:2]]

    def pic_class_of_place(self, place: CurvePlace) -> Point:
        """The class of place - deg(place)*infinity, as a rational point.

        Inert places and infinity give the identity (the Galois orbit of
        an inert point pairs each geometric point with its negative);
        split and ramified places give the Frobenius-orbit sum of the
        point below them, computed over the residue field and then
        recognized as constant.
        """
        if place.kind in ("infinite", "inert"):
            return None
        got = self._classes.get(place)
        if got is not None or place in self._classes:
            return got
        rf = ResidueField(self.field, place.base)
        x = rf.reduce((0, 1))
        ybar = place.branch if place.kind == "split" else ()
        f4 = tuple(rf.reduce((c,)) for c in self.f)
        total = None
        pt = (x, ybar)
        for _ in range(poly_deg(place.base)):
            total = _point_add(rf, (), f4, total, pt)
            pt = (rf.frobenius(pt[0]), rf.frobenius(pt[1]))
        assert pt == (x, ybar), "the Frobenius orbit must close up"
        if total is None:
            out: Point = None
        else:
            cx = rf.constant_down(total[0])
            cy = rf.constant_down(total[1])
            assert cx is not None and cy is not None, "an orbit sum is rational"
            out = (cx, cy)
        self._classes[place] = out
        return out

    def _coordinates_mod_doubles(self) -> Dict[Point, int]:
        """Every rational point's coordinates in E(F_q)/2E(F_q), as a bitmask.

        Fixed once per model: the points are scanned in _point_key order,
        and each one outside the span of the cosets found so far becomes
        the next basis vector, so the map is a homomorphism with kernel
        exactly the doubles.
        """
        if self._coset_bits is None:
            bits = dict.fromkeys(self._halves(), 0)
            new = 1
            for P in sorted(self.rational_points(), key=_point_key):
                if P not in bits:
                    bits.update({self.add_points(Q, P): c | new
                                 for Q, c in bits.items()})
                    new <<= 1
            assert new == 1 << self.pic_zero_two_rank(), \
                "E/2E must have 2^(2-rank) cosets"
            self._coset_bits = bits
        return self._coset_bits

    def pic_mod2(self, place: CurvePlace) -> int:
        """F_2 coordinates of the class of the place in Pic/2Pic.

        Bit 0 is the degree parity; the bits above it are the coordinates
        of pic_class_of_place(place) in E(F_q)/2E(F_q), in the table
        fixed once per model.  A divisor is 2-divisible exactly when the
        XOR of the coordinates of its places, each taken with its
        coefficient's parity, is zero.
        """
        point = self.pic_class_of_place(place)
        return place.degree & 1 | self._coordinates_mod_doubles()[point] << 1

    def pic_class(self, D: Divisor) -> Tuple[int, Point]:
        """The class of D in Z (+) E(F_q) as (degree, point)."""
        pt: Point = None
        for P, n in D.coeffs.items():
            pt = self.add_points(pt, self.multiply_point(n, self.pic_class_of_place(P)))
        return (D.degree, pt)

    def is_principal(self, D: Divisor) -> bool:
        deg, pt = self.pic_class(D)
        return deg == 0 and pt is None

    def two_divisible(self, D: Divisor) -> bool:
        """Whether the class of D lies in 2 Pic."""
        deg, pt = self.pic_class(D)
        return deg % 2 == 0 and pt in self._halves()

    def halve_in_pic(self, D: Divisor) -> Optional[Divisor]:
        """Some divisor E with 2E ~ D, or None when no class halves D."""
        deg, pt = self.pic_class(D)
        halves = self._halves()
        if deg % 2 or pt not in halves:
            return None
        H, k = halves[pt], deg // 2
        if H is None:
            return Divisor({self.infinity: k})
        return Divisor({self.place_of_rational_point(H): 1,
                        self.infinity: k - 1})

    def punctured_pic_two_rank(self, S) -> int:
        """F_2-rank of Pic modulo the classes of S, without pic_mod2.

        The quotient of the point group by the subgroup the removed
        places generate is enumerated, which needs the infinite place to
        be removed.
        """
        if self.infinity not in S:
            raise HypothesisError(
                "direct computation unavailable: removing the infinite place "
                "is required to enumerate the punctured class group")
        subgroup = {None}
        for g in (self.pic_class_of_place(P) for P in S if not P.is_infinite):
            # adjoin g: one coset per multiple of g until one falls inside
            inside, x = set(subgroup), g
            while x not in inside:
                subgroup |= {self.add_points(x, h) for h in inside}
                x = self.add_points(x, g)
        points = self.rational_points()
        halves = sum(1 for P in points if self.add_points(P, P) in subgroup)
        assert halves % len(subgroup) == 0
        torsion = halves // len(subgroup)
        rank = torsion.bit_length() - 1
        assert 1 << rank == torsion
        return rank

    # -- points <-> degree-one places

    def place_of_rational_point(self, P: Point) -> CurvePlace:
        if P is None:
            return self.infinity
        x, yv = P
        F = self.field
        if F.mul(yv, yv) != poly_eval(self.f, x, F):
            raise ValueError("(%d, %d) does not lie on the curve" % (x, yv))
        return next(Q for Q in self._places_over_irreducible((F.neg(x), 1))
                    if Q.kind == "ramified" or Q.branch == (yv,))

    def point_of_place(self, place: CurvePlace) -> Point:
        if place.kind == "infinite":
            return None
        if place.degree != 1 or place.kind == "inert":
            raise ValueError("only degree-one places sit at rational points")
        x = self.field.neg(place.base[0])
        if place.kind == "ramified":
            return (x, 0)
        return (x, place.branch[0])

    # -- constructing a function with a prescribed principal divisor

    def function_with_divisor(self, D: Divisor) -> CurveFunction:
        """A function whose divisor is exactly D; ValueError if none exists.

        First the support is flattened onto degree-one places: inert
        places are base polynomials, higher split places are peeled with
        y - (lift of the branch), whose zero there is simple, even parts
        of ramified places are base polynomials and an odd leftover at
        the lone higher ramified place is a factor of y.  What remains
        is settled by vertical and chord lines through rational points.
        All bookkeeping subtracts exactly computed divisors, and the
        result is checked against D before it is returned.
        """
        if not self.is_principal(D):
            raise ValueError("the divisor is not principal")
        F = self.field
        acc = self.one()
        R = D

        def apply(g: CurveFunction, e: int):
            nonlocal acc, R
            if e:
                acc = acc * g ** e
                R = R - e * g.divisor()

        # inert places come from their base polynomials, with no side effects
        for P in list(R.coeffs):
            if P.kind == "inert":
                apply(self._irreducible(P.base), R.coeffs[P])

        # peel split places of degree >= 2, largest first; each peel only
        # disturbs places of strictly smaller degree
        while True:
            big = [P for P in R.coeffs if P.kind == "split" and P.degree >= 2]
            if not big:
                break
            P = max(big, key=lambda Q: Q.degree)
            apply(self.from_pair(poly_neg(P.branch, F), (1,)), R.coeffs[P])
            assert P not in R.coeffs, "the peel has a simple zero at P"

        # a lone higher ramified place with an odd coefficient needs one
        # factor of y; after that, even parts are powers of the base
        for P in list(R.coeffs):
            if P.kind == "ramified" and P.degree >= 2 and R.coeffs[P] % 2:
                apply(self.y(), 1)
        for P in list(R.coeffs):
            if P.kind == "ramified":
                apply(self._irreducible(P.base), R.coeffs[P] // 2)

        # now only degree-one places and infinity remain; each chord step
        # lowers the finite total, so no more steps than sum |n| are needed
        for _ in range(1 + sum(map(abs, R.coeffs.values()))):
            # verticals: cancel conjugate branches against each other and
            # reduce ramified coefficients into {0, 1}
            for x in {self.point_of_place(P)[0]
                      for P in R.coeffs if P.kind != "infinite"}:
                vertical = (F.neg(x), 1)
                fiber = self._places_over_irreducible(vertical)
                if fiber[0].kind == "ramified":
                    k = R.get(fiber[0]) // 2
                else:
                    k = min(R.get(fiber[0]), R.get(fiber[1]))
                apply(self._irreducible(vertical), k)
            finite = [(P, n) for P, n in R.items() if P.kind != "infinite"]
            assert all(n > 0 for _, n in finite)
            total = sum(n for _, n in finite)
            if total == 0:
                break
            assert total != 1, "a single simple zero contradicts principality"
            # one chord or tangent line through two remaining points
            doubled = [P for P, n in finite if n >= 2]
            if doubled:
                x1, y1 = self.point_of_place(doubled[0])
                assert y1 != 0
                # tangent slope f'(x) / 2y at a non-2-torsion point
                lam = F.mul(poly_eval(poly_deriv(self.f, F), x1, F),
                            F.inv(F.add(y1, y1)))
            else:
                (x1, y1) = self.point_of_place(finite[0][0])
                (x2, y2) = self.point_of_place(finite[1][0])
                assert x1 != x2, "conjugate branches were cancelled above"
                lam = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
            mu = F.sub(y1, F.mul(lam, x1))
            apply(self.from_pair(poly_neg(poly_norm((mu, lam)), F), (1,)), 1)

        assert R.is_zero, "the chord steps did not settle the divisor"
        assert acc.divisor() == D
        return acc
