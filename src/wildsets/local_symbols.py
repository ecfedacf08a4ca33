"""Local square classes, Hilbert symbols, and Klein-four local maps.

At a place P with odd residue field, the completion's nonzero elements
modulo squares form a Klein four-group generated by a fixed nonsquare
unit u and the canonical uniformizer pi.  We encode the class of an
element as a pair of bits

    (ord parity, nonsquare bit of the unit-part residue)

so 1 = (0,0), u = (0,1), pi = (1,0), and u*pi = (1,1).  Multiplication
of classes is XOR.  Everything downstream -- symbols, local maps, and
their wildness -- is bookkeeping on these pairs.

The second bit is the backend's ``residue_char``: the quadratic
character of the unit-part residue, which both backends assemble from
Jacobi symbols in F_q[t] without forming the residue itself.  A table
of many functions at many places goes through ``square_class_table``,
which reads each atom's character at each place once per call, however
many functions share the atom, and keeps nothing once it returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .base_algebra import _quoted

SquareClass = Tuple[int, int]

ONE: SquareClass = (0, 0)
U: SquareClass = (0, 1)
PI: SquareClass = (1, 0)
U_PI: SquareClass = (1, 1)

_CLASS_NAMES = {ONE: "1", U: "u", PI: "pi", U_PI: "u*pi"}
_CLASS_BY_NAME = {name: cls for cls, name in _CLASS_NAMES.items()}


def square_class_mul(a: SquareClass, b: SquareClass) -> SquareClass:
    return (a[0] ^ b[0], a[1] ^ b[1])


def square_class_str(a: SquareClass) -> str:
    return _CLASS_NAMES[a]


def square_class_parse(s: str) -> SquareClass:
    try:
        return _CLASS_BY_NAME[s.strip().replace(" ", "")]
    except KeyError:
        raise ValueError("unknown square class %s; expected one of 1, u, pi, u*pi"
                         % _quoted(s))


def residue_field_size(place) -> int:
    """Number of elements of the residue field at a place."""
    return place.field.q ** place.degree


def minus_one_is_square(place) -> bool:
    """Whether -1 is a square in the residue field (size 1 mod 4)."""
    return residue_field_size(place) % 4 == 1


def local_square_class(elem, place) -> SquareClass:
    """The square class of a function in the completion at a place."""
    return (elem.ord_at(place) & 1, int(elem.residue_char(place) < 0))


def square_class_table(elements: Sequence, places: Sequence) -> List[List[SquareClass]]:
    """Row i holds local_square_class(elements[i], P) for each P in places.

    The functions of one table share atoms (the witnesses of a removed
    set are products of its places' polynomials), so each (atom, place)
    character is read once per call, and each entry is combined from
    those characters, the constant's character and the order parity by
    the function's own residue_char.  The functions share one model.
    """
    if not elements:
        return []
    read = elements[0]._atom_char
    chars: Dict = {}

    def atom_char(atom, place, model):
        key = atom, place
        got = chars.get(key)
        if got is None:
            got = chars[key] = read(atom, place, model)
        return got

    return [[(elem.ord_at(P) & 1, int(elem.residue_char(P, atom_char) < 0))
             for P in places] for elem in elements]


def square_class_hilbert(a: SquareClass, b: SquareClass,
                         minus_one_square: bool) -> int:
    """Hilbert symbol of two square classes, +1 or -1.

    The pairing is chi(-1)^(ord_a ord_b) * chi(ua)^(ord_b) * chi(ub)^(ord_a)
    with u* the unit parts; on bit pairs that is a symmetric F_2 form.
    """
    ea, sa = a
    eb, sb = b
    sign = (sa & eb) ^ (sb & ea)
    if not minus_one_square:
        sign ^= ea & eb
    return -1 if sign else 1


def hilbert_symbol(a, b, place) -> int:
    """The quadratic Hilbert symbol of two functions at a place."""
    return square_class_hilbert(local_square_class(a, place),
                                local_square_class(b, place),
                                minus_one_is_square(place))


def reciprocity_product(a, b) -> int:
    """Product of Hilbert symbols over all places; always +1.

    The symbol is +1 wherever both functions have order zero, so the
    product runs over the union of the two divisor supports.
    """
    places = set(a.divisor().coeffs) | set(b.divisor().coeffs)
    prod = 1
    for P in places:
        prod *= hilbert_symbol(a, b, P)
    return prod


class LocalMap:
    """An automorphism of the local square-class group at one place.

    Recorded by the images of u and pi.  Any pair of distinct nontrivial
    classes determines one (the group is Klein four), and the map acts
    F_2-linearly on (ord, nonsquare) pairs.  A map is *wild* when it
    moves u, i.e. fails to come from a square-class-scaling of the
    completion's multiplicative group.
    """

    __slots__ = ("image_of_u", "image_of_pi")

    def __init__(self, image_of_u: SquareClass, image_of_pi: SquareClass):
        if image_of_u == ONE or image_of_pi == ONE or image_of_u == image_of_pi:
            raise ValueError("images of u and pi must be distinct nontrivial classes")
        self.image_of_u = image_of_u
        self.image_of_pi = image_of_pi

    @classmethod
    def identity(cls) -> "LocalMap":
        return cls(U, PI)

    @classmethod
    def tame_twist(cls) -> "LocalMap":
        """The nonidentity map with image_of_u = u: pi goes to u*pi."""
        return cls(U, U_PI)

    @classmethod
    def from_pairs(cls, pairs) -> Optional["LocalMap"]:
        """The deterministic map sending each source class to its image.

        Returns None when no automorphism fits: a trivial class paired
        with a nontrivial one, conflicting images, or a collapse of two
        distinct sources.  Each nontrivial class left unconstrained, in
        the order u, pi, u*pi, takes the first image in that order not
        yet taken.
        """
        vals = {}
        for s, d in pairs:
            if (s == ONE) != (d == ONE):
                return None
            if s == ONE:
                continue
            if vals.setdefault(s, d) != d:
                return None
        if len(set(vals.values())) != len(vals):
            return None
        taken = set(vals.values())
        for s in (U, PI, U_PI):
            if s not in vals:
                vals[s] = next(d for d in (U, PI, U_PI) if d not in taken)
                taken.add(vals[s])
        # an injective assignment of the three nontrivial classes is
        # automatically multiplicative, so no closing check is needed
        return cls(vals[U], vals[PI])

    def apply(self, a: SquareClass) -> SquareClass:
        e, s = a
        out = ONE
        if e:
            out = square_class_mul(out, self.image_of_pi)
        if s:
            out = square_class_mul(out, self.image_of_u)
        return out

    @property
    def is_wild(self) -> bool:
        return self.image_of_u != U

    @property
    def is_identity(self) -> bool:
        return self.image_of_u == U and self.image_of_pi == PI

    def compose(self, inner: "LocalMap") -> "LocalMap":
        """The map 'self after inner'."""
        return LocalMap(self.apply(inner.image_of_u), self.apply(inner.image_of_pi))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LocalMap) and self.image_of_u == other.image_of_u
                and self.image_of_pi == other.image_of_pi)

    def __hash__(self) -> int:
        return hash((self.image_of_u, self.image_of_pi))

    def __repr__(self) -> str:
        return "LocalMap(u -> %s, pi -> %s)" % (square_class_str(self.image_of_u),
                                                square_class_str(self.image_of_pi))
