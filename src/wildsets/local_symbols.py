"""Local square classes, Hilbert symbols, and Klein-four local maps.

At a place P with odd residue field, the completion's nonzero elements
modulo squares form a Klein four-group generated by a fixed nonsquare
unit u and the canonical uniformizer pi.  We encode the class of an
element as the int below 4 whose bit 0 is its order parity and bit 1
the nonsquare bit of its unit-part residue: ONE = 0, PI = 1, U = 2 and
U_PI = 3, so a product of names is the XOR of their codes, and
multiplication of classes is ^.  Everything downstream -- symbols,
local maps, their wildness, and the rows square_class_spaces packs two
bits per place -- is bookkeeping on these ints.

Bit 1 is the backend's ``residue_char``: the quadratic
character of the unit-part residue, which both backends assemble from
Jacobi symbols in F_q[t] without forming the residue itself.  A table
of many functions at many places goes through ``square_class_table``,
which reads each atom's character at each place once per call, however
many functions share the atom, and keeps nothing once it returns.

A Hilbert symbol needs less than the two classes: the pairing reads a's
character only where b has odd order, and b's only where a has, so
``hilbert_symbol`` and ``reciprocity_product`` read the order parities
first and a character only where the pairing uses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base_algebra import _quoted

SquareClass = int

ONE: SquareClass = 0
PI: SquareClass = 1
U: SquareClass = 2
U_PI: SquareClass = 3

_CLASS_NAMES = {ONE: "1", U: "u", PI: "pi", U_PI: "u*pi"}
_CLASS_BY_NAME = {name: cls for cls, name in _CLASS_NAMES.items()}


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
    return elem.ord_at(place) & PI | (elem.residue_char(place) < 0) << 1


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

    return [[elem.ord_at(P) & PI | (elem.residue_char(P, atom_char) < 0) << 1
             for P in places] for elem in elements]


def square_class_hilbert(a: SquareClass, b: SquareClass,
                         minus_one_square: bool) -> int:
    """Hilbert symbol of two square classes, +1 or -1.

    The pairing is chi(-1)^(ord_a ord_b) * chi(ua)^(ord_b) * chi(ub)^(ord_a)
    with u* the unit parts; on the class bits that is a symmetric F_2 form.
    """
    sign = (a >> 1 & b) ^ (b >> 1 & a)
    if not minus_one_square:
        sign ^= a & b & PI
    return -1 if sign else 1


def _check_models(a, b, place=None) -> None:
    model = a.model
    if b.model is not model and b.model.key != model.key:
        raise ValueError("cannot pair functions on different models")
    if place is not None and place.model is not model and place.model.key != model.key:
        raise ValueError("the place is on a different model from the functions")


def hilbert_symbol(a, b, place) -> int:
    """The quadratic Hilbert symbol of two functions at a place.

    square_class_hilbert of the two classes, reading only what it uses:
    no character where both orders are even, a's character only if b
    has odd order, b's only if a has, and chi(-1) only if both have.
    Raises ValueError when the functions and the place are not all on
    one model.
    """
    _check_models(a, b, place)
    ea = a.ord_at(place) & 1
    eb = b.ord_at(place) & 1
    if not (ea or eb):
        return 1
    sign = eb and a.residue_char(place) < 0
    if ea:
        sign ^= b.residue_char(place) < 0
        if eb and not minus_one_is_square(place):
            sign ^= 1
    return -1 if sign else 1


def reciprocity_product(a, b) -> int:
    """Product of Hilbert symbols over all places; always +1.

    The symbol is +1 wherever both functions have order zero, so the
    product runs over the union of the two divisor supports, and it
    reads at most one character per odd-order entry of the two
    divisors.  Raises ValueError when a and b are on different models.
    """
    _check_models(a, b)
    places = set(a.divisor().coeffs) | set(b.divisor().coeffs)
    prod = 1
    for P in places:
        prod *= hilbert_symbol(a, b, P)
    return prod


class LocalMap:
    """An automorphism of the local square-class group at one place.

    Recorded by the images of u and pi.  Any pair of distinct nontrivial
    classes determines one (the group is Klein four), and the map acts
    F_2-linearly on the codes: a ^ b goes to the ^ of the images.  A map
    is *wild* when it moves u, i.e. fails to come from a
    square-class-scaling of the completion's multiplicative group.
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
        """The first map of _AUTOMORPHISMS sending each source to its image.

        Returns None when no automorphism fits: a trivial class paired
        with a nontrivial one, conflicting images, or a collapse of two
        distinct sources.
        """
        for lm, graph in _AUTOMORPHISMS:
            if graph.issuperset(pairs):
                return lm
        return None

    def apply(self, a: SquareClass) -> SquareClass:
        return ((self.image_of_pi if a & PI else ONE)
                ^ (self.image_of_u if a & U else ONE))

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


# The six automorphisms by image of u, then by image of pi, each in the
# order u, pi, u*pi; each with its graph, the set of (class, image).
_AUTOMORPHISMS = tuple(
    (lm, frozenset((c, lm.apply(c)) for c in (ONE, U, PI, U_PI)))
    for lm in (LocalMap(iu, ip) for iu in (U, PI, U_PI) for ip in (U, PI, U_PI)
               if iu != ip))
