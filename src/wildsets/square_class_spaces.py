"""F_2-spaces of square classes attached to a finite set of removed places.

Removing a finite set S of places from the complete curve singles out
the functions whose order is even at every place that remains.  Modulo
squares they form a finite F_2-vector space; inside it sits the
subspace of classes that are additionally local squares at each removed
place.  This module computes explicit generating functions for both
spaces, the rank of the removed classes in the divisor class group
modulo doubles, executable forms of the identities tying these ranks
together, and the compatibility relation between 2-divisible places
that later drives the assembly of large wild sets.

All linear algebra over F_2 runs on integer bitmasks, through one
triangular eliminator, its full reduction and the kernel routine built
on them; the kernel also solves the tame-twist system behind the
composition of certificates in equivalence_core.  Questions
about the class group modulo doubles are elimination problems: each
backend gives every place explicit coordinates in Pic/2Pic through
pic_mod2 (the degree parity, plus on the elliptic curve the coordinates
of the place's point in E(F_q)/2E(F_q), fixed once per model).  The
relations among the classes of S are the kernel of those rows, and the
rank of the classes is the rank of the rows; pic_complement_two_rank
turns it into the rank of the punctured class group modulo doubles,
1 + (2-rank of Pic^0) minus it.  The routes that never read the
coordinates catch a wrong table: the backend's two_divisible, its
punctured_pic_two_rank behind check_pic_rank_formula, and the oracles
of the tests.

Independence of square classes is established by their local data
(order parity and residue character) at a finite separating set of
places, with an exact fallback through is_square when the local data
alone is inconclusive.  Only a product whose local data vanishes can be
a square, so the test keeps a basis of the relations among the
generators' local data: it starts from the relations among the order
parities, read off the generators' divisors, and cuts them by the
residue characters one place at a time -- removed places first, then
the supports of the generators, then the places of degree one and two.
It stops as soon as no relation is left, and walks the span of what is
left when the places run out.  The class table of Sing(S) at S is read
and eliminated once, for delta_space and the quotient basis with its rows.

Every class table here comes from local_symbols.square_class_table, which
reads each atom's character at each place once per call; the witnesses
of one removed set share their atoms, the polynomials of its places.
Generators keep their divisors, so the checks read each one once.  No
table, character or space is kept once a call returns.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import HypothesisError, VerificationError
from .local_symbols import local_square_class, square_class_table
from .function_field import Divisor

__all__ = [
    "GYRank",
    "SquareClassSpace",
    "sing_space",
    "delta_space",
    "g_rank",
    "check_lin_dep_lemma",
    "check_pic_rank_formula",
    "pic_complement_two_rank",
    "smile",
]


# -- F_2 linear algebra on bitmasks

def _xor_insert(basis: Dict[int, int], v: int) -> int:
    """Reduce v against a triangular basis keyed by leading bit.

    Returns the reduced vector, inserting it when nonzero; zero means
    v was already in the span.
    """
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            basis[top] = v
            return v
        v ^= basis[top]
    return 0


def _reduce(basis: Dict[int, int], v: int) -> int:
    """Clear every leading bit of the basis from v, highest first.

    The result is the unique member of v + span(basis) with no bit at a
    leading position, so it does not depend on which triangular basis of
    the span is given.
    """
    for top in sorted(basis, reverse=True):
        if v >> top & 1:
            v ^= basis[top]
    return v


def _f2_rank(vectors: Sequence[int]) -> int:
    basis: Dict[int, int] = {}
    for v in vectors:
        _xor_insert(basis, v)
    return len(basis)


def _kernel_basis(vectors: Sequence[int]) -> List[int]:
    """The F_2 relations among the vectors, as a basis of selection masks.

    Bit i of a mask selects vectors[i]; a relation selects vectors that
    XOR to zero.  For each index t that is the top bit of some relation
    the basis holds the least such relation, in ascending order of t --
    the basis a triangular insertion of all relations in increasing
    order would keep.  Each vector is augmented with its own selection
    bit below it; an augmented row that reduces to its mask part is a
    relation, and reducing it against the lower relations from the top
    down makes it the least one with its top bit.
    """
    n = len(vectors)
    basis: Dict[int, int] = {}
    for i, v in enumerate(vectors):
        _xor_insert(basis, v << n | 1 << i)
    kernel: Dict[int, int] = {}
    for t in sorted(k for k in basis if k < n):
        kernel[t] = _reduce(kernel, basis[t])
    return list(kernel.values())


# -- shared helpers

def _clean_places(S) -> List:
    places = list(S)
    if not places:
        raise ValueError("the removed set must contain at least one place")
    if len(set(places)) != len(places):
        raise ValueError("the removed set has repeated places")
    return places


def _global_even_generators(model) -> List:
    """Classes of even order at every place, independent modulo squares.

    The smallest nonsquare constant, then one witness per independent
    2-torsion class of the degree-zero class group, in that order.
    """
    return [model.constant(model.field.nonsquare())] + \
        model.two_torsion_witnesses()


def _product(model, gens: Sequence, mask: int):
    out = model.one()
    for i, g in enumerate(gens):
        if mask >> i & 1:
            out = out * g
    return out


def _pack(classes, first: int = 0) -> int:
    """Square classes packed two bits per place, from place `first` on.

    The class at place j puts its order parity at bit 2j and its
    nonsquare bit at bit 2j + 1.
    """
    bits = 0
    for j, (e, s) in enumerate(classes, first):
        bits |= (e | s << 1) << 2 * j
    return bits


def _separating_places(model, divisors, removed) -> Iterator:
    """Removed places, then the generators' supports, then degrees 1 and 2.

    Each place is yielded once, lazily, so a caller that stops early
    never enumerates the later degrees.
    """
    seen = set()
    supports = (P for D in divisors for P in D.support())
    small = (P for d in (1, 2) for P in model.places_of_degree(d))
    for P in itertools.chain(removed, supports, small):
        if P not in seen:
            seen.add(P)
            yield P


def _independent_modulo_squares(model, gens, divisors, places) -> bool:
    """Whether no nonempty product of the functions is a global square.

    One basis of the relations among the local data is kept (bit i
    selects gens[i]), starting from the kernel of the order parities,
    read in one pass over each divisor.  Each place cuts it by the
    residue characters of the generators a relation still selects: one
    relation on which they do not cancel is added to the others on which
    they do not, and dropped.  With no relation left the
    functions are independent, and no further place is drawn; when the
    places run out first, is_square decides on the span of the rest.
    """
    bit: Dict = {}  # each odd-order place's bit, in order of first sight
    parities = []
    for D in divisors:
        row = 0
        for P, n in D.coeffs.items():
            if n & 1:
                row |= 1 << bit.setdefault(P, len(bit))
        parities.append(row)
    relations = _kernel_basis(parities)
    if not relations:
        return True
    for P in places:
        selected = 0
        for r in relations:
            selected |= r
        picked = [i for i in range(len(gens)) if selected >> i & 1]
        column = square_class_table([gens[i] for i in picked], [P])
        chars = sum(row[0][1] << i for i, row in zip(picked, column))
        odd = [r for r in relations if (r & chars).bit_count() % 2]
        relations = [r for r in relations if r not in odd] + \
            [r ^ odd[0] for r in odd[1:]]
        if not relations:
            return True
    for pick in range(1, 1 << len(relations)):
        mask = 0
        for k, relation in enumerate(relations):
            if pick >> k & 1:
                mask ^= relation
        if _product(model, gens, mask).is_square():
            return False
    return True


# -- the two spaces

class SquareClassSpace:
    """A space of square classes with even order outside the removed set.

    Generators are explicit functions; their classes are verified to be
    independent modulo squares and to have even order at every place
    not in the removed set, so the object really is an embedded basis.
    """

    __slots__ = ("model", "removed", "generators")

    def __init__(self, model, removed, generators):
        self.model = model
        self.removed = tuple(removed)
        self.generators = tuple(generators)
        outside = set(self.removed)
        divisors = [g.divisor() for g in self.generators]
        for g, D in zip(self.generators, divisors):
            odd = [P for P, n in D.coeffs.items() if n & 1 and P not in outside]
            if odd:
                raise VerificationError(
                    "generator %s has odd order at the retained place %s"
                    % (g, min(odd, key=lambda P: P.sort_key())))
        places = _separating_places(model, divisors, self.removed)
        if not _independent_modulo_squares(model, self.generators, divisors,
                                           places):
            raise VerificationError("generators are dependent modulo squares")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __str__(self) -> str:
        body = ", ".join(str(g) for g in self.generators) or "trivial"
        return "rank %d: %s" % (self.rank, body)

    def __repr__(self) -> str:
        return "SquareClassSpace(rank %d, %d places removed)" % (
            self.rank, len(self.removed))


def _even_class_witness(model, D: Divisor):
    """A function whose divisor is D plus twice something.

    Exists exactly when the class of D is 2-divisible; halving in the
    class group leaves a principal difference, realized as an explicit
    function.  The result has odd order at the support of D (for
    coefficient 1) and even order everywhere else.
    """
    E = model.halve_in_pic(D)
    if E is None:
        raise HypothesisError("the class of %s is not 2-divisible" % D)
    return model.function_with_divisor(D - 2 * E)


def sing_space(model, S) -> SquareClassSpace:
    """The classes with even order at every place outside S.

    The basis consists of the smallest non-square constant, one witness
    per independent 2-torsion class of the degree-zero class group, and
    one function per F_2 relation among the classes of S: the relation
    makes the subset sum 2-divisible, and dividing out twice a half
    leaves a principal divisor realized by an explicit function whose
    odd-order places are exactly the subset.
    """
    S = _clean_places(S)
    gens = _global_even_generators(model)
    for mask in _kernel_basis([model.pic_mod2(P) for P in S]):
        D = Divisor({P: 1 for i, P in enumerate(S) if mask >> i & 1})
        gens.append(_even_class_witness(model, D))
    return SquareClassSpace(model, S, gens)


def _sing_relations(model, S) -> Tuple[SquareClassSpace, List, List[int]]:
    """sing_space(S), its class table at S and the relations among it.

    Row i of the table holds generator i's classes at S.  Bit i of a
    relation selects generator i, and the selected rows, packed, cancel.
    The relations are the _kernel_basis of the packed rows, so each one's
    top bit marks a generator whose row the earlier rows already span.
    """
    space = sing_space(model, S)
    table = square_class_table(space.generators, space.removed)
    return space, table, _kernel_basis([_pack(row) for row in table])


def delta_space(model, S) -> SquareClassSpace:
    """The subspace of sing_space(S) of local squares at every place of S.

    Computed as the kernel of the local-data map on the basis of the
    enclosing space: a subset product lands in the subspace exactly
    when its packed local bits over S cancel.
    """
    base, _, relations = _sing_relations(model, S)
    return _delta_of(model, base, relations)


def _delta_of(model, base: SquareClassSpace, relations) -> SquareClassSpace:
    """delta_space from the Sing(S) and relations _sing_relations gave."""
    S = base.removed
    gens = [_product(model, base.generators, mask) for mask in relations]
    space = SquareClassSpace(model, S, gens)
    for g, row in zip(space.generators, square_class_table(space.generators, S)):
        for P, cls in zip(S, row):
            if cls != (0, 0):
                raise VerificationError(
                    "generator %s is not a local square at %s" % (g, P))
    expected = pic_complement_two_rank(model, S)
    if space.rank != expected:
        raise VerificationError(
            "computed rank %d, but the class-group identity gives %d"
            % (space.rank, expected))
    return space


# -- ranks in the class group modulo doubles

class GYRank(NamedTuple):
    """The classes of a removed set in Pic modulo doubles: their rank."""

    removed: Tuple
    rank: int


def g_rank(model, S) -> GYRank:
    """Rank of the span of the classes of S: that of their pic_mod2 rows."""
    S = tuple(_clean_places(S))
    return GYRank(S, _f2_rank([model.pic_mod2(P) for P in S]))


def pic_complement_two_rank(model, S) -> int:
    """F_2-rank of the class group after removing the places of S.

    Pic modulo doubles has rank 1 (the degree parity) plus the 2-rank
    of the degree-zero part; removing S divides out the span of the
    classes of S, whose rank is the rank of their pic_mod2 rows.  S may
    be empty.
    """
    return 1 + model.pic_zero_two_rank() - _f2_rank(
        [model.pic_mod2(P) for P in S])


# -- executable identities

def check_lin_dep_lemma(model, S) -> dict:
    """Classes of S independent iff removing S adds no new even classes.

    Independence is read off the pic_mod2 rows of the classes, the other
    side by comparing the rank of sing_space(S) with the rank over the
    complete curve.  sing_space builds its generators as 1 + rk Pic^0[2]
    plus one per relation among the classes of S, |S| - rk G of them, so
    the two sides agree by construction and the raise only guards that
    construction.  What the call checks is that the generators of
    Sing(S) verify: even order off S and independence modulo squares,
    which SquareClassSpace establishes or raises on.
    """
    info = g_rank(model, S)
    independent = info.rank == len(info.removed)
    complete_rank = 1 + model.pic_zero_two_rank()
    space = sing_space(model, S)
    unchanged = space.rank == complete_rank
    if independent != unchanged:
        raise VerificationError(
            "independence (%s) and space comparison (%s) disagree on %s"
            % (independent, unchanged, [str(P) for P in info.removed]))
    return {
        "classes_independent": independent,
        "space_unchanged": unchanged,
        "removed_rank": space.rank,
        "complete_rank": complete_rank,
    }


def check_pic_rank_formula(model, S) -> dict:
    """Rank of the punctured class group, by formula and directly.

    The formula side is 1 + (2-rank of the degree-zero part) - (rank of
    the removed classes).  The direct side is the backend's
    punctured_pic_two_rank, which rebuilds the punctured class group
    without reading the pic_mod2 coordinates.
    """
    S = _clean_places(S)
    formula = pic_complement_two_rank(model, S)
    direct = model.punctured_pic_two_rank(S)
    if formula != direct:
        raise VerificationError(
            "punctured class group ranks disagree: formula %d, direct %d"
            % (formula, direct))
    return {"formula_rank": formula, "direct_rank": direct}


# -- the compatibility relation on 2-divisible places

def smile(model, q1, q2) -> bool:
    """Whether the new even-order classes at q1 are local squares at q2.

    Removing a single 2-divisible place q1 enlarges the even-order
    classes of the complete curve by one coset, q1's witness lam times
    the global even classes; the relation holds when every member of
    that coset is a local square at q2.  At a 2-divisible q2 every global
    even generator already is one, so lam alone decides.  q2 has even
    degree, so a constant is a square there.  The residue of a vertical
    t - x0 through a 2-torsion point T is a square when its norm to F_q
    is, and that norm pairs T with the class of q2 - deg(q2) O, which
    lies in 2E(F_q), where the Tate pairing vanishes: with q2 = 2D + div g,
    Weil reciprocity makes it (t - x0)(D)^2 (g(T) / g(O))^2.  Defined
    only for distinct places with 2-divisible classes, and symmetric there.
    """
    if q1 == q2:
        raise ValueError("the relation compares two distinct places")
    for P in (q1, q2):
        if not model.two_divisible(Divisor({P: 1})):
            raise HypothesisError(
                "the class of %s is not 2-divisible, so the relation is "
                "undefined" % P)
    lam = _even_class_witness(model, Divisor({q1: 1}))
    return local_square_class(lam, q2) == (0, 0)
