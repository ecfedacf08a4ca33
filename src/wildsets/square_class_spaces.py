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
coordinates catch a wrong table: the backend's two_divisible, the direct
route _pic_two_rank_direct of check_pic_rank_formula, and the oracles
of the tests.

Independence of square classes is established by their local data
(order parity and residue character) at a finite separating set of
places, with an exact fallback through is_square when the local
fingerprints alone are inconclusive.  The fingerprint starts with the
order parities, read off the generators' divisors, and then adds
residue characters one place at a time -- removed places first, then
the supports of the generators, then the places of degree one and two.
It stops at the first prefix that separates the generators: more local
data can only raise the rank, so the verdict is the one the full
fingerprint would give.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import HypothesisError, VerificationError
from .local_symbols import local_square_class
from .projective_line import Divisor

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


def _dependency_masks(model, S: Sequence) -> List[int]:
    """A basis of the subsets of S whose class sum is divisible by 2.

    These are the F_2 linear relations among the classes of the places
    of S in the class group modulo doubles, read off as the kernel of
    their pic_mod2 coordinates: for each place that closes a relation,
    the least subset that it closes.
    """
    return _kernel_basis([model.pic_mod2(P) for P in S])


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


def _local_bits(fn, places: Sequence) -> int:
    """Order parity and residue characters packed two bits per place."""
    bits = 0
    for j, P in enumerate(places):
        e, s = local_square_class(fn, P)
        bits |= e << (2 * j) | s << (2 * j + 1)
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

    Local data decides most cases.  The order parities come first: they
    vanish off the supports of the divisors, so all of them are read
    there for free.  Residue characters follow one place at a time, and
    as soon as the local data seen so far has full rank the functions
    are independent -- more data can only raise the rank.  When the
    places run out first, the answer comes from the exact square test
    on every subset product.
    """
    vectors = [0] * len(gens)
    for P in {P for D in divisors for P in D.coeffs}:
        for i, D in enumerate(divisors):
            vectors[i] = vectors[i] << 1 | D.get(P) & 1
    if _f2_rank(vectors) == len(gens):
        return True
    for P in places:
        for i, g in enumerate(gens):
            vectors[i] = vectors[i] << 1 | local_square_class(g, P)[1]
        if _f2_rank(vectors) == len(gens):
            return True
    return not any(_product(model, gens, mask).is_square()
                   for mask in range(1, 1 << len(gens)))


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
            for P, n in D.items():
                if P not in outside and n % 2:
                    raise VerificationError(
                        "generator %s has odd order at the retained place %s"
                        % (g, P))
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
    for mask in _dependency_masks(model, S):
        D = Divisor({P: 1 for i, P in enumerate(S) if mask >> i & 1})
        half = model.halve_in_pic(D)
        gens.append(model.function_with_divisor(D - 2 * half))
    return SquareClassSpace(model, S, gens)


def delta_space(model, S) -> SquareClassSpace:
    """The subspace of sing_space(S) of local squares at every place of S.

    Computed as the kernel of the local-data map on the basis of the
    enclosing space: a subset product lands in the subspace exactly
    when its packed local bits over S cancel.
    """
    S = _clean_places(S)
    base = sing_space(model, S)
    rows = [_local_bits(g, S) for g in base.generators]
    gens = [_product(model, base.generators, mask)
            for mask in _kernel_basis(rows)]
    space = SquareClassSpace(model, S, gens)
    for g in space.generators:
        for P in S:
            if local_square_class(g, P) != (0, 0):
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
    """Rank data for the classes of a removed set in Pic modulo doubles."""

    removed: Tuple
    rank: int
    independent: Tuple

    def __str__(self) -> str:
        return "rank %d of %d places" % (self.rank, len(self.removed))


def g_rank(model, S) -> GYRank:
    """Rank of the span of the classes of S, with an independent sublist.

    The sublist is chosen greedily in the given order, inserting each
    place's pic_mod2 row into a triangular basis and keeping the place
    when the row is new, so it is the lexicographically first maximal
    independent subset.
    """
    S = _clean_places(S)
    basis: Dict[int, int] = {}
    chosen = tuple(P for P in S if _xor_insert(basis, model.pic_mod2(P)))
    return GYRank(tuple(S), len(chosen), chosen)


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

    Both sides are computed: independence through the pic_mod2
    coordinates of the classes, the right side by comparing the rank of
    sing_space(S) with the rank over the complete curve.  A discrepancy
    raises.
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
    the removed classes).  The direct side rebuilds the punctured class
    group: on the line it is cyclic of order gcd of the degrees; on the
    curve the quotient of the point group by the subgroup the removed
    places generate is enumerated, which needs the infinite place to be
    removed.  Only the formula side reads the pic_mod2 coordinates.
    """
    S = _clean_places(S)
    formula = pic_complement_two_rank(model, S)
    direct = _pic_two_rank_direct(model, S)
    if formula != direct:
        raise VerificationError(
            "punctured class group ranks disagree: formula %d, direct %d"
            % (formula, direct))
    return {"formula_rank": formula, "direct_rank": direct}


def _pic_two_rank_direct(model, S) -> int:
    if model.backend == "projective_line":
        g = 0
        for P in S:
            g = math.gcd(g, P.degree)
        return 1 if g % 2 == 0 else 0
    if model.infinity not in S:
        raise HypothesisError(
            "direct computation unavailable: removing the infinite place "
            "is required to enumerate the punctured class group")
    subgroup = {None}
    gens = [model.pic_class_of_place(P) for P in S if not P.is_infinite]
    changed = True
    while changed:
        changed = False
        for g in gens:
            for h in list(subgroup):
                s = model.add_points(g, h)
                if s not in subgroup:
                    subgroup.add(s)
                    changed = True
    points = model.rational_points()
    halves = sum(1 for P in points if model.add_points(P, P) in subgroup)
    assert halves % len(subgroup) == 0
    torsion = halves // len(subgroup)
    rank = torsion.bit_length() - 1
    assert 1 << rank == torsion
    return rank


# -- the compatibility relation on 2-divisible places

def smile(model, q1, q2) -> bool:
    """Whether the new even-order classes at q1 are local squares at q2.

    Removing a single 2-divisible place q1 enlarges the even-order
    classes of the complete curve by one coset; the relation holds when
    every member of that coset is a local square at q2.  Defined only
    for distinct places with 2-divisible classes, and symmetric there.
    """
    if q1 == q2:
        raise ValueError("the relation compares two distinct places")
    for P in (q1, q2):
        if not model.two_divisible(Divisor({P: 1})):
            raise HypothesisError(
                "the class of %s is not 2-divisible, so the relation is "
                "undefined" % P)
    D = Divisor({q1: 1})
    lam = model.function_with_divisor(D - 2 * model.halve_in_pic(D))
    base = _global_even_generators(model)
    for mask in range(1 << len(base)):
        if local_square_class(_product(model, base, mask) * lam, q2) != (0, 0):
            return False
    return True
