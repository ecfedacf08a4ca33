"""Finite certificates for self-equivalences and their wild sets.

A self-equivalence of the function field pairs a permutation of places
with a square-class automorphism preserving Hilbert symbols; a place is
wild when order parity is not preserved there.  Everything this module
handles is a finite fragment of such a map: a matching of a removed set
with target places, square-class data on the even-order classes, and
one Klein-four isomorphism per removed place.

Two certificate shapes appear.  A pre-equivalence records the map only
modulo the everywhere-locally-trivial classes, which is the natural
granularity for prescribing wild behavior.  A small equivalence, whose
removed set and its image must both kill the punctured class group
modulo doubles, records the map on the even-order classes themselves,
and extension results for such data produce an actual self-equivalence
of the field realizing it.
The bridge between the two -- attach one auxiliary place per basis
element of the locally trivial subspace, chosen to see exactly that
element, and patch the basis to be locally trivial at the new places --
is followed step by step in extend_pre_equivalence.

Verification never trusts the certificate, and both shapes go through
one body.  For a small equivalence it first requires both removed sets,
the places and their images, to kill the class group modulo doubles.
It rechecks membership of the bases through their divisors, then
tabulates the local square class of every basis element at every
removed place and of every image at its target place, once per side.
Independence of the local data, the local/global compatibility square
on every basis element and, for small equivalences, Hilbert-symbol
preservation on all basis pairs are all read off those two tables; the
fate of -1 is checked at every place.  A small equivalence is data
until certify verifies it, once, and reads off its wild set; a
WildSetCertificate is the verified type.
Composition glues two certificates with disjoint wild loci through one
matching route, tried on the whole domain and then on the wild locus
alone (the tame bookkeeping of a composite is partly convention, its
wild locus is not).  Where the prescribed local maps cannot be realized
by any global basis map, tame twists -- which never change wildness --
are searched for by an F_2 solve on the class tables that come with the
bases of both sides, one table serving every ordering of an image pool.
A search that finds nothing raises SearchExhausted, never a refusal:
one image pool proves nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Dict, List, Optional, Tuple

from .base_algebra import _cut, _quoted, checked_field
from .elliptic_curve import EllipticModel
from .errors import HypothesisError, SearchExhausted, VerificationError
from .local_symbols import (
    ONE,
    U,
    LocalMap,
    local_square_class,
    minus_one_is_square,
    square_class_hilbert,
    square_class_parse,
    square_class_str,
    square_class_table,
)
from .projective_line import ProjectiveLine
from .square_class_spaces import (
    _clean_places,
    _f2_rank,
    _kernel_basis,
    _pack,
    _product,
    _reduce,
    _sing_relations,
    _xor_insert,
    delta_space,
    g_rank,
    pic_complement_two_rank,
)

__all__ = [
    "SMALL_EQUIVALENCE_CHECKS",
    "PreEquivalence",
    "SmallEquivalence",
    "WildSetCertificate",
    "quotient_basis",
    "verify_pre_equivalence",
    "verify_small_equivalence",
    "certify",
    "compose",
    "extend_pre_equivalence",
    "check_necessary_condition",
    "certificate_to_json",
    "certificate_from_json",
]

# Budgets of the bounded searches behind extend and compose.  A search
# that the budget cuts short raises SearchExhausted, and so does
# compose's matching route whenever it finds nothing.
DEGREE_CAP = 6  # the default degree cap: auxiliary places up to this degree
PERMUTATION_CAP = 40320  # orderings of a wild locus's pool compose tries (8!)
TWIST_KERNEL_BITS = 20  # _sandwich_solve walks 2^min(kernel dim, this)


# -- certificate data types

class _PlaceMatching:
    """Shared shape of both certificate types: places, images, local maps."""

    __slots__ = ("model", "places", "images", "local_maps")

    def __init__(self, model, places, images, local_maps):
        self.model = model
        self.places = tuple(places)
        self.images = tuple(images)
        self.local_maps = tuple(local_maps)
        _clean_places(self.places)
        if len(self.images) != len(self.places):
            raise ValueError("need exactly one image per removed place")
        if len(self.local_maps) != len(self.places):
            raise ValueError("need exactly one local map per removed place")
        for m in self.local_maps:
            if not isinstance(m, LocalMap):
                raise TypeError("local maps must be LocalMap instances, got %r" % (m,))

    def image_of(self, place):
        return self.images[self.places.index(place)]


class PreEquivalence(_PlaceMatching):
    """Square-class data prescribed modulo the locally trivial classes.

    The recorded basis spans the even-order classes modulo those that
    are local squares at every removed place, and the images span the
    same quotient on the target side.  Construct freely; nothing is
    checked beyond shape until verify_pre_equivalence runs.
    """

    __slots__ = ("quotient_basis", "quotient_images")

    def __init__(self, model, places, images, quotient_basis, quotient_images,
                 local_maps):
        super().__init__(model, places, images, local_maps)
        self.quotient_basis = tuple(quotient_basis)
        self.quotient_images = tuple(quotient_images)
        if len(self.quotient_images) != len(self.quotient_basis):
            raise ValueError("basis and images must have the same length")

    def __repr__(self) -> str:
        return "PreEquivalence(%d places, basis of %d)" % (
            len(self.places), len(self.quotient_basis))


class SmallEquivalence(_PlaceMatching):
    """Square-class data on the full group of even-order classes.

    Valid only when the classes of the removed set, and those of its
    image, exhaust the class group modulo doubles; then the even-order
    classes embed into the product of the local square-class groups and
    the recorded basis determines the map completely.  Construct freely:
    an instance is data until certify verifies it.
    """

    __slots__ = ("sing_basis", "sing_images")

    def __init__(self, model, places, images, sing_basis, sing_images,
                 local_maps):
        super().__init__(model, places, images, local_maps)
        self.sing_basis = tuple(sing_basis)
        self.sing_images = tuple(sing_images)
        if len(self.sing_images) != len(self.sing_basis):
            raise ValueError("basis and images must have the same length")

    def __repr__(self) -> str:
        return "SmallEquivalence(%d places, basis of %d)" % (
            len(self.places), len(self.sing_basis))


class WildSetCertificate:
    """A verified small equivalence packaged with its wild set.

    The wild set is computed, never claimed: it is read off the local
    maps after verification.  Holding an instance means the necessary
    size bound against the rank of the wild classes has been checked.
    """

    __slots__ = ("equivalence", "wild_set", "report")

    def __init__(self, equivalence, wild_set, report):
        self.equivalence = equivalence
        self.wild_set = tuple(wild_set)
        self.report = dict(report)
        members = set(equivalence.places)
        for P in self.wild_set:
            if P not in members:
                raise VerificationError(
                    "wild point %s lies outside the removed set" % P)
        if not check_necessary_condition(equivalence.model, self.wild_set):
            raise VerificationError(
                "a wild set of %d places cannot have class rank %d"
                % (len(self.wild_set),
                   g_rank(equivalence.model, self.wild_set).rank))

    def __repr__(self) -> str:
        return "WildSetCertificate(wild {%s} in %d places)" % (
            ", ".join(str(P) for P in self.wild_set), len(self.equivalence.places))


# -- bases of the quotient

def quotient_basis(model, S) -> Tuple[Tuple, List[List]]:
    """Even-order classes spanning them modulo the locally trivial ones.

    The generators of the enclosing space whose local data at the
    removed places is not spanned by that of the generators before
    them: those whose index is the top bit of no relation among the
    local data, with their rows of the class table it read.  The
    quotient has one dimension per removed place, so the basis always
    has exactly len(S) elements.
    """
    space, table, relations = _sing_relations(model, S)
    closed = {r.bit_length() - 1 for r in relations}
    kept = [i for i in range(len(table)) if i not in closed]
    if len(kept) != len(space.removed):
        raise VerificationError(
            "quotient of rank %d over %d removed places"
            % (len(kept), len(space.removed)))
    return tuple(space.generators[i] for i in kept), [table[i] for i in kept]


# -- verification

def _require_rank_zero(model, removed, which: str) -> None:
    """Raise HypothesisError unless removing the set kills Pic/2Pic.

    Over such a set the even-order classes embed into the product of
    the local square-class groups, which every statement about a small
    equivalence silently depends on.
    """
    leftover = pic_complement_two_rank(model, removed)
    if leftover != 0:
        raise HypothesisError(
            "the %s set leaves class rank %d; a small equivalence needs "
            "rank 0" % (which, leftover))


def _side_classes(places, elements, failures, side):
    """Check one side's basis and tabulate its local square classes.

    The basis needs one element per place, even order off the places
    and independent local data at them.  Returns whether it passes and
    the table whose row i holds the class of elements[i] at each place
    in order; the later checks read their classes off this table.
    """
    ok = True
    if len(elements) != len(places):
        failures.append("%s basis has %d elements for %d places"
                        % (side, len(elements), len(places)))
        ok = False
    removed = set(places)
    for b in elements:
        for P, n in b.divisor().items():
            if P not in removed and n % 2:
                failures.append("%s basis element %s has odd order at %s"
                                % (side, b, P))
                ok = False
                break
    table = square_class_table(elements, places)
    if _f2_rank([_pack(row) for row in table]) != len(elements):
        failures.append("%s basis is dependent modulo the locally trivial "
                        "classes" % side)
        ok = False
    return ok, table


def _verification_report(matching, basis, images, small: bool) -> dict:
    """The checks of both certificate shapes, over one class table per side.

    Every shape gets injectivity, both bases, the unit class and the
    diagram; a small equivalence first has its domain checked and then
    also gets symbol preservation and the class of -1.
    """
    places, targets = matching.places, matching.images
    maps = matching.local_maps
    report = {}
    if small:
        _require_rank_zero(matching.model, places, "removed")
        _require_rank_zero(matching.model, targets, "target")
        report["domain_rank_zero"] = True
    failures: List[str] = []
    report["injective"] = len(set(targets)) == len(targets)
    if not report["injective"]:
        failures.append("two places share an image")
    report["source_basis"], src = _side_classes(places, basis, failures,
                                                "source")
    report["target_basis"], dst = _side_classes(targets, images, failures,
                                                "target")
    report["unit_class_fixed"] = all(m.apply(ONE) == ONE for m in maps)
    report["diagram_commutes"] = True
    for b, row, image_row in zip(basis, src, dst):
        for P, lm, a, t in zip(places, maps, row, image_row):
            if lm.apply(a) != t:
                failures.append("diagram breaks at %s on %s" % (P, b))
                report["diagram_commutes"] = False

    if small:
        report["symbols_preserved"] = True
        flags = [(minus_one_is_square(P), minus_one_is_square(Q))
                 for P, Q in zip(places, targets)]
        for i in range(len(basis)):
            for k in range(i, len(basis)):
                for j, (P, (sq, tq)) in enumerate(zip(places, flags)):
                    if square_class_hilbert(src[i][j], src[k][j], sq) != \
                            square_class_hilbert(dst[i][j], dst[k][j], tq):
                        failures.append("symbol of (%s, %s) changes at %s"
                                        % (basis[i], basis[k], P))
                        report["symbols_preserved"] = False

        minus_one = matching.model.constant(matching.model.field.neg(1))
        report["minus_one_fixed"] = True
        for P, Q, lm in zip(places, targets, maps):
            if lm.apply(local_square_class(minus_one, P)) != \
                    local_square_class(minus_one, Q):
                failures.append("the class of -1 is not preserved at %s" % P)
                report["minus_one_fixed"] = False

    report["passes"] = all(report.values())
    report["failures"] = tuple(failures)
    return report


def verify_pre_equivalence(pe: PreEquivalence) -> dict:
    """Check the four defining conditions of a pre-equivalence.

    Returns one boolean per condition -- injectivity of the place map,
    the recorded data being a basis of each quotient, local maps fixing
    the trivial class, and commutation of the local/global square --
    plus the list of specific failures.  Nothing is repaired silently.
    """
    return _verification_report(pe, pe.quotient_basis, pe.quotient_images,
                                 small=False)


# the boolean checks of verify_small_equivalence, besides "passes"
SMALL_EQUIVALENCE_CHECKS = (
    "domain_rank_zero", "injective", "source_basis", "target_basis",
    "unit_class_fixed", "diagram_commutes", "symbols_preserved",
    "minus_one_fixed",
)


def verify_small_equivalence(se: SmallEquivalence) -> dict:
    """Check the defining conditions of a small equivalence.

    The domain condition -- the classes of each removed set, the places
    and their images alike, must exhaust the class group modulo
    doubles -- is a hard failure, raised instead of reported, because
    every later statement silently depends on it.
    On top of the four conditions shared with pre-equivalences this
    spot-checks Hilbert symbol preservation on all basis pairs at all
    removed places, and that every local map fixes the class of -1.
    """
    return _verification_report(se, se.sing_basis, se.sing_images,
                                 small=True)


def check_necessary_condition(model, S) -> bool:
    """Whether S is large enough to be wild: twice its class rank.

    The empty set holds it: it has no classes to span.
    """
    S = tuple(S)
    return not S or len(S) >= 2 * g_rank(model, S).rank


def certify(se: SmallEquivalence) -> WildSetCertificate:
    """Verify a small equivalence and package it with its wild set.

    This is the one place a small equivalence is verified: the data is
    checked once, on both removed sets, and the wild set is then read
    off the recorded Klein-four maps -- a place is wild exactly when its
    map moves the even classes off themselves, which does not depend on
    the choice of local generators.
    """
    report = verify_small_equivalence(se)
    if not report["passes"]:
        raise VerificationError("certificate is invalid: %s"
                                % report["failures"][0])
    wild = sorted(P for P, lm in zip(se.places, se.local_maps) if lm.is_wild)
    return WildSetCertificate(se, tuple(wild), report)


# -- realizing prescribed local maps

def _sandwich_solve(model, local_maps, src_table, dst_table, dst_gens):
    """Match prescribed local data to the embedded target, up to twists.

    Row i of src_table holds the classes of the i-th source generator,
    row k of dst_table those of dst_gens[k], and column j of both is the
    place of local_maps[j].  Pushing a source row through the maps
    dictates where its generator must land, provided that stays inside
    the span of the target rows.  When it does not, sandwiching a map
    between tame twists can repair it: neither side moves the parity of
    the image of u, so no wildness changes.  With x, y the pre- and
    post-twist bits at a place, a prescribed vector shifts linearly in
    x, y and xy: the patterns solve an F_2 system with one consistency
    constraint, checked over the solutions in a fixed order.  The shared
    kernel finds the relations among the columns of the unknowns,
    highest first, and of the prescription, last, each reduced against
    the target span and so free of its basis: the least relation through
    the last column is the solution with every free unknown zero, and
    the others, lowest unknown first, span the twist patterns that keep
    it one.  Returns the adjusted maps and the generator images, the
    products of dst_gens, the one output the basis changes; raises
    VerificationError when no pattern works, and SearchExhausted when
    the solution set was too large to walk.
    """
    # the embedded target, each row tagged with its generator's bit
    shift = len(dst_gens)
    target: Dict[int, int] = {}
    for k, row in enumerate(dst_table):
        if not _xor_insert(target, _pack(row) << shift | 1 << k) >> shift:
            raise VerificationError("the target generators are dependent "
                                    "in their local data")

    # unknowns per place j: pre-twist 3j, post-twist 3j+1, product 3j+2
    prescribed = []
    twist_flips = []
    for row in src_table:
        images_of_b = []
        flips = []
        for j, (start, lm) in enumerate(zip(row, local_maps)):
            image = lm.apply(start)
            images_of_b.append(image)
            # pre-twist feeds the map u times the class instead
            flips.append(_pack([lm.image_of_u], j) if start[0] else 0)
            # post-twist flips the residue bit of odd-parity values,
            # whose parity the pre-twist may itself have moved
            flips.append(_pack([(0, image[0])], j))
            flips.append(_pack([U], j) if start[0] and lm.image_of_u[0] else 0)
        prescribed.append(_pack(images_of_b))
        twist_flips.append(flips)

    # column nvars-1-k stacks every generator's residual for unknown k
    nvars = 3 * len(local_maps)
    columns = [0] * (nvars + 1)
    for v, flips in zip(prescribed, twist_flips):
        for i, w in enumerate(flips[::-1] + [v]):
            columns[i] = (columns[i] << 2 * len(local_maps)
                          | _reduce(target, w << shift) >> shift)
    no_pattern = VerificationError(
        "the prescribed local maps cannot be realized, even after "
        "tame adjustment")
    relations = _kernel_basis(columns)
    if not relations or not relations[-1] >> nvars:
        raise no_pattern
    particular = relations.pop()
    kernel = relations[::-1]

    def unknown(assign: int, k: int) -> int:
        return assign >> (nvars - 1 - k) & 1

    def consistent(assign: int) -> bool:
        return all(unknown(assign, 3 * j + 2)
                   == unknown(assign, 3 * j) & unknown(assign, 3 * j + 1)
                   for j in range(len(local_maps)))

    twists = None
    walked = min(len(kernel), TWIST_KERNEL_BITS)
    for pick in range(1 << walked):
        assign = particular
        for k, vec in enumerate(kernel):
            if pick >> k & 1:
                assign ^= vec
        if consistent(assign):
            twists = assign
            break
    if twists is None:
        if walked < len(kernel):
            raise SearchExhausted(
                "no consistent tame adjustment among the first 2^%d of 2^%d "
                "twist patterns" % (walked, len(kernel)))
        raise no_pattern

    final_maps = []
    for j, lm in enumerate(local_maps):
        m = lm
        if unknown(twists, 3 * j):
            m = m.compose(LocalMap.tame_twist())
        if unknown(twists, 3 * j + 1):
            m = LocalMap.tame_twist().compose(m)
        final_maps.append(m)
    basis_images = []
    for v, flips in zip(prescribed, twist_flips):
        for k, w in enumerate(flips):
            if unknown(twists, k):
                v ^= w
        combo = _reduce(target, v << shift)
        assert combo >> shift == 0
        basis_images.append(_product(model, dst_gens, combo))
    return tuple(final_maps), tuple(basis_images)


# -- composition

def compose(c1: WildSetCertificate, c2: WildSetCertificate,
            degree_cap: int = DEGREE_CAP) -> WildSetCertificate:
    """Glue two certificates into one for the composed equivalence.

    The composite removes the first set together with the part of the
    second untouched by the first map, composes local maps where the
    image of the first lands in the second's territory, and realizes
    the result from scratch, images in their recorded order.  A
    certificate says nothing about its extension off the stored domain,
    so that can be unsatisfiable as written; only the wild locus is
    binding, and it is rebuilt over the first PERMUTATION_CAP orderings
    of its image pool and re-extended.  When no rebuild is found
    SearchExhausted leaves the question open.  The wild loci must be
    disjoint -- two wild maps would compose to a tame one -- and a place
    of the second set that the first set contains but does not map into
    the second has no consistent reading, so it is rejected as
    misaligned.  degree_cap is the search budget for the auxiliary
    places of that re-extension, as in extend_pre_equivalence.
    """
    se1, se2 = c1.equivalence, c2.equivalence
    if se1.model.key != se2.model.key:
        raise ValueError("certificates live over different fields")
    model = se1.model
    forward = dict(zip(se1.places, se1.images))
    hit = set(se1.images)
    extra = [Q for Q in se2.places if Q not in hit]
    clash = [Q for Q in extra if Q in forward]
    if clash:
        raise ValueError("misaligned domains: %s is removed by both "
                         "certificates but not matched" % clash[0])

    wild2 = set(c2.wild_set)
    pulled_back = {P for P in se1.places if forward[P] in wild2}
    pulled_back.update(Q for Q in extra if Q in wild2)
    overlap = set(c1.wild_set) & pulled_back
    if overlap:
        raise ValueError("wild sets overlap at %s" % sorted(overlap)[0])

    second = dict(zip(se2.places, zip(se2.images, se2.local_maps)))
    places, images, maps = [], [], []
    for P, Q, lm in zip(se1.places, se1.images, se1.local_maps):
        places.append(P)
        if Q in second:
            image, lm2 = second[Q]
            images.append(image)
            maps.append(lm2.compose(lm))
        else:
            images.append(Q)
            maps.append(lm)
    for Q in extra:
        places.append(Q)
        image, lm2 = second[Q]
        images.append(image)
        maps.append(lm2)

    places, images = tuple(places), tuple(images)
    try:
        se = _realize(model, places, maps, images, [images], degree_cap)
    except SearchExhausted:
        keep = [j for j, m in enumerate(maps) if m.is_wild]
        if not keep:
            raise SearchExhausted(
                "the composite data cannot be realized and has no wild part "
                "to rebuild")
        pool = tuple(images[j] for j in keep)
        se = _realize(model, tuple(places[j] for j in keep),
                      tuple(maps[j] for j in keep), pool,
                      itertools.islice(itertools.permutations(pool),
                                       PERMUTATION_CAP),
                      degree_cap)
    cert = certify(se)
    expected = set(c1.wild_set) | pulled_back
    if set(cert.wild_set) != expected:
        raise VerificationError(
            "composition computed wild set {%s}, expected {%s}"
            % (", ".join(map(str, cert.wild_set)),
               ", ".join(map(str, sorted(expected)))))
    return cert


def _realize(model, places, maps, pool, orderings, degree_cap: int
             ) -> SmallEquivalence:
    """The first ordering of pool that realizes maps on places, solved.

    Every ordering permutes the columns of one class table, the source
    basis's when the pool holds the places and else the pool's, since
    only its row span decides the twist solve; a winner in another order
    is solved again on its own quotient_basis.  Where removing the places
    kills the class group modulo doubles the solve is a small
    equivalence; elsewhere extend_pre_equivalence completes it within
    degree_cap.  Raises SearchExhausted when the pool repeats a place or
    no ordering solves, whether the orderings ran out or a twist solve
    met its budget: one pool proves nothing.  The text names the places
    as the wild locus, which they are in the one call whose failure
    compose reports.
    """
    message = ("no matching of the wild locus {%s} into its image pool "
               "realizes the composed local maps within the search budget"
               % ", ".join(str(P) for P in places))
    if len(set(pool)) != len(pool):
        raise SearchExhausted(message)
    src_gens, src_table = quotient_basis(model, places)
    base, (gens, table) = places, (src_gens, src_table)
    if set(pool) != set(places):
        base, (gens, table) = pool, quotient_basis(model, pool)
    for cand in orderings:
        dst_table = [[row[base.index(Q)] for Q in cand] for row in table]
        try:
            final_maps, gen_images = _sandwich_solve(
                model, maps, src_table, dst_table, gens)
        except (VerificationError, SearchExhausted):
            continue
        if cand != base:
            gens, dst_table = quotient_basis(model, cand)
            final_maps, gen_images = _sandwich_solve(
                model, maps, src_table, dst_table, gens)
        if pic_complement_two_rank(model, places) == 0:
            return SmallEquivalence(model, places, cand, src_gens, gen_images,
                                    final_maps)
        pe = PreEquivalence(model, places, cand, src_gens, gen_images,
                            final_maps)
        return extend_pre_equivalence(pe, degree_cap)
    raise SearchExhausted(message)


# -- extension of a pre-equivalence

def _places_by_degree(model, degree_cap: int):
    """Every place of degree at most the cap, by increasing degree.

    Within a degree the finite places come first, in enumeration order,
    and the infinite place last.
    """
    for d in range(1, degree_cap + 1):
        yield from sorted(model.places_of_degree(d),
                          key=lambda Q: Q.is_infinite)


def _auxiliary_places(model, lams, forbidden, degree_cap) -> Tuple:
    """One place per function, seeing it and none of the others.

    Scans places by increasing degree for residues that make exactly
    one of the given locally-trivial functions a nonsquare.  Existence
    is guaranteed only in the limit, so running past the degree cap
    raises instead of returning something wrong.
    """
    found: List[Optional[object]] = [None] * len(lams)
    missing = len(lams)
    for P in _places_by_degree(model, degree_cap):
        if P in forbidden or P in found:
            continue
        nonsquare = [i for i, lam in enumerate(lams)
                     if local_square_class(lam, P) != ONE]
        if len(nonsquare) == 1 and found[nonsquare[0]] is None:
            found[nonsquare[0]] = P
            missing -= 1
            if missing == 0:
                return tuple(found)
    raise SearchExhausted(
        "no places of degree <= %d separate the %d locally trivial classes; "
        "raise the degree cap" % (degree_cap, len(lams)))


def _make_locally_trivial(mus, lams, spots) -> Tuple:
    """Multiply by the matching basis element wherever one is seen.

    Each of the given functions may be a nonsquare at some of the
    spots; the spot's own basis element is a nonsquare exactly there,
    so multiplying repairs that spot without disturbing the others.
    """
    out = []
    for mu in mus:
        for lam, P in zip(lams, spots):
            if local_square_class(mu, P) != ONE:
                mu = mu * lam
        out.append(mu)
    return tuple(out)


def extend_pre_equivalence(pe: PreEquivalence, degree_cap: int = DEGREE_CAP
                           ) -> SmallEquivalence:
    """Complete a pre-equivalence to a small equivalence, literally.

    Requires the class ranks of the two removed sets to coincide; then
    the locally trivial subspaces Delta have a common rank, read off the
    class-group formula; at 0 there is nothing to attach.  Otherwise
    one auxiliary place per basis element of Delta on each side -- the
    place seeing exactly that element -- kills the punctured class
    group.  The places join the removed set carrying the identity local
    map, and the quotient basis is patched to be locally trivial at
    them; two equal removed sets share their Delta and places.  The
    input is verified; the returned small equivalence is data until
    certify verifies it.
    """
    report = verify_pre_equivalence(pe)
    if not report["passes"]:
        raise VerificationError("cannot extend an invalid pre-equivalence: %s"
                                % report["failures"][0])
    model = pe.model
    src_rank = g_rank(model, pe.places).rank
    dst_rank = g_rank(model, pe.images).rank
    if src_rank != dst_rank:
        raise HypothesisError(
            "removed classes span ranks %d and %d; extension needs them "
            "equal" % (src_rank, dst_rank))
    if pic_complement_two_rank(model, pe.places) == 0:
        return SmallEquivalence(model, pe.places, pe.images, pe.quotient_basis,
                                pe.quotient_images, pe.local_maps)
    lams = delta_space(model, pe.places).generators
    spots = _auxiliary_places(model, lams, set(pe.places), degree_cap)
    lams2, spots2 = lams, spots
    if pe.images != pe.places:
        lams2 = delta_space(model, pe.images).generators
        spots2 = _auxiliary_places(model, lams2, set(pe.images), degree_cap)
    return SmallEquivalence(
        model, pe.places + spots, pe.images + spots2,
        lams + _make_locally_trivial(pe.quotient_basis, lams, spots),
        lams2 + _make_locally_trivial(pe.quotient_images, lams2, spots2),
        pe.local_maps + (LocalMap.identity(),) * len(spots))


# -- serialization

def certificate_to_json(cert: WildSetCertificate) -> str:
    """Serialize a certificate to the interchange JSON form."""
    se = cert.equivalence
    data = se.model.header()
    data["S"] = [str(P) for P in se.places]
    data["T"] = [str(Q) for Q in se.images]
    data["quotient_basis"] = [str(b) for b in se.sing_basis]
    data["quotient_images"] = [str(m) for m in se.sing_images]
    data["local_maps"] = [
        {"place": str(P),
         "image_of_u": square_class_str(lm.image_of_u),
         "image_of_pi": square_class_str(lm.image_of_pi)}
        for P, lm in zip(se.places, se.local_maps)]
    data["claimed_wild_set"] = [str(P) for P in cert.wild_set]
    return json.dumps(data, indent=2)


def _strings(data: dict, key: str) -> List[str]:
    value = data[key]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError("certificate field %r must be a list of strings" % key)
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError("%s must be a string, got %s" % (what, _quoted(value)))
    return value


def _local_maps_from_json(parse_place, places, entries) -> List[LocalMap]:
    """One local map per removed place, matched by the parsed place."""
    if not isinstance(entries, list):
        raise ValueError("certificate field 'local_maps' must be a list")
    by_place = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("a local map must be an object, got %s"
                             % _quoted(entry))
        P = parse_place(_string(entry["place"], "a local map's place"))
        if P in by_place:
            raise ValueError("the certificate has two local maps at %s"
                             % _cut(str(P)))
        by_place[P] = LocalMap(
            square_class_parse(_string(entry["image_of_u"], "image_of_u")),
            square_class_parse(_string(entry["image_of_pi"], "image_of_pi")))
    for P in places:
        if P not in by_place:
            raise ValueError("the certificate has no local map at %s"
                             % _cut(str(P)))
    stray = set(by_place) - set(places)
    if stray:
        raise ValueError("the certificate has a local map at %s, which is "
                         "not a removed place" % _cut(str(min(stray))))
    return [by_place[P] for P in places]


# the model class behind each backend name a certificate may carry
_BACKENDS = {cls.backend: cls for cls in (ProjectiveLine, EllipticModel)}


def certificate_from_json(text: str) -> WildSetCertificate:
    """Rebuild and re-verify a certificate from its JSON form.

    The file is untrusted: every field is type-checked, the field size
    must be an odd prime power up to MAX_FIELD_SIZE, and each removed
    place needs exactly one local map; any defect is a ValueError.  The
    model is reconstructed from the backend fields, every place and
    function is reparsed, and the whole certificate goes through
    certify again -- the claimed wild set is compared against the
    recomputed one and a mismatch is an error, not a warning.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the certificate is nested too deeply to read") from None
    if not isinstance(data, dict):
        raise ValueError("a certificate must be a JSON object")
    try:
        backend = data["backend"]
        field = checked_field(data["q"])
        if not isinstance(backend, str) or backend not in _BACKENDS:
            raise ValueError("unknown backend %s" % _quoted(backend))
        model = _BACKENDS[backend].from_header(field, data)
        # S, T, the local maps and the claimed wild set repeat the same
        # place strings, and the functions the same texts, groups and
        # atoms, mostly the places' own polynomials: each finite place
        # enters its base in the function memo as checked, since parsing
        # the place proved it monic irreducible.  A parse that raises is
        # not cached, and both memos die with this call.
        atoms: Dict = {}

        @functools.lru_cache(maxsize=None)
        def parse_place(s: str):
            P = model.parse_place(s)
            if not P.is_infinite:
                atoms[P.base] = True
            return P

        parse = functools.partial(model.parse, atoms=atoms)
        places = [parse_place(s) for s in _strings(data, "S")]
        images = [parse_place(s) for s in _strings(data, "T")]
        basis = [parse(s) for s in _strings(data, "quotient_basis")]
        imaged = [parse(s) for s in _strings(data, "quotient_images")]
        maps = _local_maps_from_json(parse_place, places, data["local_maps"])
        claimed = {parse_place(s)
                   for s in _strings(data, "claimed_wild_set")}
    except KeyError as missing:
        raise ValueError("certificate is missing the %s field" % missing)
    se = SmallEquivalence(model, places, images, basis, imaged, maps)
    cert = certify(se)
    if set(cert.wild_set) != claimed:
        raise VerificationError(
            "claimed wild set {%s} differs from the computed {%s}"
            % (", ".join(sorted(map(str, claimed))),
               ", ".join(map(str, cert.wild_set))))
    return cert
