"""Constructions of wild-set certificates, one per sufficient condition.

Each entry point either returns a verified WildSetCertificate whose wild
set is exactly the requested one, or refuses with the violated
hypothesis spelled out.  The refusals matter as much as the successes:
every precondition checked here can be re-derived independently from
the square-class space computations, so a refusal is a statement about
the input, never about this module's limitations.

The constructions bottom out in explicit pre-equivalences -- a handful
of functions with known divisors and the Klein-four maps matching their
local classes -- which are then extended and certified through the
generic machinery.  Nothing returned here bypasses verification.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .equivalence_core import (
    DEGREE_CAP,
    PreEquivalence,
    WildSetCertificate,
    _places_by_degree,
    certify,
    compose,
    extend_pre_equivalence,
    verify_pre_equivalence,
)
from .errors import HypothesisError, SearchExhausted, VerificationError
from .local_symbols import (
    ONE,
    U,
    LocalMap,
    local_square_class,
    minus_one_is_square,
    square_class_mul,
)
from .function_field import Divisor
from .square_class_spaces import (
    _even_class_witness,
    _f2_rank,
    _global_even_elements,
    _product,
    g_rank,
    smile,
)

__all__ = [
    "construct_rank0",
    "construct_rank1_pair",
    "construct_rank1_triple",
    "construct_rank1",
    "construct_general",
]


# -- small helpers shared by the constructions

def _single(P) -> Divisor:
    return Divisor({P: 1})


def _sing_element(model, nonsquare_at: Sequence, square_at: Sequence = ()):
    """The first everywhere-even-order element with prescribed classes."""
    for elem in _global_even_elements(model):
        if all(local_square_class(elem, P) != ONE for P in nonsquare_at) and \
                all(local_square_class(elem, P) == ONE for P in square_at):
            return elem
    raise HypothesisError(
        "no everywhere-even-order element is a nonsquare at {%s}%s"
        % (", ".join(str(P) for P in nonsquare_at),
           " and a square at {%s}" % ", ".join(str(P) for P in square_at)
           if square_at else ""))


def _require_distinct(places) -> Tuple:
    places = tuple(places)
    if len(set(places)) != len(places):
        raise HypothesisError("the requested places are not distinct")
    return places


def _require_minus_one_square(places) -> None:
    for P in places:
        if not minus_one_is_square(P):
            raise HypothesisError("-1 is not a local square at %s" % P)


def _track(cert: WildSetCertificate, P):
    """The image of P under the certificate's matching, if recorded."""
    se = cert.equivalence
    if P in se.places:
        return se.image_of(P)
    return P


# -- rank 0: compositions of singletons

def _singleton_certificate(model, q, degree_cap: int) -> WildSetCertificate:
    """One 2-divisible place made wild while everything else stays tame.

    The witness of the place's halving has odd order exactly there, so
    fixing its class while multiplying u by it is forced to break the
    order parity; the extension machinery supplies whatever auxiliary
    places the locally trivial classes need.
    """
    lam = _even_class_witness(model, _single(q))
    cls = local_square_class(lam, q)
    lm = LocalMap.from_pairs([(cls, cls), (U, square_class_mul(U, cls))])
    pe = PreEquivalence(model, (q,), (q,), (lam,), (lam,), (lm,))
    return certify(extend_pre_equivalence(pe, degree_cap))


def construct_rank0(model, S, degree_cap: int = DEGREE_CAP
                    ) -> WildSetCertificate:
    """A certificate whose wild set is exactly the 2-divisible set S."""
    S = _require_distinct(S)
    if not S:
        raise HypothesisError("an empty set cannot be a wild set")
    for q in S:
        if model.pic_mod2(q) != 0:
            raise HypothesisError(
                "the class of %s is not 2-divisible, so the set has "
                "positive rank" % q)
    cert = _singleton_certificate(model, S[0], degree_cap)
    for q in S[1:]:
        cert = compose(cert, _singleton_certificate(model, q, degree_cap),
                       degree_cap)
    assert set(cert.wild_set) == set(S)
    return cert


# -- rank 1, two points

def construct_rank1_pair(model, p, q, degree_cap: int = DEGREE_CAP
                         ) -> WildSetCertificate:
    """A wild pair of class rank 1; both proof cases are constructive.

    When one of the two classes is 2-divisible the matching exchanges
    the places and the witness of the divisible one trades classes
    with a global even-order nonsquare; when neither is, their sum is
    2-divisible and its witness does the trading while the matching
    stays put.
    """
    p, q = _require_distinct((p, q))
    rank = g_rank(model, (p, q)).rank
    if rank != 1:
        raise HypothesisError(
            "the classes of %s and %s span rank %d, not 1" % (p, q, rank))
    _require_minus_one_square((p, q))

    if model.pic_mod2(p) == 0:
        p, q = q, p
    if model.pic_mod2(q) == 0:
        # one divisible class: swap construction across the two places
        lam = _sing_element(model, nonsquare_at=(p,))
        assert local_square_class(lam, q) == ONE, \
            "reciprocity should make the global nonsquare a square at q"
        mu = _even_class_witness(model, _single(q))
        if local_square_class(mu, p) != ONE:
            mu = mu * lam
        w = local_square_class(mu, q)
        pe = PreEquivalence(model, (p, q), (q, p), (lam, mu), (mu, lam),
                            (LocalMap.from_pairs([(U, w)]),
                             LocalMap.from_pairs([(w, U)])))
    else:
        # neither is divisible, but rank 1 makes their sum divisible
        lam = _sing_element(model, nonsquare_at=(p,))
        assert local_square_class(lam, q) != ONE, \
            "reciprocity should spread the nonsquare to the other place"
        mu = _even_class_witness(model, _single(p) + _single(q))
        maps = tuple(LocalMap.from_pairs([(U, c), (c, U)])
                     for c in (local_square_class(mu, r) for r in (p, q)))
        pe = PreEquivalence(model, (p, q), (p, q), (lam, mu), (mu, lam),
                            maps)
    cert = certify(extend_pre_equivalence(pe, degree_cap))
    assert set(cert.wild_set) == {p, q}
    return cert


# -- rank 1, three points

def _aux_point_and_witness(model, S, mu, degree_cap: int):
    """A fourth point and a function seeing it the way the proof needs.

    Scans 2-divisible places outside S by degree for one whose halving
    witness, possibly corrected by a global even-order class, is a
    square at the first point and congruent to mu at the second.
    """
    p1, p2 = S[0], S[1]
    goal = local_square_class(mu, p2)
    for P in _places_by_degree(model, degree_cap):
        if P in S or model.pic_mod2(P) != 0:
            continue
        base = _even_class_witness(model, _single(P))
        for sigma in _global_even_elements(model):
            nu = base * sigma
            if local_square_class(nu, p1) == ONE and \
                    local_square_class(nu, p2) == goal:
                return P, nu
    raise SearchExhausted(
        "no point of degree <= %d admits the witness the three-point "
        "construction needs; raise the degree cap" % degree_cap)


def construct_rank1_triple(model, p1, p2, p3, degree_cap: int = DEGREE_CAP
                           ) -> WildSetCertificate:
    """A wild triple of class rank 1.

    With a 2-divisible member the problem splits into a singleton and
    a pair glued together.  Otherwise all three pairwise sums halve;
    their witnesses, one global nonsquare, and one auxiliary point
    found by a bounded search assemble into a pre-equivalence that
    sends the third point off to the auxiliary one.
    """
    S = _require_distinct((p1, p2, p3))
    rank = g_rank(model, S).rank
    if rank != 1:
        raise HypothesisError(
            "the classes of the triple span rank %d, not 1" % rank)
    _require_minus_one_square(S)

    divisible = [P for P in S if model.pic_mod2(P) == 0]
    if divisible:
        q = divisible[0]
        rest = [P for P in S if P != q]
        head = construct_rank0(model, (q,), degree_cap)
        tail = construct_rank1_pair(model, _track(head, rest[0]),
                                    _track(head, rest[1]), degree_cap)
        cert = compose(head, tail, degree_cap)
        assert set(cert.wild_set) == set(S)
        return cert

    lam12 = _even_class_witness(model, _single(p1) + _single(p2))
    lam13 = _even_class_witness(model, _single(p1) + _single(p3))
    lam23 = lam12 * lam13
    mu = _sing_element(model, nonsquare_at=(p1,))
    for r in (p2, p3):
        assert local_square_class(mu, r) != ONE, \
            "reciprocity should make mu a primary unit at %s" % r

    p4, nu = _aux_point_and_witness(model, S, mu, degree_cap)
    pe = _fit_triple_images(model, S, p4, (mu, lam12, lam23),
                            (mu, lam12, nu))
    cert = certify(extend_pre_equivalence(pe, degree_cap))
    assert set(cert.wild_set) == set(S)
    return cert


def _fit_triple_images(model, S, p4, basis, pool) -> PreEquivalence:
    """The first all-wild pre-equivalence between the two spanned bases.

    The target basis images are searched among the invertible
    combinations of the pool in a fixed order; reciprocity guarantees
    a commuting, everywhere-wild assignment exists, but which
    combination works depends on the local unit classes of the
    witnesses, so solving beats transcribing any one case.
    """
    places = tuple(S)
    targets = (S[0], S[1], p4)
    for code in range(1 << 9):
        rows = (code & 7, code >> 3 & 7, code >> 6 & 7)
        if _f2_rank(rows) != 3:
            continue
        images = tuple(_product(model, pool, row) for row in rows)
        maps = []
        for P, Q in zip(places, targets):
            pairs = [(local_square_class(b, P), local_square_class(g, Q))
                     for b, g in zip(basis, images)]
            lm = LocalMap.from_pairs(pairs)
            if lm is None or not lm.is_wild:
                break
            maps.append(lm)
        else:
            pe = PreEquivalence(model, places, targets, basis, images,
                                tuple(maps))
            if verify_pre_equivalence(pe)["passes"]:
                return pe
    raise VerificationError(
        "no combination of the witnesses realizes a wild triple; the "
        "search space is complete, so a hypothesis must have failed "
        "undetected")


# -- rank 1, any size

def construct_rank1(model, S, degree_cap: int = DEGREE_CAP
                    ) -> WildSetCertificate:
    """A wild set of class rank at most 1, by induction on its size.

    Rank 0 delegates to the 2-divisible construction.  At rank 1 a
    pair or triple is handled directly; a larger set splits off its
    first two points, whose certificate keeps them among themselves,
    and the remaining points -- tracked through that matching -- are
    handled recursively and glued on.
    """
    S = _require_distinct(S)
    rank = g_rank(model, S).rank
    if rank == 0:
        return construct_rank0(model, S, degree_cap)
    if rank > 1:
        raise HypothesisError(
            "the classes of S span rank %d; this construction needs "
            "rank at most 1" % rank)
    _require_minus_one_square(S)
    if len(S) < 2:
        raise HypothesisError(
            "a wild set of rank 1 needs at least 2 points, got %d"
            % len(S))
    if len(S) == 2:
        return construct_rank1_pair(model, S[0], S[1], degree_cap)
    if len(S) == 3:
        return construct_rank1_triple(model, S[0], S[1], S[2], degree_cap)

    head = construct_rank1(model, S[:2], degree_cap)
    rest = [_track(head, P) for P in S[2:]]
    cert = compose(head, construct_rank1(model, rest, degree_cap),
                   degree_cap)
    assert set(cert.wild_set) == set(S)
    return cert


# -- arbitrary rank

def construct_general(model, P, Q, degree_cap: int = DEGREE_CAP
                      ) -> WildSetCertificate:
    """A wild set of rank m: m independent classes plus n >= m halving ones.

    Follows the inductive proof: the first m-1 points of each kind
    form the inner instance, the m-th pair -- whose image classes span
    rank at most 1, asserted rather than proven here -- is made wild by
    the pair construction, and any 2-divisible points left over join
    through the rank-0 construction.  All preconditions are named when
    they refuse.
    """
    P = _require_distinct(P)
    Q = _require_distinct(Q)
    _require_distinct(tuple(P) + tuple(Q))
    m, n = len(P), len(Q)
    if m < 1:
        raise HypothesisError("the construction needs at least one "
                              "independent class")
    if m > n:
        raise HypothesisError(
            "%d independent classes need at least as many 2-divisible "
            "points, got %d" % (m, n))
    observed = g_rank(model, P).rank
    if observed != m:
        raise HypothesisError(
            "the classes of P span rank %d, not %d; they are dependent"
            % (observed, m))
    for q in Q:
        if model.pic_mod2(q) != 0:
            raise HypothesisError("the class of %s is not 2-divisible" % q)
        # 2-divisibility forces even degree, where -1 is always a square
        assert minus_one_is_square(q), \
            "a 2-divisible place must have an even-degree residue field"
    _require_minus_one_square(P)
    for i, qi in enumerate(Q):
        for qj in Q[i + 1:]:
            if not smile(model, qi, qj):
                raise HypothesisError(
                    "the points %s and %s do not satisfy the pairing "
                    "condition" % (qi, qj))

    if m == 1:
        return construct_rank1(model, tuple(P) + tuple(Q), degree_cap)

    inner = construct_general(model, P[:m - 1], Q[:m - 1], degree_cap)
    pm, qm = _track(inner, P[m - 1]), _track(inner, Q[m - 1])
    image_rank = g_rank(model, (pm, qm)).rank
    assert image_rank <= 1, (
        "the image pair spans rank %d; the inner certificate failed to "
        "absorb the dependence" % image_rank)
    cert = compose(inner, construct_rank1(model, (pm, qm), degree_cap),
                   degree_cap)
    leftovers = [_track(cert, q) for q in Q[m:]]
    if leftovers:
        cert = compose(cert, construct_rank0(model, leftovers, degree_cap),
                       degree_cap)
    assert set(cert.wild_set) == set(P) | set(Q)
    return cert
