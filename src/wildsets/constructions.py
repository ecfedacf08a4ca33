"""Constructions of wild-set certificates, one per sufficient condition.

Each public entry point is a gate that checks its input's hypotheses,
refusing with the failed one spelled out, in front of a private builder
that trusts them.  Builders call builders only on places a passed gate
covers; a set tracked through a certificate's matching is gated again.
Every gate reads its place list through _clean_places, so an empty or
repeated list is unusable input (ValueError), not a refusal: the empty
set is the wild set of every tame self-equivalence.  A refusal proves S
is not wild only when S has fewer than 2 rk G points or a point where
-1 is not a local square; any other (a rank outside the route's range,
dependent P, an indivisible q, the pairing condition, _sing_element)
says only that this route's hypothesis fails.  A glue compose cannot
rebuild, or a triple no image fits, raises SearchExhausted: undecided.

The constructions bottom out in explicit pre-equivalences -- a handful
of functions with known divisors and the Klein-four maps matching their
local classes -- which are then extended and certified through the
generic machinery.  Nothing returned here bypasses verification.
"""

from __future__ import annotations

from .equivalence_core import (
    PreEquivalence,
    WildSetCertificate,
    _places_by_degree,
    certify,
    compose,
    extend_pre_equivalence,
    verify_pre_equivalence,
)
from .errors import HypothesisError, SearchExhausted
from .local_symbols import (
    ONE,
    U,
    LocalMap,
    local_square_class,
    minus_one_is_square,
    square_class_mul,
    square_class_table,
)
from .function_field import Divisor
from .square_class_spaces import (
    _clean_places,
    _even_class_witness,
    _f2_rank,
    _global_even_generators,
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


def _sing_element(model, p):
    """The first global even generator that is a nonsquare at p."""
    for elem in _global_even_generators(model):
        if local_square_class(elem, p) != ONE:
            return elem
    raise HypothesisError(
        "no everywhere-even-order element is a nonsquare at {%s}" % p)


def _classes_by_mask(elements, places) -> list:
    """The classes at the places of each _product(model, elements, mask)."""
    out = [(ONE,) * len(places)]
    for row in square_class_table(elements, places):
        out += [tuple(map(square_class_mul, v, row)) for v in out]
    return out


def _require_minus_one_square(places) -> None:
    for P in places:
        if not minus_one_is_square(P):
            raise HypothesisError("-1 is not a local square at %s" % P)


def _require_rank_one(model, S) -> tuple:
    """The gate of a pair or triple: distinct, rank exactly 1, -1 square."""
    S = tuple(_clean_places(S))
    rank = g_rank(model, S).rank
    if rank != 1:
        raise HypothesisError("the classes of %s span rank %d, not 1" % (
            "%s and %s" % S if len(S) == 2 else "the triple", rank))
    _require_minus_one_square(S)
    return S


def _track(cert: WildSetCertificate, P):
    """The image of P under the certificate's matching, if recorded."""
    se = cert.equivalence
    return se.image_of(P) if P in se.places else P


# -- rank 0: compositions of singletons

def _rank0(model, S) -> WildSetCertificate:
    """Each 2-divisible place made wild on its own, the results composed.

    The witness of a place's halving has odd order exactly there, so
    fixing its class while multiplying u by it is forced to break the
    order parity; the extension machinery supplies whatever auxiliary
    places the locally trivial classes need.
    """
    cert = None
    for q in S:
        lam = _even_class_witness(model, _single(q))
        cls = local_square_class(lam, q)
        lm = LocalMap.from_pairs([(cls, cls), (U, square_class_mul(U, cls))])
        pe = PreEquivalence(model, (q,), (q,), (lam,), (lam,), (lm,))
        one = certify(extend_pre_equivalence(pe))
        cert = one if cert is None else compose(cert, one)
    assert set(cert.wild_set) == set(S)
    return cert


def construct_rank0(model, S) -> WildSetCertificate:
    """A certificate whose wild set is exactly the 2-divisible set S.

    Gate: S nonempty and distinct, and every class in it 2-divisible.
    """
    S = _clean_places(S)
    for q in S:
        if model.pic_mod2(q) != 0:
            raise HypothesisError(
                "the class of %s is not 2-divisible, so the set has "
                "positive rank" % q)
    return _rank0(model, S)


# -- rank 1, two points

def construct_rank1_pair(model, p, q) -> WildSetCertificate:
    """A wild pair of class rank 1; both proof cases are constructive.

    Gate: p != q, rank exactly 1, -1 a local square at both.  When one
    of the two classes is 2-divisible the matching exchanges the places
    and the witness of the divisible one trades classes with a global
    even-order nonsquare; when neither is, their sum is 2-divisible and
    its witness does the trading while the matching stays put.
    """
    return _pair(model, _require_rank_one(model, (p, q)))


def _pair(model, S) -> WildSetCertificate:
    p, q = S
    if model.pic_mod2(p) == 0:
        p, q = q, p
    lam = _sing_element(model, p)
    if model.pic_mod2(q) == 0:
        # one divisible class: swap construction across the two places
        assert local_square_class(lam, q) == ONE, \
            "reciprocity should make the global nonsquare a square at q"
        mu = _even_class_witness(model, _single(q))
        if local_square_class(mu, p) != ONE:
            mu = mu * lam
        w = local_square_class(mu, q)
        targets = (q, p)
        maps = (LocalMap.from_pairs([(U, w)]), LocalMap.from_pairs([(w, U)]))
    else:
        # neither is divisible, but rank 1 makes their sum divisible
        assert local_square_class(lam, q) != ONE, \
            "reciprocity should spread the nonsquare to the other place"
        mu = _even_class_witness(model, _single(p) + _single(q))
        targets = (p, q)
        maps = tuple(LocalMap.from_pairs([(U, c), (c, U)])
                     for c in (local_square_class(mu, r) for r in (p, q)))
    pe = PreEquivalence(model, (p, q), targets, (lam, mu), (mu, lam), maps)
    cert = certify(extend_pre_equivalence(pe))
    assert set(cert.wild_set) == {p, q}
    return cert


# -- rank 1, three points

def _aux_point_and_witness(model, S, mu):
    """A fourth point and a function seeing it the way the proof needs.

    Scans 2-divisible places outside S up to DEGREE_CAP for one whose
    halving witness, possibly corrected by a global even-order class, is
    a square at the first point and congruent to mu at the second.
    """
    gens = _global_even_generators(model)
    goal = local_square_class(mu, S[1])
    corrections = _classes_by_mask(gens, S[:2])
    for P in _places_by_degree(model, "point", "admits the witness the "
                               "three-point construction needs"):
        if P in S or model.pic_mod2(P) != 0:
            continue
        base = _even_class_witness(model, _single(P))
        want = (local_square_class(base, S[0]),
                square_class_mul(goal, local_square_class(base, S[1])))
        if want in corrections:
            return P, base * _product(model, gens, corrections.index(want))


def construct_rank1_triple(model, p1, p2, p3) -> WildSetCertificate:
    """A wild triple of class rank 1.

    Gate: distinct places, rank exactly 1, -1 a local square at each.
    With a 2-divisible member the problem splits into a singleton and
    a pair (tracked, so gated) glued together.  Otherwise all three
    pairwise sums halve; their witnesses, one global nonsquare, and one
    auxiliary point found by a bounded search assemble into a
    pre-equivalence that sends the third point off to the auxiliary one.
    """
    return _triple(model, _require_rank_one(model, (p1, p2, p3)))


def _triple(model, S) -> WildSetCertificate:
    p1, p2, p3 = S
    divisible = [P for P in S if model.pic_mod2(P) == 0]
    if divisible:
        head = _rank0(model, divisible[:1])
        rest = [_track(head, P) for P in S if P != divisible[0]]
        cert = compose(head, construct_rank1_pair(model, *rest))
    else:
        lam12 = _even_class_witness(model, _single(p1) + _single(p2))
        lam13 = _even_class_witness(model, _single(p1) + _single(p3))
        mu = _sing_element(model, p1)
        for r in (p2, p3):
            assert local_square_class(mu, r) != ONE, \
                "reciprocity should make mu a primary unit at %s" % r
        p4, nu = _aux_point_and_witness(model, S, mu)
        pe = _fit_triple_images(model, S, p4, (mu, lam12, lam12 * lam13),
                                (mu, lam12, nu))
        cert = certify(extend_pre_equivalence(pe))
    assert set(cert.wild_set) == set(S)
    return cert


def _fit_triple_images(model, S, p4, basis, pool) -> PreEquivalence:
    """The first all-wild pre-equivalence between the two spanned bases.

    The target basis images are searched among the invertible
    combinations of the pool in a fixed order, by class tables, and only
    all-wild ones are formed; reciprocity guarantees a commuting one,
    but which depends on the local unit classes of the witnesses, so
    solving beats transcribing any one case.
    """
    targets = (S[0], S[1], p4)
    src = square_class_table(basis, S)
    dst = _classes_by_mask(pool, targets)
    for code in range(1 << 9):
        rows = (code & 7, code >> 3 & 7, code >> 6 & 7)
        if _f2_rank(rows) != 3:
            continue
        maps = tuple(LocalMap.from_pairs([(c[j], dst[row][j])
                                          for c, row in zip(src, rows)])
                     for j in range(3))
        if all(lm is not None and lm.is_wild for lm in maps):
            images = tuple(_product(model, pool, row) for row in rows)
            pe = PreEquivalence(model, S, targets, basis, images, maps)
            if not verify_pre_equivalence(pe):
                return pe
    raise SearchExhausted(
        "no combination of the witnesses realizes a wild triple; the "
        "search space is complete, so a hypothesis must have failed "
        "undetected")


# -- rank 1, any size

def construct_rank1(model, S) -> WildSetCertificate:
    """A wild set of class rank at most 1, by induction on its size.

    Gate: S nonempty and distinct, of rank at most 1; at rank 1, also
    |S| >= 2 and -1 a local square throughout (rank 0 takes a singleton).
    A rank-1 pair or triple is handled directly; a larger set splits off
    its first two points, whose certificate keeps them among themselves,
    and the remaining points -- tracked through that matching, so gated
    -- are handled recursively and glued on.
    """
    S = tuple(_clean_places(S))
    return _rank_at_most_one(model, S, g_rank(model, S).rank)


def _rank_at_most_one(model, S, rank) -> WildSetCertificate:
    """construct_rank1 past its distinctness check, given S's rank."""
    if rank == 0:
        return _rank0(model, S)
    if rank > 1:
        raise HypothesisError(
            "the classes of S span rank %d; this construction needs "
            "rank at most 1" % rank)
    _require_minus_one_square(S)
    if len(S) < 2:
        raise HypothesisError("a wild set of rank 1 needs at least 2 "
                              "points, got %d" % len(S))
    return _rank1(model, S)


def _rank1(model, S) -> WildSetCertificate:
    if len(S) == 2:
        return _pair(model, S)
    if len(S) == 3:
        return _triple(model, S)
    # two points of a rank-1 set span rank 0 exactly when both rows vanish
    split = _pair if model.pic_mod2(S[0]) or model.pic_mod2(S[1]) else _rank0
    head = split(model, S[:2])
    rest = [_track(head, P) for P in S[2:]]
    cert = compose(head, construct_rank1(model, rest))
    assert set(cert.wild_set) == set(S)
    return cert


# -- arbitrary rank

def construct_general(model, P, Q) -> WildSetCertificate:
    """A wild set of rank m: m independent classes plus n >= m halving ones.

    With m = 0 the set is Q alone, and this is the rank-0 route:
    construct_rank0(model, Q), gate included.  Otherwise the gate: P and
    Q distinct, m <= n, P independent, Q 2-divisible, -1 a local square
    throughout, Q smiling pairwise.  All of it holds for prefixes, so
    the inductive proof runs unchecked from (P[0], Q[0]) on: each next
    pair, tracked through the certificate so far and gated (its rank at
    most 1 asserted, not proven), is made wild and glued on; the
    2-divisible points left over join through the rank-0 route.
    """
    P, Q = tuple(P), tuple(Q)
    if not P:
        return construct_rank0(model, Q)
    _clean_places(P + Q)
    m, n = len(P), len(Q)
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
    # on Q it holds: 2-divisibility forces an even-degree residue field
    _require_minus_one_square(P + Q)
    for i, qi in enumerate(Q):
        for qj in Q[i + 1:]:
            if not smile(model, qi, qj):
                raise HypothesisError(
                    "the points %s and %s do not satisfy the pairing "
                    "condition" % (qi, qj))
    if m == 1:  # P[0] has a nonzero pic_mod2 row, Q only zero ones
        return _rank1(model, P + Q)
    cert = _pair(model, (P[0], Q[0]))
    for p, q in zip(P[1:], Q[1:]):
        pair = (_track(cert, p), _track(cert, q))
        if pair[0] == pair[1]:
            raise HypothesisError("the requested places are not distinct")
        rank = g_rank(model, pair).rank
        assert rank <= 1, "the image pair spans rank %d; the certificate " \
            "so far failed to absorb the dependence" % rank
        cert = compose(cert, _rank_at_most_one(model, pair, rank))
    leftovers = [_track(cert, q) for q in Q[m:]]
    if leftovers:
        cert = compose(cert, construct_rank0(model, leftovers))
    assert set(cert.wild_set) == set(P) | set(Q)
    return cert
