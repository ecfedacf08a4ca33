"""Certificates: verification, extension, composition, serialization.

The pinned certificates here are small enough to check by hand: over
F_5 the constant 2 is the nonsquare, -1 = 4 is a square, and residues
at degree-1 places are plain evaluations, so every local class and
Hilbert symbol in the expected data can be recomputed on paper.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, Tuple

import pytest

from fallback_oracle import place_solve
from wildsets import (cli, constructions, elliptic_curve, equivalence_core,
                      function_field, projective_line, square_class_spaces)
from wildsets.base_algebra import GF, poly_parse
from wildsets.constructions import (
    construct_general,
    construct_rank0,
    construct_rank1,
    construct_rank1_pair,
)
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import (
    PreEquivalence,
    WildSetCertificate,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_necessary_condition,
    compose,
    extend_pre_equivalence,
    quotient_basis,
    verify_pre_equivalence,
    verify_small_equivalence,
)
from wildsets.errors import HypothesisError, SearchExhausted, VerificationError
from wildsets.local_symbols import (
    ONE,
    PI,
    U,
    U_PI,
    LocalMap,
    local_square_class,
    minus_one_is_square,
    square_class_hilbert,
    square_class_table,
)
from wildsets.projective_line import Place, ProjectiveLine
from wildsets.square_class_spaces import (
    _f2_rank,
    _kernel_basis as kernel_basis,
    _pack,
    _product,
    delta_space,
    g_rank,
    pic_complement_two_rank,
    sing_space,
)

SWAP = LocalMap(PI, U)
FIX_PI = LocalMap(U_PI, PI)


def line(q):
    return ProjectiveLine(GF(q))


def lplace(L, text):
    return Place(L, poly_parse(text, L.field))


def identity_certificate(model, texts):
    places = tuple(model.parse_place(s) for s in texts)
    gens = sing_space(model, places).generators
    se = PreEquivalence(model, places, places, gens, gens,
                        (LocalMap.identity(),) * len(places))
    return certify(se)


def wild_pair(L, a, b):
    """The swap certificate on two degree-1 places t+a, t+b.

    The nonsquare constant and the product of the two monic linear
    polynomials swap places; both local maps exchange u with pi.
    """
    p, q = lplace(L, "t + %d" % a), lplace(L, "t + %d" % b)
    lam = L.constant(2)
    mu = L.parse("(t + %d)(t + %d)" % (a, b))
    pe = PreEquivalence(L, (p, q), (p, q), (lam, mu), (mu, lam),
                        (SWAP, SWAP))
    return certify(extend_pre_equivalence(pe))


def wild_singleton(L, text):
    """The certificate making one even-degree place wild, by itself."""
    q = lplace(L, text)
    lam = L.parse(text)
    pe = PreEquivalence(L, (q,), (q,), (lam,), (lam,), (FIX_PI,))
    return certify(extend_pre_equivalence(pe))


# -- quotient bases

def test_quotient_basis_has_one_element_per_place():
    L = line(5)
    for texts in (["t"], ["t", "t + 1"], ["t^2 + 2"], ["t", "t^2 + 2", "inf"]):
        S = [L.parse_place(s) for s in texts]
        basis, table = quotient_basis(L, S)
        assert len(basis) == len(S)
        assert table == [[local_square_class(b, P) for P in S] for b in basis]
        for b in basis:
            for P, n in b.divisor().items():
                assert P in set(S) or n % 2 == 0


# -- pre-equivalence verification

def test_swap_pair_pre_equivalence_verifies():
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    pe = PreEquivalence(L, (p, q), (p, q), (lam, mu), (mu, lam),
                        (SWAP, SWAP))
    assert verify_pre_equivalence(pe) == ()
    # {t, t + 4} kills the class group modulo doubles: nothing to extend
    assert extend_pre_equivalence(pe) is pe


def test_identity_on_basis_with_swapped_maps_breaks_the_diagram():
    # keeping lam -> lam while the local maps swap u and pi cannot
    # commute: the local class of lam at (t) is u, not pi
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    pe = PreEquivalence(L, (p, q), (p, q), (lam, mu), (lam, mu),
                        (SWAP, SWAP))
    assert verify_pre_equivalence(pe) == (
        "diagram breaks at t on 2", "diagram breaks at t + 4 on 2",
        "diagram breaks at t on %s" % mu, "diagram breaks at t + 4 on %s" % mu)


def test_degenerate_local_map_is_rejected_outright():
    with pytest.raises(ValueError):
        LocalMap(ONE, PI)


def test_place_matchings_need_one_image_and_one_local_map_per_place():
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 1")
    basis = (L.constant(2),)
    with pytest.raises(ValueError, match="one image per removed place"):
        PreEquivalence(L, (p, q), (p,), basis, basis, (SWAP, SWAP))
    with pytest.raises(ValueError, match="one local map per removed place"):
        PreEquivalence(L, (p, q), (p, q), basis, basis, (SWAP,))
    with pytest.raises(TypeError, match="must be LocalMap instances"):
        PreEquivalence(L, (p, q), (p, q), basis, basis, (SWAP, (PI, U)))
    with pytest.raises(ValueError, match="must have the same length"):
        PreEquivalence(L, (p, q), (p, q), basis, (), (SWAP, SWAP))


# -- small equivalences and wild sets

def test_wild_pair_certificate_end_to_end():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    assert sorted(str(P) for P in cert.wild_set) == ["t", "t + 4"]
    se = cert.equivalence
    assert verify_small_equivalence(se) == ()
    assert set(certify(se).wild_set) == set(se.places)
    # a wild pair is as small as the bound allows: rank 1 forces >= 2
    assert g_rank(L, cert.wild_set).rank == 1
    assert check_necessary_condition(L, cert.wild_set)
    assert _oracle_rank_preservation_report(cert.equivalence)["passes"]
    # the verified type refuses a wild set it could not have computed
    with pytest.raises(VerificationError, match="wild point t \\+ 1 lies "
                       "outside the removed set"):
        WildSetCertificate(se, (lplace(L, "t + 1"),))
    with pytest.raises(VerificationError, match="a wild set of 1 places "
                       "cannot have class rank 1"):
        WildSetCertificate(se, (lplace(L, "t"),))


def test_identity_certificate_has_no_wild_points():
    L = line(5)
    cert = identity_certificate(L, ["t", "t + 1"])
    assert cert.wild_set == ()
    assert certify(cert.equivalence).wild_set == ()


def test_domain_condition_is_a_hard_error():
    # a lone even-degree place leaves half the class group behind
    L = line(5)
    q = lplace(L, "t^2 + 2")
    gens = sing_space(L, [q]).generators
    se = PreEquivalence(L, (q,), (q,), gens, gens, (LocalMap.identity(),))
    with pytest.raises(HypothesisError):
        verify_small_equivalence(se)


def test_certify_refuses_a_record_that_still_needs_extension():
    # the wild singleton's data before extension is a valid
    # pre-equivalence, but its lone even-degree place leaves class rank 1
    L = line(5)
    q = lplace(L, "t^2 + 2")
    lam = L.parse("t^2 + 2")
    pe = PreEquivalence(L, (q,), (q,), (lam,), (lam,), (FIX_PI,))
    assert verify_pre_equivalence(pe) == ()
    with pytest.raises(HypothesisError,
                       match="the removed set leaves class rank 1"):
        certify(pe)
    assert certify(extend_pre_equivalence(pe)).wild_set == (q,)


def test_target_set_of_positive_rank_is_a_hard_error():
    # (t) kills the class group modulo doubles but (t^2+2) does not; the
    # data is otherwise consistent, so only the target condition fails
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t^2 + 2")
    se = PreEquivalence(L, (p,), (q,), (L.constant(2),),
                        (L.parse("t^2 + 2"),), (SWAP,))
    with pytest.raises(HypothesisError, match="the target set leaves "
                       "class rank 1; a small equivalence needs rank 0"):
        verify_small_equivalence(se)
    with pytest.raises(HypothesisError, match="target set"):
        certify(se)


def test_wild_maps_break_the_symbols_where_minus_one_is_a_nonsquare():
    # over F_3, -1 = 2 is a nonsquare at degree-1 places; trading the
    # constant 2 for t/(t+1) commutes with the swap at (t) and with
    # u -> u*pi, pi -> pi at (t+1), but squares the symbol (u, u) = +1
    # into (pi, pi) = -1 and moves the class of -1 off itself
    L = line(3)
    p, q = lplace(L, "t"), lplace(L, "t + 1")
    two, f = L.constant(2), L.parse("t / (t + 1)")
    se = PreEquivalence(L, (p, q), (p, q), (two, f), (f, two),
                        (SWAP, FIX_PI))
    assert verify_small_equivalence(se) == tuple(
        ["symbol of (2, 2) changes at %s" % P for P in (p, q)]
        + ["symbol of (%s, %s) changes at %s" % (f, f, P) for P in (p, q)]
        + ["the class of -1 is not preserved at %s" % P for P in (p, q)])


def test_certify_refuses_invalid_data():
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    se = PreEquivalence(L, (p, q), (p, q), (lam, mu), (lam, mu),
                        (SWAP, SWAP))
    with pytest.raises(VerificationError):
        certify(se)


# -- extension

def test_singleton_extension_matches_the_hand_computation():
    # Delta over {t^2+2} is spanned by the constant 2, which is a
    # square in F_25 but not in F_5, so the scan stops at (t); the
    # basis element t^2+2 sees 2 there and gets patched by it.
    L = line(5)
    cert = wild_singleton(L, "t^2 + 2")
    se = cert.equivalence
    assert [str(P) for P in se.places] == ["t^2 + 2", "t"]
    assert se.places == se.images
    assert [str(b) for b in se.quotient_basis] == ["2", "2 * (t^2 + 2)^1"]
    assert [str(P) for P in cert.wild_set] == ["t^2 + 2"]
    assert se.local_maps[0].is_wild and se.local_maps[1].is_identity


def test_extension_needs_equal_class_ranks():
    # a valid matching of (t) with (t^2+2), but their classes span
    # different chunks of the class group, so no extension exists
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t^2 + 2")
    pe = PreEquivalence(L, (p,), (q,), (L.constant(2),),
                        (L.parse("t^2 + 2"),), (SWAP,))
    assert verify_pre_equivalence(pe) == ()
    with pytest.raises(HypothesisError):
        extend_pre_equivalence(pe)


def test_extension_respects_the_degree_cap(monkeypatch):
    L = line(5)
    q = lplace(L, "t^2 + 2")
    lam = L.parse("t^2 + 2")
    pe = PreEquivalence(L, (q,), (q,), (lam,), (lam,), (FIX_PI,))
    monkeypatch.setattr(equivalence_core, "DEGREE_CAP", 0)
    with pytest.raises(SearchExhausted):
        extend_pre_equivalence(pe)


def test_extension_refuses_an_invalid_pre_equivalence():
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    pe = PreEquivalence(L, (p, q), (p, q), (lam, mu), (lam, mu),
                        (SWAP, SWAP))
    with pytest.raises(VerificationError):
        extend_pre_equivalence(pe)


def test_place_swapping_pair_with_a_divisible_member():
    # one class 2-divisible, the other not: the matching exchanges the
    # two places, the nonsquare constant and the adjusted witness
    # 2(t^2+2) exchange classes, and both places come out wild
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t^2 + 2")
    lam, mu = L.constant(2), L.parse("2(t^2 + 2)")
    pe = PreEquivalence(L, (p, q), (q, p), (lam, mu), (mu, lam),
                        (SWAP, SWAP))
    cert = certify(extend_pre_equivalence(pe))
    assert sorted(str(P) for P in cert.wild_set) == ["t", "t^2 + 2"]
    assert cert.equivalence.places == (p, q)
    assert cert.equivalence.images == (q, p)


def translation(L):
    """The tame certificate shifting {t, t+1} onto {t+2, t+3}."""
    places = (lplace(L, "t"), lplace(L, "t + 1"))
    images = (lplace(L, "t + 2"), lplace(L, "t + 3"))
    basis = (L.parse("t(t + 1)"), L.constant(2))
    imaged = (L.parse("(t + 2)(t + 3)"), L.constant(2))
    pe = PreEquivalence(L, places, images, basis, imaged,
                        (LocalMap.identity(),) * 2)
    return certify(extend_pre_equivalence(pe))


def test_translation_certificate_is_tame():
    cert = translation(line(5))
    assert cert.wild_set == ()
    assert [str(Q) for Q in cert.equivalence.images] == ["t + 2", "t + 3"]


# -- composition

def test_composing_with_an_identity_changes_nothing():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    ident = identity_certificate(L, ["t", "t + 4"])
    for left, right in ((cert, ident), (ident, cert)):
        both = compose(left, right)
        assert both.wild_set == cert.wild_set
        assert both.equivalence.local_maps == cert.equivalence.local_maps


def test_overlapping_wild_sets_are_rejected():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    with pytest.raises(ValueError, match="overlap"):
        compose(cert, wild_pair(L, 0, 4))


def test_misaligned_domains_are_rejected():
    L = line(5)
    pair = wild_pair(L, 0, 1)
    # the translation removes (t) but sends it to (t+2), so a second
    # certificate removing (t) again has no consistent reading
    with pytest.raises(ValueError, match="misaligned"):
        compose(translation(L), pair)


def test_composing_two_wild_pairs_needs_a_tame_sandwich():
    # gluing the swap pairs on {t, t+4} and {t+3, t+2} prescribes data
    # that no basis map matches as written; the solver must wrap the
    # maps at (t) and (t+2) in tame twists, which keeps all four places
    # wild but turns those two maps into u -> u*pi, pi -> pi
    L = line(5)
    both = compose(wild_pair(L, 0, 4), wild_pair(L, 3, 2))
    assert sorted(str(P) for P in both.wild_set) == \
        ["t", "t + 2", "t + 3", "t + 4"]
    assert all(m.is_wild for m in both.equivalence.local_maps)
    assert g_rank(L, both.wild_set).rank == 1
    assert _oracle_rank_preservation_report(both.equivalence)["passes"]
    maps = dict(zip((str(P) for P in both.equivalence.places),
                    both.equivalence.local_maps))
    assert maps["t"] == LocalMap(U_PI, PI)
    assert maps["t + 2"] == LocalMap(U_PI, PI)
    assert maps["t + 4"] == SWAP
    assert maps["t + 3"] == SWAP


def test_disjoint_singletons_compose_to_their_union():
    L = line(5)
    both = compose(wild_singleton(L, "t^2 + 2"), wild_singleton(L, "t^2 + 3"))
    assert sorted(str(P) for P in both.wild_set) == ["t^2 + 2", "t^2 + 3"]
    assert [str(P) for P in both.equivalence.places] == \
        ["t^2 + 2", "t", "t^2 + 3"]


def test_composition_is_associative_on_disjoint_singletons():
    L = line(5)
    c1 = wild_singleton(L, "t^2 + 2")
    c2 = wild_singleton(L, "t^2 + 3")
    c3 = wild_singleton(L, "t^2 + t + 1")
    left = compose(compose(c1, c2), c3)
    right = compose(c1, compose(c2, c3))
    assert left.equivalence.places == right.equivalence.places
    assert left.equivalence.images == right.equivalence.images
    assert left.equivalence.local_maps == right.equivalence.local_maps
    assert (left.equivalence.quotient_images
            == right.equivalence.quotient_images)
    assert left.wild_set == right.wild_set
    assert sorted(str(P) for P in left.wild_set) == \
        ["t^2 + 2", "t^2 + 3", "t^2 + t + 1"]


def count_builds(monkeypatch):
    """Count sing_space and delta_space calls at every module binding."""
    counts = {"sing_space": 0, "delta_space": 0}
    for name in counts:
        original = getattr(square_class_spaces, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (square_class_spaces, equivalence_core, constructions):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_extension_and_glue_build_each_space_once(monkeypatch):
    L = line(5)
    c1, c2 = (construct_rank0(L, [lplace(L, s)])
              for s in ("t^2 + 2", "t^2 + 3"))
    counts = count_builds(monkeypatch)
    # rk Delta = 0: nothing to attach, so no Delta is built
    construct_rank1_pair(L, lplace(L, "t"), lplace(L, "t + 4"))
    assert counts == {"sing_space": 0, "delta_space": 0}
    # both sides remove the same places: one Delta for the two
    construct_rank0(L, [lplace(L, "t^2 + 2")])
    assert counts["delta_space"] == 1
    # a glue whose images are its places: one sing_space for the two
    counts.update(sing_space=0, delta_space=0)
    glued = compose(c1, c2)
    assert glued.equivalence.images == glued.equivalence.places
    assert counts == {"sing_space": 1, "delta_space": 0}


def test_an_all_tame_composite_that_cannot_be_glued_is_undecided(
        monkeypatch):
    # without the guard the wild-locus search would remove no place, and
    # quotient_basis would refuse the empty set
    tame = identity_certificate(line(5), ["t"])

    def no_glue(*args):
        raise VerificationError("forced")

    monkeypatch.setattr(equivalence_core, "_sandwich_solve", no_glue)
    with pytest.raises(SearchExhausted, match="has no wild part to rebuild"):
        compose(tame, tame)


def test_a_twist_walk_the_allowance_cuts_ends_the_search(monkeypatch):
    # the pool's first ordering wins after examining 17 twist patterns;
    # 10 nodes cut that walk after 9, and the search reports the cut,
    # whether more orderings follow or, as for compose's whole-domain
    # glue, none does
    L = line(5)
    places = (lplace(L, "t + 2"), lplace(L, "t^2 + 3"))
    pool = (lplace(L, "t + 1"), lplace(L, "t^2 + 2t + 4"))
    maps = (LocalMap(U, U_PI), LocalMap(PI, U_PI))
    walks = []
    solve = equivalence_core._sandwich_solve

    def counting(*args):
        walks.append(0)

        def charge():
            args[-1]()
            walks[-1] += 1

        return solve(*args[:-1], charge)

    def realize(orderings):
        return equivalence_core._realize(L, places, maps, pool, orderings)

    monkeypatch.setattr(equivalence_core, "_sandwich_solve", counting)
    assert realize(itertools.permutations(pool)).images[:2] == pool
    assert walks == [17]
    monkeypatch.setattr(equivalence_core, "MATCHING_ALLOWANCE", 10)
    for orderings in (itertools.permutations(pool), [pool]):
        del walks[:]
        with pytest.raises(SearchExhausted) as cut:
            realize(orderings)
        assert walks == [9]
        assert str(cut.value) == (
            "the matching search for the wild locus {t + 2, t^2 + 3} was "
            "cut at its allowance of 10 orderings and twist patterns before "
            "it finished its image pool")


def test_certificates_over_different_fields_do_not_compose():
    with pytest.raises(ValueError, match="different fields"):
        compose(wild_singleton(line(5), "t^2 + 2"),
                wild_singleton(line(13), "t^2 + 2"))


# -- necessary condition and rank bookkeeping

def test_size_bound_against_class_rank():
    L = line(5)
    assert not check_necessary_condition(L, [lplace(L, "t")])
    assert check_necessary_condition(L, [lplace(L, "t"), lplace(L, "t + 4")])
    # 2-divisible places generate nothing, so even a singleton passes
    assert check_necessary_condition(L, [lplace(L, "t^2 + 2")])


def test_verifier_catches_a_doctored_image_basis():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    se = cert.equivalence
    # an image picking up odd order at (t+1), outside the target set
    bad = se.quotient_images[0] * L.parse("t + 1")
    doctored = PreEquivalence(
        L, se.places, se.images, se.quotient_basis,
        (bad,) + se.quotient_images[1:], se.local_maps)
    # (t+1) also moves the local class of the image at (t+4)
    assert verify_small_equivalence(doctored) == (
        "target basis element %s has odd order at inf" % bad,
        "diagram breaks at t + 4 on %s" % se.quotient_basis[0])
    with pytest.raises(VerificationError, match="odd order at inf"):
        certify(doctored)


# -- serialization

def test_json_round_trip_on_the_line():
    L = line(5)
    cert = compose(wild_pair(L, 0, 4), wild_pair(L, 3, 2))
    text = certificate_to_json(cert)
    data = json.loads(text)
    assert list(data) == ["backend", "q", "S", "T", "quotient_basis",
                          "quotient_images", "local_maps",
                          "claimed_wild_set"]
    assert data["backend"] == "projective_line"
    assert data["q"] == 5
    back = certificate_from_json(text)
    assert back.wild_set == cert.wild_set
    assert back.equivalence.local_maps == cert.equivalence.local_maps
    assert certificate_to_json(back) == text


def test_json_round_trip_on_a_curve():
    model = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
    cert = identity_certificate(
        model, ["(t; ramified)", "(t + 1; ramified)", "(t + 3; split; 1)"])
    text = certificate_to_json(cert)
    data = json.loads(text)
    assert data["backend"] == "elliptic_curve"
    assert data["curve"] == "t^3 + 4*t"
    back = certificate_from_json(text)
    assert back.wild_set == cert.wild_set == ()
    assert [str(P) for P in back.equivalence.places] == list(data["S"])


@pytest.mark.parametrize("backend", ["line", "curve"])
def test_reading_a_certificate_tests_each_polynomial_once(backend, monkeypatch):
    """A polynomial that is both a place and an atom of a function is
    tested for irreducibility once, when the place is parsed, and not
    factored; any other polynomial is factored at most once."""
    if backend == "line":
        L = line(5)
        text = certificate_to_json(compose(wild_pair(L, 0, 4), wild_pair(L, 3, 2)))
    else:
        model = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
        text = certificate_to_json(identity_certificate(
            model, ["(t; ramified)", "(t + 1; ramified)", "(t + 3; split; 1)"]))
    tested, factored = [], []
    test, factor = projective_line.poly_is_irreducible, function_field.poly_factor

    def counted(f, F):
        tested.append(f)
        return test(f, F)

    def counted_factor(f, F):
        factored.append(f)
        return factor(f, F)

    for module in (projective_line, elliptic_curve, function_field):
        monkeypatch.setattr(module, "poly_is_irreducible", counted)
    for module in (function_field, elliptic_curve):
        monkeypatch.setattr(module, "poly_factor", counted_factor)
    certificate_from_json(text)
    assert tested
    # a constant is not factored, and every polynomial of a line
    # certificate is a place's, so only the curve's pairs are factored
    assert bool(factored) == (backend == "curve")
    assert len(tested) == len(set(tested))
    assert len(factored) == len(set(factored))
    assert not set(tested) & set(factored)


def test_tampered_wild_claims_are_caught():
    L = line(5)
    data = json.loads(certificate_to_json(wild_pair(L, 0, 4)))
    data["claimed_wild_set"] = data["claimed_wild_set"][:1]
    with pytest.raises(VerificationError, match="claimed wild set"):
        certificate_from_json(json.dumps(data))


def test_unknown_backend_and_missing_fields_are_rejected():
    L = line(5)
    good = json.loads(certificate_to_json(wild_singleton(L, "t^2 + 2")))
    bad = dict(good)
    bad["backend"] = "hyperelliptic"
    with pytest.raises(ValueError, match="backend"):
        certificate_from_json(json.dumps(bad))
    for key in ("q", "S", "local_maps", "claimed_wild_set"):
        partial = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match="missing"):
            certificate_from_json(json.dumps(partial))


# -- the twist solve against the triangular solve it replaced
#
# The solve below is the earlier implementation of _sandwich_solve, kept
# verbatim as the oracle: it ran its own triangular basis, Gauss-Jordan
# pass and free-variable extraction instead of the shared F_2 kernel.
# It reads the classes at the places itself; the package's solve reads
# class tables, which place_solve tabulates for it.  The oracle keeps its
# own bound on the twist walk: at most 2^ORACLE_TWIST_BITS patterns.

ORACLE_TWIST_BITS = 20


def _oracle_sandwich_solve(model, places, images, local_maps, src_gens, dst_gens):
    """Match prescribed local data to the embedded target, up to twists.

    Pushing the local classes of each source generator through the
    prescribed maps dictates where it must land -- provided the
    prescription stays inside the span of the target generators' local
    data.  When it does not, sandwiching a map between tame twists can
    repair it: neither side of the sandwich moves the parity of the
    image of u, so no wildness changes.  With x, y the pre- and
    post-twist bits at a place, a prescribed vector shifts linearly in
    x, y and the product xy, so the patterns solve an F_2 linear
    system with one extra consistency constraint, checked over the
    solution set in a fixed order.  Returns the adjusted maps and the
    generator images; raises VerificationError when no pattern works,
    and SearchExhausted when the solution set was too large to walk.
    """
    # triangular basis of the embedded target, remembering combinations
    triangular: Dict[int, Tuple[int, int]] = {}
    for k, c in enumerate(dst_gens):
        v, combo = _pack(local_square_class(c, P) for P in images), 1 << k
        while v:
            top = v.bit_length() - 1
            if top not in triangular:
                triangular[top] = (v, combo)
                break
            bv, bc = triangular[top]
            v ^= bv
            combo ^= bc
        else:
            raise VerificationError("the target generators are dependent "
                                    "in their local data")

    def reduce(v: int) -> Tuple[int, int]:
        residual, combo = 0, 0
        while v:
            top = v.bit_length() - 1
            if top in triangular:
                bv, bc = triangular[top]
                v ^= bv
                combo ^= bc
            else:
                residual |= 1 << top
                v &= (1 << top) - 1
        return residual, combo

    # unknowns per place j: pre-twist 3j, post-twist 3j+1, product 3j+2
    prescribed = []
    twist_flips = []
    for b in src_gens:
        v = 0
        flips = []
        for j, (P, lm) in enumerate(zip(places, local_maps)):
            e0, s0 = local_square_class(b, P)
            e, s = lm.apply((e0, s0))
            v |= e << (2 * j) | s << (2 * j + 1)
            iu_e, iu_s = lm.image_of_u
            # pre-twist feeds the map u times the class instead
            flips.append((iu_e << (2 * j) | iu_s << (2 * j + 1))
                         if e0 else 0)
            # post-twist flips the residue bit of odd-parity values,
            # whose parity the pre-twist may itself have moved
            flips.append(e << (2 * j + 1) if e else 0)
            flips.append(1 << (2 * j + 1) if e0 and iu_e else 0)
        prescribed.append(v)
        twist_flips.append(flips)

    nvars = 3 * len(places)
    equations = []
    for v, flips in zip(prescribed, twist_flips):
        r_v = reduce(v)[0]
        r_flips = [reduce(w)[0] if w else 0 for w in flips]
        bits = r_v
        for r in r_flips:
            bits |= r
        while bits:
            pos = bits.bit_length() - 1
            bits &= (1 << pos) - 1
            coeffs = 0
            for k, r in enumerate(r_flips):
                coeffs |= (r >> pos & 1) << k
            rhs = r_v >> pos & 1
            if coeffs or rhs:
                equations.append(coeffs << 1 | rhs)

    no_pattern = VerificationError(
        "the prescribed local maps cannot be realized, even after "
        "tame adjustment")
    solved: Dict[int, int] = {}
    for eq in equations:
        while eq:
            top = eq.bit_length() - 1
            if top == 0:
                raise no_pattern
            if top not in solved:
                solved[top] = eq
                break
            eq ^= solved[top]
    for top in sorted(solved, reverse=True):
        row = solved[top]
        for other in solved:
            if other != top and solved[other] >> top & 1:
                solved[other] ^= row

    particular = 0
    for top, row in solved.items():
        particular |= (row & 1) << (top - 1)
    free = [k for k in range(nvars) if k + 1 not in solved]
    kernel = []
    for f in free:
        vec = 1 << f
        for top, row in solved.items():
            vec |= (row >> (f + 1) & 1) << (top - 1)
        kernel.append(vec)

    def consistent(assign: int) -> bool:
        for j in range(len(places)):
            x, y, z = (assign >> 3 * j & 1, assign >> (3 * j + 1) & 1,
                       assign >> (3 * j + 2) & 1)
            if z != (x & y):
                return False
        return True

    twists = None
    walked = min(len(kernel), ORACLE_TWIST_BITS)
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
        if twists >> 3 * j & 1:
            m = m.compose(LocalMap.tame_twist())
        if twists >> (3 * j + 1) & 1:
            m = LocalMap.tame_twist().compose(m)
        final_maps.append(m)
    basis_images = []
    for v, flips in zip(prescribed, twist_flips):
        for k, w in enumerate(flips):
            if twists >> k & 1:
                v ^= w
        residual, combo = reduce(v)
        assert residual == 0
        basis_images.append(_product(model, dst_gens, combo))
    return tuple(final_maps), tuple(basis_images)


def _solve_outcome(solve, *args):
    """The solve's result, or its exception and message.

    The two walks word a cut walk apart, so a cut has no message here.
    """
    try:
        return solve(*args)
    except VerificationError as exc:
        return VerificationError, str(exc)
    except SearchExhausted:
        return SearchExhausted, None


def _twist_cases(rng, count):
    """Seeded solve inputs on the F_5/F_9/F_13 lines and an F_5 curve."""
    models = [line(5), line(9), line(13),
              EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))]
    pools = [m.places_of_degree(1) + m.places_of_degree(2) for m in models]
    for _ in range(count):
        which = rng.randrange(len(models))
        model, pool = models[which], pools[which]
        n = rng.randint(1, 4)
        places = tuple(rng.sample(pool, n))
        images = places if rng.random() < 0.5 else tuple(rng.sample(pool, n))
        choices = [LocalMap(iu, ip) for iu in (U, PI, U_PI)
                   for ip in (U, PI, U_PI) if iu != ip]
        if rng.random() < 0.5:
            choices = [LocalMap.identity(), LocalMap.tame_twist(), FIX_PI]
        maps = tuple(rng.choice(choices) for _ in range(n))
        if rng.random() < 0.5:
            src = sing_space(model, places).generators
            dst = sing_space(model, images).generators
        else:
            try:
                src = quotient_basis(model, places)[0]
                dst = quotient_basis(model, images)[0]
            except VerificationError:
                continue
        yield model, places, images, maps, src, dst


def test_twist_solve_matches_the_triangular_solve(monkeypatch):
    import wildsets.equivalence_core as core

    seen = []

    def recording(columns):
        relations = kernel_basis(columns)
        seen.append(list(relations))
        return relations

    monkeypatch.setattr(core, "_kernel_basis", recording)
    rng = random.Random(4096)
    tally = {"kernel": 0, "particular": 0, "no_pattern": 0,
             "dependent": 0, "exhausted": 0, "cases": 0}
    full = ORACLE_TWIST_BITS
    for args in _twist_cases(rng, 240):
        tally["cases"] += 1
        for bits in (full, 0):
            monkeypatch.setitem(globals(), "ORACLE_TWIST_BITS", bits)
            del seen[:]
            new = _solve_outcome(place_solve, *args, 1 << bits)
            assert new == _solve_outcome(_oracle_sandwich_solve, *args)
            if bits == 0 and new[0] is SearchExhausted:
                tally["exhausted"] += 1
            if bits == 0:
                continue
            if new[0] is VerificationError:
                key = "dependent" if "dependent" in new[1] else "no_pattern"
                tally[key] += 1
            nvars = 3 * len(args[1])
            if seen and seen[0] and seen[0][-1] >> nvars:
                tally["kernel"] += len(seen[0]) > 1
                tally["particular"] += seen[0][-1] != 1 << nvars
    assert tally["cases"] >= 200
    for key in ("kernel", "particular", "no_pattern", "exhausted"):
        assert tally[key] >= 10, tally


# -- certify against the certify it replaced
#
# The earlier certify, kept verbatim as the oracle: its verifier checked
# the rank-zero condition on the removed places only, and a second
# report re-derived the target side from class ranks and Delta ranks.

def _oracle_side_classes(places, elements, failures, side):
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


def _oracle_verification_report(matching, basis, images, small: bool) -> dict:
    """The checks of both certificate shapes, over one class table per side.

    Every shape gets injectivity, both bases, the unit class and the
    diagram; a small equivalence first has its domain checked and then
    also gets symbol preservation and the class of -1.
    """
    places, targets = matching.places, matching.images
    maps = matching.local_maps
    report = {}
    if small:
        leftover = pic_complement_two_rank(matching.model, places)
        if leftover != 0:
            raise HypothesisError(
                "the removed set leaves class rank %d; a small equivalence "
                "needs rank 0" % leftover)
        report["domain_rank_zero"] = True
    failures = []
    report["injective"] = len(set(targets)) == len(targets)
    if not report["injective"]:
        failures.append("two places share an image")
    report["source_basis"], src = _oracle_side_classes(
        places, basis, failures, "source")
    report["target_basis"], dst = _oracle_side_classes(
        targets, images, failures, "target")
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


def _oracle_rank_preservation_report(se: PreEquivalence) -> dict:
    """Rank bookkeeping that any genuine certificate must satisfy."""
    model = se.model
    src = g_rank(model, se.places).rank
    dst = g_rank(model, se.images).rank
    removed = set(se.images)
    in_target = all(
        all(P in removed or n % 2 == 0 for P, n in m.divisor().items())
        for m in se.quotient_images)
    delta_src = delta_space(model, se.places).rank
    delta_dst = delta_space(model, se.images).rank
    return {
        "g_rank_source": src,
        "g_rank_target": dst,
        "g_ranks_equal": src == dst,
        "sing_images_in_target": in_target,
        "delta_rank_source": delta_src,
        "delta_rank_target": delta_dst,
        "delta_ranks_equal": delta_src == delta_dst,
        "passes": src == dst and in_target and delta_src == delta_dst,
    }


def _oracle_certify(se: PreEquivalence) -> WildSetCertificate:
    """Verify a small equivalence and package it with its wild set."""
    report = _oracle_verification_report(se, se.quotient_basis,
                                         se.quotient_images, small=True)
    if not report["passes"]:
        raise VerificationError("certificate is invalid: %s"
                                % report["failures"][0])
    ranks = _oracle_rank_preservation_report(se)
    if not ranks["passes"]:
        raise VerificationError("certificate does not preserve ranks: %r"
                                % (ranks,))
    wild = sorted(P for P, lm in zip(se.places, se.local_maps) if lm.is_wild)
    return WildSetCertificate(se, tuple(wild))


def _certify_outcome(certifier, se):
    """The wild set and failures on success; a refusal is any error class
    the command line maps to exit 3, and every other error escapes."""
    try:
        cert = certifier(se)
    except (HypothesisError, VerificationError):
        return "refused", None
    return cert.wild_set, verify_small_equivalence(cert.equivalence)


def _valid_certificates():
    """Constructed certificates on the F_5/F_9/F_13 lines and an F_5 curve."""
    out = []
    for q in (5, 9, 13):
        L = line(q)
        ones, twos = L.places_of_degree(1), L.places_of_degree(2)
        out.append(construct_rank0(L, twos[:2]))
        out.append(construct_rank1(L, ones[1:3]))
        out.append(construct_rank1(L, (ones[0], twos[1])))
    E = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
    ramified = [E.parse_place("(t; ramified)"),
                E.parse_place("(t + 1; ramified)")]
    inert = [E.parse_place("(t^2 + 2; inert)"),
             E.parse_place("(t^2 + 3; inert)")]
    out.append(construct_rank0(E, inert))
    out.append(construct_rank1(E, (ramified[0], inert[1])))
    out.append(construct_general(E, ramified, inert))
    return out


def _odd_outside(model, targets, rng):
    """A function with odd order at some place outside the targets."""
    while True:
        f = model.parse("t + %d" % rng.randrange(model.field.p))
        if any(n % 2 and P not in targets for P, n in f.divisor().items()):
            return f


def _doctored(cert, rng):
    """One certificate, honest or with one of four kinds of damage."""
    se = cert.equivalence
    model, n = se.model, len(se.places)
    kind = rng.choice(("honest", "retarget", "retarget-even", "odd image",
                       "permute maps"))
    if kind == "honest":
        return kind, se
    if kind == "odd image":
        i = rng.randrange(n)
        images = list(se.quotient_images)
        images[i] = images[i] * _odd_outside(model, set(se.images), rng)
        return kind, PreEquivalence(model, se.places, se.images,
                                    se.quotient_basis, images, se.local_maps)
    if kind == "permute maps":
        maps = list(se.local_maps)
        rng.shuffle(maps)
        return kind, PreEquivalence(model, se.places, se.images,
                                    se.quotient_basis, se.quotient_images,
                                    maps)
    degrees = (2,) if kind == "retarget-even" else (1, 2)
    pool = [P for d in degrees for P in model.places_of_degree(d)]
    targets = tuple(rng.sample(pool, n))
    # solve for images matching the local maps on the new targets, so
    # that only the conditions on the target set itself can fail
    try:
        maps, images = place_solve(
            model, se.places, targets, se.local_maps, se.quotient_basis,
            quotient_basis(model, targets)[0])
    except (VerificationError, SearchExhausted):
        return kind + " unsolved", PreEquivalence(
            model, se.places, targets, se.quotient_basis, se.quotient_images,
            se.local_maps)
    return kind, PreEquivalence(model, se.places, targets, se.quotient_basis,
                                images, maps)


def test_certify_matches_the_rank_preserving_certify():
    rng = random.Random(909)
    certs = _valid_certificates()
    tally: Dict[Tuple[str, str], int] = {}
    only_target_rank = 0
    compared = [0, 0]  # passing, failing
    for _ in range(240):
        kind, se = _doctored(rng.choice(certs), rng)
        new = _certify_outcome(certify, se)
        old = _certify_outcome(_oracle_certify, se)
        assert new == old, (kind, se.places, se.images)
        outcome = "refused" if new[0] == "refused" else "accepted"
        tally[kind, outcome] = tally.get((kind, outcome), 0) + 1
        try:
            report = _oracle_verification_report(
                se, se.quotient_basis, se.quotient_images, small=True)
        except HypothesisError:
            continue
        if pic_complement_two_rank(se.model, se.images):
            # the oracle leaves the target set to the rank bookkeeping
            if report["passes"]:
                assert not _oracle_rank_preservation_report(se)["passes"]
                only_target_rank += 1
            with pytest.raises(HypothesisError, match="the target set"):
                verify_small_equivalence(se)
            continue
        failures = verify_small_equivalence(se)
        assert failures == report["failures"], (kind, se.places, se.images)
        assert (failures == ()) == report["passes"]
        compared[bool(failures)] += 1
    assert tally[("honest", "accepted")] >= 10, tally
    for kind in ("retarget", "retarget-even", "odd image", "permute maps"):
        assert tally.get((kind, "refused"), 0) >= 5, tally
    assert only_target_rank >= 10, (only_target_rank, tally)
    assert min(compared) >= 10, (compared, tally)


# -- each certificate is verified once

def _count_calls(monkeypatch, name, calls):
    """Count calls to a function under every name the package binds it."""
    original = getattr(equivalence_core, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in (equivalence_core, constructions, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def test_each_certificate_is_verified_once(monkeypatch, tmp_path, capsys):
    calls = {"verify_small_equivalence": 0, "certify": 0}
    for name in calls:
        _count_calls(monkeypatch, name, calls)
    # two extensions and one compose
    L = line(5)
    construct_rank0(L, [lplace(L, "t^2 + 2"), lplace(L, "t^2 + 3")])
    assert calls["certify"] == 3
    assert calls["verify_small_equivalence"] == calls["certify"]
    path = str(tmp_path / "c.json")
    assert cli.run(["construct", "--q", "5", "--rank", "1",
                    "--places", "t, t + 4", "--out", path]) == 0
    assert cli.run(["verify", "--cert", path]) == 0
    capsys.readouterr()
    assert calls["certify"] > 3
    assert calls["verify_small_equivalence"] == calls["certify"]
