"""Certificates: verification, extension, composition, serialization.

The pinned certificates here are small enough to check by hand: over
F_5 the constant 2 is the nonsquare, -1 = 4 is a square, and residues
at degree-1 places are plain evaluations, so every local class and
Hilbert symbol in the expected data can be recomputed on paper.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Tuple

import pytest

from wildsets.base_algebra import GF, poly_parse
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import (
    SMALL_EQUIVALENCE_CHECKS,
    TWIST_KERNEL_BITS,
    PreEquivalence,
    SmallEquivalence,
    _rank_preservation_report,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_necessary_condition,
    compose,
    extend_pre_equivalence,
    quotient_basis,
    verify_pre_equivalence,
    verify_small_equivalence,
    wild_points,
)
from wildsets.errors import HypothesisError, SearchExhausted, VerificationError
from wildsets.local_symbols import (
    ONE,
    PI,
    U,
    U_PI,
    LocalMap,
    local_square_class,
)
from wildsets.projective_line import Place, ProjectiveLine
from wildsets.square_class_spaces import (
    _kernel_basis as kernel_basis,
    _local_bits,
    _product,
    g_rank,
    sing_space,
)

SWAP = LocalMap(PI, U)
FIX_PI = LocalMap(U_PI, PI)


def line(q):
    return ProjectiveLine(GF(q))


def lplace(L, text):
    return Place(L.field, poly_parse(text, L.field))


def identity_certificate(model, texts):
    places = tuple(model.parse_place(s) for s in texts)
    gens = sing_space(model, places).generators
    se = SmallEquivalence(model, places, places, gens, gens,
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
        basis = quotient_basis(L, S)
        assert len(basis) == len(S)
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
    report = verify_pre_equivalence(pe)
    assert report["passes"], report["failures"]


def test_identity_on_basis_with_swapped_maps_breaks_the_diagram():
    # keeping lam -> lam while the local maps swap u and pi cannot
    # commute: the local class of lam at (t) is u, not pi
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    pe = PreEquivalence(L, (p, q), (p, q), (lam, mu), (lam, mu),
                        (SWAP, SWAP))
    report = verify_pre_equivalence(pe)
    assert not report["passes"]
    assert not report["diagram_commutes"]
    assert report["injective"] and report["source_basis"]


def test_degenerate_local_map_is_rejected_outright():
    with pytest.raises(ValueError):
        LocalMap(ONE, PI)


# -- small equivalences and wild sets

def test_wild_pair_certificate_end_to_end():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    assert sorted(str(P) for P in cert.wild_set) == ["t", "t + 4"]
    se = cert.equivalence
    assert verify_small_equivalence(se)["passes"]
    assert wild_points(se) == frozenset(se.places)
    # a wild pair is as small as the bound allows: rank 1 forces >= 2
    assert g_rank(L, cert.wild_set).rank == 1
    assert check_necessary_condition(L, cert.wild_set)
    assert _rank_preservation_report(cert.equivalence)["passes"]


def test_certificate_report_holds_every_small_equivalence_check():
    # the CLI verify command prints these keys from the certify report
    cert = wild_pair(line(5), 0, 4)
    report = verify_small_equivalence(cert.equivalence)
    checks = {k for k, v in report.items()
              if isinstance(v, bool) and k != "passes"}
    assert checks == set(SMALL_EQUIVALENCE_CHECKS)
    assert all(cert.report[k] == report[k] for k in SMALL_EQUIVALENCE_CHECKS)


def test_identity_certificate_has_no_wild_points():
    L = line(5)
    cert = identity_certificate(L, ["t", "t + 1"])
    assert cert.wild_set == ()
    assert wild_points(cert.equivalence) == frozenset()


def test_domain_condition_is_a_hard_error():
    # a lone even-degree place leaves half the class group behind
    L = line(5)
    q = lplace(L, "t^2 + 2")
    gens = sing_space(L, [q]).generators
    se = SmallEquivalence(L, (q,), (q,), gens, gens, (LocalMap.identity(),))
    with pytest.raises(HypothesisError):
        verify_small_equivalence(se)


def test_wild_maps_break_the_symbols_where_minus_one_is_a_nonsquare():
    # over F_3, -1 = 2 is a nonsquare at degree-1 places; trading the
    # constant 2 for t/(t+1) commutes with the swap at (t) and with
    # u -> u*pi, pi -> pi at (t+1), but squares the symbol (u, u) = +1
    # into (pi, pi) = -1 and moves the class of -1 off itself
    L = line(3)
    p, q = lplace(L, "t"), lplace(L, "t + 1")
    two, f = L.constant(2), L.parse("t / (t + 1)")
    se = SmallEquivalence(L, (p, q), (p, q), (two, f), (f, two),
                          (SWAP, FIX_PI))
    report = verify_small_equivalence(se)
    assert [k for k in SMALL_EQUIVALENCE_CHECKS if not report[k]] == \
        ["symbols_preserved", "minus_one_fixed"]
    assert report["failures"] == tuple(
        ["symbol of (2, 2) changes at %s" % P for P in (p, q)]
        + ["symbol of (%s, %s) changes at %s" % (f, f, P) for P in (p, q)]
        + ["the class of -1 is not preserved at %s" % P for P in (p, q)])


def test_wild_points_refuses_invalid_data():
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t + 4")
    lam, mu = L.constant(2), L.parse("t(t + 4)")
    se = SmallEquivalence(L, (p, q), (p, q), (lam, mu), (lam, mu),
                          (SWAP, SWAP))
    with pytest.raises(VerificationError):
        wild_points(se)


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
    assert [str(b) for b in se.sing_basis] == ["2", "2 * (t^2 + 2)^1"]
    assert [str(P) for P in cert.wild_set] == ["t^2 + 2"]
    assert se.local_maps[0].is_wild and se.local_maps[1].is_identity


def test_extension_needs_equal_class_ranks():
    # a valid matching of (t) with (t^2+2), but their classes span
    # different chunks of the class group, so no extension exists
    L = line(5)
    p, q = lplace(L, "t"), lplace(L, "t^2 + 2")
    pe = PreEquivalence(L, (p,), (q,), (L.constant(2),),
                        (L.parse("t^2 + 2"),), (SWAP,))
    assert verify_pre_equivalence(pe)["passes"]
    with pytest.raises(HypothesisError):
        extend_pre_equivalence(pe)


def test_extension_respects_the_degree_cap():
    L = line(5)
    q = lplace(L, "t^2 + 2")
    lam = L.parse("t^2 + 2")
    pe = PreEquivalence(L, (q,), (q,), (lam,), (lam,), (FIX_PI,))
    with pytest.raises(SearchExhausted):
        extend_pre_equivalence(pe, degree_cap=0)


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
    assert _rank_preservation_report(both.equivalence)["passes"]
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
    assert left.equivalence.sing_images == right.equivalence.sing_images
    assert left.wild_set == right.wild_set
    assert sorted(str(P) for P in left.wild_set) == \
        ["t^2 + 2", "t^2 + 3", "t^2 + t + 1"]


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


def test_rank_preservation_catches_a_doctored_image_basis():
    L = line(5)
    cert = wild_pair(L, 0, 4)
    se = cert.equivalence
    # an image picking up odd order at (t+1), outside the target set
    doctored = SmallEquivalence(
        L, se.places, se.images, se.sing_basis,
        (se.sing_images[0] * L.parse("t + 1"),) + se.sing_images[1:],
        se.local_maps)
    report = _rank_preservation_report(doctored)
    assert not report["sing_images_in_target"]
    assert not report["passes"]


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
        v, combo = _local_bits(c, images), 1 << k
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
    try:
        return solve(*args)
    except (VerificationError, SearchExhausted) as exc:
        return type(exc), str(exc)


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
                src = quotient_basis(model, places)
                dst = quotient_basis(model, images)
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
    full = core.TWIST_KERNEL_BITS
    for args in _twist_cases(rng, 240):
        tally["cases"] += 1
        for bits in (full, 0):
            monkeypatch.setattr(core, "TWIST_KERNEL_BITS", bits)
            monkeypatch.setitem(globals(), "TWIST_KERNEL_BITS", bits)
            del seen[:]
            new = _solve_outcome(core._sandwich_solve, *args)
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
