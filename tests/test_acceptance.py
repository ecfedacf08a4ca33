"""The acceptance gate: eight criteria, one test and one verdict each.

Run with -v to get one PASSED/FAILED row per criterion.  Each test
also prints a single summary line (visible with -rA or on failure),
so a log scan shows what was measured, not only that it passed.

The random samples are seeded and the subset walks deterministic;
two consecutive runs of this file do identical work.
"""

import itertools
import json
import random
import time

import pytest

from wildsets.base_algebra import GF, poly_parse
from wildsets.constructions import (
    construct_general,
    construct_rank0,
    construct_rank1,
    construct_rank1_pair,
    construct_rank1_triple,
)
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import (
    PreEquivalence,
    certificate_from_json,
    certificate_to_json,
    check_necessary_condition,
    verify_pre_equivalence,
    verify_small_equivalence,
)
from wildsets.errors import HypothesisError, VerificationError
from wildsets.function_field import Divisor
from wildsets.local_symbols import PI, U, LocalMap, reciprocity_product
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import (
    check_lin_dep_lemma,
    check_pic_rank_formula,
    g_rank,
    sing_space,
    smile,
)

CURVE_TEXT = "t^3 + 4t"  # y^2 = t^3 - t over F_5

# certificates accumulated by criteria 4 and 5, audited by criterion 6
CORPUS = []


def line(q):
    return ProjectiveLine(GF(q))


def curve():
    return EllipticModel(GF(5), poly_parse(CURVE_TEXT, GF(5)))


def random_function(model, rng):
    """A random ratio of nonzero cubics, uniform over all coefficients."""
    q = model.field.q

    def poly_text():
        while True:
            coeffs = [rng.randrange(q) for _ in range(4)]
            if any(coeffs):
                break
        terms = []
        for k, c in enumerate(coeffs):
            if q == 9:  # split into the prime-field and g components
                if c % 3:
                    terms.append("%d t^%d" % (c % 3, k))
                if c // 3:
                    terms.append("%d g t^%d" % (c // 3, k))
            elif c:
                terms.append("%d t^%d" % (c, k))
        return " + ".join(terms)

    return model.parse("(%s) / (%s)" % (poly_text(), poly_text()))


def assert_certificate(model, cert, requested):
    assert verify_small_equivalence(cert.equivalence) == ()
    assert set(cert.wild_set) == set(requested)
    CORPUS.append((model, cert))


def test_criterion_1_reciprocity_product_is_always_one():
    started = time.time()
    rng = random.Random(20260816)
    checked = 0
    for q in (3, 5, 9):
        model = line(q)
        for _ in range(350):
            a, b = random_function(model, rng), random_function(model, rng)
            assert reciprocity_product(a, b) == 1
            checked += 1
    model = curve()
    y = model.parse("y")
    for k in range(200):
        a, b = random_function(model, rng), random_function(model, rng)
        if k % 2:
            b = b * y
        assert reciprocity_product(a, b) == 1
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    print("criterion 1 (reciprocity): PASS — %d pairs, %.1fs"
          % (checked, elapsed))


def _line_subsets(q, strides):
    """Subsets of the places of degree <= 3, one stride per size."""
    model = line(q)
    pool = (model.places_of_degree(1) + model.places_of_degree(2) +
            model.places_of_degree(3))
    for size, stride in enumerate(strides, start=1):
        walk = itertools.combinations(pool, size)
        yield from ((model, S)
                    for S in itertools.islice(walk, 0, None, stride))


def _curve_subsets(count):
    """Sampled removed sets on the curve, each containing infinity."""
    model = curve()
    finite = model.places_of_degree(1)[1:] + model.places_of_degree(2)
    rng = random.Random(411)
    for _ in range(count):
        extra = rng.sample(finite, rng.randrange(3))
        yield model, [model.infinity] + extra


def _criterion_2_and_3_sets():
    # F_3 is exhaustive (1940 subsets); F_5 walks every size-1 and
    # size-2 subset and deterministic strides of sizes 3 and 4
    yield from _line_subsets(3, (1, 1, 1, 1))
    yield from _line_subsets(5, (1, 1, 22, 294))
    yield from _curve_subsets(20)


def test_criterion_2_rank_formula_matches_direct_computation():
    started = time.time()
    checked = 0
    for model, S in _criterion_2_and_3_sets():
        report = check_pic_rank_formula(model, S)
        assert report == {"formula_rank": model.punctured_pic_two_rank(S)}
        checked += 1
    print("criterion 2 (rank formula): PASS — %d removed sets, %.1fs"
          % (checked, time.time() - started))


def _no_subset_sum_is_two_divisible(model, S):
    """Independence of the classes of S, asked of two_divisible alone."""
    return not any(model.two_divisible(Divisor(dict.fromkeys(T, 1)))
                   for size in range(1, len(S) + 1)
                   for T in itertools.combinations(S, size))


def test_criterion_3_linear_dependence_lemma_both_directions():
    # the lemma's report, the class group through two_divisible (which
    # never reads the pic_mod2 rows), and Sing(S) itself must agree: the
    # classes are independent exactly when no even class gains odd order
    # at a removed place
    started = time.time()
    checked = independent = 0
    for model, S in _criterion_2_and_3_sets():
        report = check_lin_dep_lemma(model, S)
        removed = set(S)
        unchanged = not any(n % 2 for g in sing_space(model, S).generators
                            for P, n in g.divisor().items() if P in removed)
        assert report == {"classes_independent": unchanged}, S
        assert unchanged == _no_subset_sum_is_two_divisible(model, S), S
        checked += 1
        independent += unchanged
    assert 0 < independent < checked
    print("criterion 3 (dependence lemma): PASS — %d removed sets, %d "
          "independent, %.1fs" % (checked, independent, time.time() - started))


def test_criterion_4_construction_round_trips():
    started = time.time()
    model = line(5)
    place = model.parse_place

    cert = construct_rank0(model, (place("t^2 + 2"),))
    assert_certificate(model, cert, {place("t^2 + 2")})

    S = (place("t^2 + 2"), place("t^2 + 3"))
    assert_certificate(model, construct_rank0(model, S), set(S))

    pair = (place("t"), place("t - 1"))
    cert = construct_rank1_pair(model, *pair)
    assert_certificate(model, cert, set(pair))
    se = cert.equivalence
    assert all(dict(zip(se.places, se.local_maps))[P].is_wild for P in pair)
    assert {cert.equivalence.image_of(P) for P in pair} == set(pair)

    triple = (place("t"), place("t - 1"), place("t - 2"))
    cert = construct_rank1_triple(model, *triple)
    assert_certificate(model, cert, set(triple))
    fourth = cert.equivalence.image_of(triple[2])
    assert fourth not in triple and fourth.degree <= 6

    four = tuple(place("t + %d" % a) for a in range(4))
    assert_certificate(model, construct_rank1(model, four), set(four))

    elapsed = time.time() - started
    assert elapsed < 30.0
    print("criterion 4 (constructions): PASS — 5 certificates, %.1fs"
          % elapsed)


def test_criterion_5_flagship_rank_two_tightness():
    started = time.time()
    model = curve()
    assert len(model.rational_points()) == 8
    assert model.pic_zero_two_rank() == 2
    P = (model.parse_place("(t; ramified)"),
         model.parse_place("(t + 1; ramified)"))
    Q = (model.parse_place("(t^2 + 2; inert)"),
         model.parse_place("(t^2 + 3; inert)"))
    cert = construct_general(model, P, Q)
    assert_certificate(model, cert, set(P) | set(Q))
    assert len(cert.wild_set) == 4
    assert g_rank(model, cert.wild_set).rank == 2
    elapsed = time.time() - started
    assert elapsed < 60.0
    print("criterion 5 (rank-2 tightness): PASS — |S| = 4 = 2 rk G, %.1fs"
          % elapsed)


def test_criterion_6_necessary_condition_over_the_corpus():
    assert CORPUS, "criteria 4 and 5 must have produced certificates"
    for model, cert in CORPUS:
        assert check_necessary_condition(model, cert.wild_set)
        assert len(cert.wild_set) >= 2 * g_rank(model, cert.wild_set).rank
    model = line(5)
    with pytest.raises(HypothesisError):
        construct_rank0(model, (model.parse_place("t"),))
    with pytest.raises(HypothesisError):
        construct_rank1(model, (model.parse_place("t"),))
    print("criterion 6 (necessary condition): PASS — %d certificates "
          "audited, singleton refused" % len(CORPUS))


def test_criterion_7_negative_controls():
    line3 = line(3)
    with pytest.raises(HypothesisError, match="-1 is not a local square"):
        construct_rank1_pair(line3, line3.parse_place("t"),
                             line3.parse_place("t + 2"))

    # a diagram-breaking pre-equivalence must be flagged, not repaired
    model = line(5)
    p, q = model.parse_place("t"), model.parse_place("t + 4")
    lam, mu = model.parse("2"), model.parse("t (t + 4)")
    swap = LocalMap(PI, U)
    broken = PreEquivalence(model, (p, q), (p, q), (lam, mu), (lam, mu),
                            (swap, swap))
    assert verify_pre_equivalence(broken) == (
        "diagram breaks at t on 2", "diagram breaks at t + 4 on 2",
        "diagram breaks at t on %s" % mu, "diagram breaks at t + 4 on %s" % mu)

    # tampering with a serialized certificate must fail verification
    cert = construct_rank1_pair(model, p, q)
    data = json.loads(certificate_to_json(cert))
    data["quotient_images"] = list(reversed(data["quotient_images"]))
    with pytest.raises(VerificationError):
        certificate_from_json(json.dumps(data))

    with pytest.raises(ValueError, match="not principal"):
        model.function_with_divisor(Divisor({p: 1}))
    ell = curve()
    bad = Divisor({ell.parse_place("(t; ramified)"): 1, ell.infinity: -1})
    with pytest.raises(ValueError, match="not principal"):
        ell.function_with_divisor(bad)
    print("criterion 7 (negative controls): PASS")


def _doubling_oracle(model, place):
    """2-divisibility via explicit doubles of small divisors.

    Every class of degree one on the curve is the class of a rational
    point, so a divisor of degree 2k is twice something exactly when
    subtracting the double of some effective degree-k divisor built
    from rational points and degree-2 places leaves a principal one.
    """
    D = Divisor({place: 1})
    if place.degree % 2:
        return False
    points = [model.place_of_rational_point(P) for P in model.rational_points()]
    if place.degree == 2:
        halves = [Divisor({P: 1}) for P in points]
    else:
        halves = [Divisor({P: 1}) + Divisor({Q: 1})
                  for P, Q in itertools.combinations_with_replacement(points, 2)]
        halves += [Divisor({R: 1}) for R in model.places_of_degree(2)]
    return any(model.is_principal(D - 2 * E) for E in halves)


def test_criterion_8_oracle_equivalences():
    started = time.time()
    for q in (3, 5, 7, 9):
        field = GF(q)
        squares = {field.mul(x, x) for x in field.elements() if x}
        for a in field.elements():
            if a:
                assert field.quad_char(a) == (1 if a in squares else -1)

    first, second = curve(), EllipticModel(GF(5), poly_parse("t^3 + 2", GF(5)))
    compared = 0
    for model in (first, second):
        pool = model.places_of_degree(1) + model.places_of_degree(2)
        if model is first:  # include places where the answer is True
            pool += [model.parse_place("(t^2 + 2; inert)"),
                     model.parse_place("(t^2 + 3; inert)")]
        for P in pool:
            assert model.two_divisible(Divisor({P: 1})) == \
                _doubling_oracle(model, P)
            compared += 1

    symmetric = 0
    model = line(5)
    for q1, q2 in itertools.combinations(model.places_of_degree(2), 2):
        assert smile(model, q1, q2) == smile(model, q2, q1)
        symmetric += 1
    model9 = line(9)
    rng = random.Random(88)
    pool9 = model9.places_of_degree(2)
    for _ in range(20):
        q1, q2 = rng.sample(pool9, 2)
        assert smile(model9, q1, q2) == smile(model9, q2, q1)
        symmetric += 1
    print("criterion 8 (oracles): PASS — quad_char on 4 fields, "
          "%d divisibility comparisons, %d smile symmetries, %.1fs"
          % (compared, symmetric, time.time() - started))
