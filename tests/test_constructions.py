"""Tests for the wild-set constructions.

Everything here runs over F_5 (and F_3 for the refusals), where the
hand computations are short: 2 is the nonsquare constant, places of
even degree are the 2-divisible ones on the line, and the curve
y^2 = t^3 + 4t has full 2-torsion.  Each constructed certificate is
re-verified from scratch rather than trusted.
"""

import pytest

from wildsets import constructions, equivalence_core
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
    certificate_to_json,
    check_necessary_condition,
    verify_small_equivalence,
)
from wildsets.errors import HypothesisError
from wildsets.function_field import Divisor
from wildsets.local_symbols import PI, U, U_PI, LocalMap, minus_one_is_square
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import g_rank, smile


@pytest.fixture
def line():
    return ProjectiveLine(GF(5))


@pytest.fixture
def curve():
    return EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))


def assert_sound(model, cert, requested):
    """The full checklist a consumer of a certificate would run."""
    se = cert.equivalence
    report = verify_small_equivalence(se)
    assert report["passes"], report["failures"]
    # wild exactly where the local map moves the even classes
    assert {P for P, lm in zip(se.places, se.local_maps)
            if lm.image_of_u[0]} == set(requested)
    assert set(cert.wild_set) == set(requested)
    assert check_necessary_condition(model, cert.wild_set)


# -- rank 0

def test_rank0_singleton(line):
    q = line.parse_place("t^2 + 2")
    cert = construct_rank0(line, (q,))
    assert_sound(line, cert, {q})
    # the wild map fixes the uniformizer class and twists the unit
    lm = cert.equivalence.local_map_at(q)
    assert lm == LocalMap(U_PI, PI)
    # everything away from q is an identity
    for P, m in zip(cert.equivalence.places, cert.equivalence.local_maps):
        if P != q:
            assert m.is_identity


def test_rank0_pair(line):
    S = (line.parse_place("t^2 + 2"), line.parse_place("t^2 + 3"))
    cert = construct_rank0(line, S)
    assert_sound(line, cert, set(S))
    assert g_rank(line, S).rank == 0


def test_rank0_composition_searches_within_the_callers_cap(line, monkeypatch):
    # the third singleton is glued on through the compose fallback, whose
    # re-extension must search with the caller's cap, not the default
    caps = []
    search = equivalence_core._auxiliary_places

    def spy(model, lams, forbidden, degree_cap):
        caps.append(degree_cap)
        return search(model, lams, forbidden, degree_cap)

    monkeypatch.setattr(equivalence_core, "_auxiliary_places", spy)
    S = [line.parse_place(s) for s in ("t^2 + 2", "t^2 + 3", "t^2 + t + 1")]
    cert = construct_rank0(line, S, degree_cap=2)
    assert_sound(line, cert, set(S))
    assert caps and set(caps) == {2}


def test_rank0_refuses_odd_degree(line):
    p = line.parse_place("t")
    with pytest.raises(HypothesisError, match="not 2-divisible"):
        construct_rank0(line, (p,))
    # the named hypothesis is independently checkable
    assert not line.two_divisible(Divisor({p: 1}))


def test_rank0_refuses_empty(line):
    with pytest.raises(ValueError, match="at least one place"):
        construct_rank0(line, ())


# -- rank 1, pairs

def test_pair_with_no_divisible_member(line):
    # case two of the lemma: t and t + 4 both have odd degree
    p, q = line.parse_place("t"), line.parse_place("t + 4")
    cert = construct_rank1_pair(line, p, q)
    assert_sound(line, cert, {p, q})
    # the matching stays put and both maps swap u with pi
    assert cert.equivalence.image_of(p) == p
    assert cert.equivalence.image_of(q) == q
    assert cert.equivalence.local_map_at(p) == LocalMap(PI, U)
    assert cert.equivalence.local_map_at(q) == LocalMap(PI, U)


def test_pair_with_divisible_member_swaps_places(line):
    # case one: t^2 + 2 is 2-divisible, so the two places trade spots
    p, q = line.parse_place("t"), line.parse_place("t^2 + 2")
    cert = construct_rank1_pair(line, p, q)
    assert_sound(line, cert, {p, q})
    assert cert.equivalence.image_of(p) == q
    assert cert.equivalence.image_of(q) == p


def test_pair_refuses_wrong_rank(line, curve):
    with pytest.raises(HypothesisError, match="rank 0, not 1"):
        construct_rank1_pair(line, line.parse_place("t^2 + 2"),
                             line.parse_place("t^2 + 3"))
    with pytest.raises(HypothesisError, match="rank 2, not 1"):
        construct_rank1_pair(curve, curve.parse_place("(t; ramified)"),
                             curve.parse_place("(t + 1; ramified)"))


def test_pair_refuses_when_minus_one_is_not_square():
    line3 = ProjectiveLine(GF(3))
    p, q = line3.parse_place("t"), line3.parse_place("t + 2")
    assert g_rank(line3, (p, q)).rank == 1
    with pytest.raises(HypothesisError, match="-1 is not a local square"):
        construct_rank1_pair(line3, p, q)


def test_pair_is_deterministic(line):
    p, q = line.parse_place("t"), line.parse_place("t + 4")
    first = certificate_to_json(construct_rank1_pair(line, p, q))
    second = certificate_to_json(construct_rank1_pair(line, p, q))
    assert first == second


# -- rank 1, triples

def test_triple_without_divisible_member(line):
    S = tuple(line.parse_place(s) for s in ("t", "t + 4", "t + 3"))
    cert = construct_rank1_triple(line, *S)
    assert_sound(line, cert, set(S))
    # the third place moves to a fresh even-degree one
    moved = cert.equivalence.image_of(S[2])
    assert moved not in S
    assert line.two_divisible(Divisor({moved: 1}))
    assert all(cert.equivalence.local_map_at(P).is_wild for P in S)


def test_triple_with_divisible_member_delegates(line):
    S = tuple(line.parse_place(s) for s in ("t", "t + 4", "t^2 + 2"))
    cert = construct_rank1_triple(line, *S)
    assert_sound(line, cert, set(S))


def test_triple_refuses_rank_zero(line):
    S = tuple(line.parse_place(s)
              for s in ("t^2 + 2", "t^2 + 3", "t^2 + t + 1"))
    with pytest.raises(HypothesisError, match="rank 0, not 1"):
        construct_rank1_triple(line, *S)


def test_triple_is_deterministic(line):
    S = tuple(line.parse_place(s) for s in ("t", "t + 4", "t + 3"))
    assert certificate_to_json(construct_rank1_triple(line, *S)) == \
        certificate_to_json(construct_rank1_triple(line, *S))


# -- rank 1, arbitrary size

def test_rank1_four_places(line):
    S = tuple(line.parse_place("t + %d" % a) for a in range(4))
    cert = construct_rank1(line, S)
    assert_sound(line, cert, set(S))
    assert g_rank(line, S).rank == 1
    assert len(cert.wild_set) == 4


def test_rank1_refuses_lone_odd_place(line):
    with pytest.raises(HypothesisError, match="at least 2 points"):
        construct_rank1(line, (line.parse_place("t"),))


def test_rank1_delegates_rank_zero_input(line):
    S = (line.parse_place("t^2 + 2"), line.parse_place("t^2 + 3"))
    cert = construct_rank1(line, S)
    assert_sound(line, cert, set(S))


# -- arbitrary rank

def ramified_pair(curve):
    return (curve.parse_place("(t; ramified)"),
            curve.parse_place("(t + 1; ramified)"))


def inert_pair(curve):
    return (curve.parse_place("(t^2 + 2; inert)"),
            curve.parse_place("(t^2 + 3; inert)"))


def test_general_rank_two_tight(curve):
    P, Q = ramified_pair(curve), inert_pair(curve)
    for q in Q:
        assert curve.two_divisible(Divisor({q: 1}))
        assert minus_one_is_square(q)
    assert smile(curve, *Q)
    cert = construct_general(curve, P, Q)
    assert_sound(curve, cert, set(P) | set(Q))
    # the necessary bound |S| >= 2 rank is attained with equality
    assert g_rank(curve, cert.wild_set).rank == 2
    assert len(cert.wild_set) == 4


def test_general_more_divisible_points(curve):
    P = ramified_pair(curve)
    Q = (curve.parse_place("(t^4 + t + 4; split; 2*t^2 + 4*t + 1)"),
         curve.parse_place("(t^4 + t + 4; split; 3*t^2 + t + 4)"),
         curve.parse_place("(t^2 + 2; inert)"))
    cert = construct_general(curve, P, Q)
    assert_sound(curve, cert, set(P) | set(Q))
    assert len(cert.wild_set) == 5


def test_general_single_class_reduces(line):
    P = (line.parse_place("t"),)
    Q = (line.parse_place("t^2 + 2"),)
    cert = construct_general(line, P, Q)
    assert_sound(line, cert, set(P) | set(Q))


def test_general_refuses_dependent_classes(line):
    P = (line.parse_place("t"), line.parse_place("t + 1"))
    Q = (line.parse_place("t^2 + 2"), line.parse_place("t^2 + 3"))
    with pytest.raises(HypothesisError, match="dependent"):
        construct_general(line, P, Q)


def test_general_refuses_without_pairing_condition(curve):
    P = ramified_pair(curve)
    Q = (curve.parse_place("(t^4 + t + 4; split; 2*t^2 + 4*t + 1)"),
         curve.parse_place("(t^2 + 3; inert)"))
    assert not smile(curve, *Q)
    with pytest.raises(HypothesisError, match="pairing condition"):
        construct_general(curve, P, Q)


def test_general_refuses_more_classes_than_points(curve):
    P = ramified_pair(curve)
    with pytest.raises(HypothesisError, match="at least as many"):
        construct_general(curve, P, (curve.parse_place("(t^2 + 2; inert)"),))


def test_general_refuses_indivisible_q(curve):
    P = ramified_pair(curve)
    Q = (curve.parse_place("(t^2 + 2; inert)"),
         curve.parse_place("(t + 4; ramified)"))
    with pytest.raises(HypothesisError, match="not 2-divisible"):
        construct_general(curve, P, Q)


# -- each hypothesis is checked once

GATE_CHECKS = ("g_rank", "smile", "_require_minus_one_square")


def count_gate_checks(monkeypatch):
    """Call counts of the checks the constructions' gates make."""
    counts = dict.fromkeys(GATE_CHECKS, 0)
    for name in GATE_CHECKS:
        def counted(*args, _name=name, _check=getattr(constructions, name)):
            counts[_name] += 1
            return _check(*args)
        monkeypatch.setattr(constructions, name, counted)
    return counts


def more_divisible_points(curve):
    return (curve.parse_place("(t^4 + t + 4; split; 2*t^2 + 4*t + 1)"),
            curve.parse_place("(t^4 + t + 4; split; 3*t^2 + t + 4)"),
            curve.parse_place("(t^2 + 2; inert)"))


@pytest.mark.parametrize("Q", [inert_pair, more_divisible_points])
def test_general_ranks_once_per_gate(curve, monkeypatch, Q):
    # the gate ranks P, then each tracked image pair is ranked once; the
    # inner instance and the rank-1 base case trust the gate
    P, Q = ramified_pair(curve), Q(curve)
    counts = count_gate_checks(monkeypatch)
    cert = construct_general(curve, P, Q)
    assert set(cert.wild_set) == set(P) | set(Q)
    assert counts["g_rank"] <= 2
    assert counts["smile"] == len(Q) * (len(Q) - 1) // 2
    assert counts["_require_minus_one_square"] <= counts["g_rank"]


@pytest.mark.parametrize("names,bound", [
    (("t", "t + 1", "t + 2", "t + 3"), 3),
    (("t", "t + 4"), 1),
    (("t", "t + 1", "t + 4"), 1),
])
def test_rank1_ranks_once_per_gate(line, monkeypatch, names, bound):
    # four points: the whole set, then the tracked rest (the head pair is
    # a part of the gated set); a pair or triple is ranked once
    S = tuple(line.parse_place(s) for s in names)
    counts = count_gate_checks(monkeypatch)
    assert set(construct_rank1(line, S).wild_set) == set(S)
    assert counts["g_rank"] <= bound
    assert counts["_require_minus_one_square"] <= counts["g_rank"]
