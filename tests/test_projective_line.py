from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import (
    GF,
    ResidueField,
    irreducibles_of_degree,
    poly_deg,
    poly_divmod,
    poly_mul,
    poly_norm,
    poly_parse,
)
from wildsets.projective_line import (
    Divisor,
    Place,
    ProjectiveLine,
    RationalFunction,
    finite_places_of_degree,
)
from wildsets.square_class_spaces import pic_complement_two_rank


# -- independent oracles ------------------------------------------------------
# Orders by repeated exact division, residues by reducing the raw fraction.


def oracle_ord(num, den, p, F):
    v = 0
    while True:
        q, r = poly_divmod(num, p, F)
        if r:
            break
        num, v = q, v + 1
    while True:
        q, r = poly_divmod(den, p, F)
        if r:
            break
        den, v = q, v - 1
    return v


def oracle_unit_residue(num, den, p, F):
    while True:
        q, r = poly_divmod(num, p, F)
        if r:
            break
        num = q
    while True:
        q, r = poly_divmod(den, p, F)
        if r:
            break
        den = q
    rf = ResidueField(F, p)
    return rf.mul(rf.reduce(num), rf.inv(rf.reduce(den)))


def random_nonzero_poly(rng, F, max_deg):
    while True:
        f = poly_norm(tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, max_deg + 2))))
        if f:
            return f


# -- places -------------------------------------------------------------------


def test_place_construction_and_normalization():
    F = GF(5)
    assert Place(F, poly_parse("2*t - 2", F)) == Place(F, poly_parse("t - 1", F))
    with pytest.raises(ValueError):
        Place(F, poly_parse("t^2 - 1", F))  # reducible
    with pytest.raises(ValueError):
        Place(F, (3,))  # constant


def test_infinite_place():
    F = GF(5)
    inf = Place.infinity(F)
    assert inf.is_infinite and inf.degree == 1
    assert str(inf) == "inf"
    assert inf != Place(F, (0, 1))
    assert inf.residue_field() is F


def test_place_counts_and_order():
    F = GF(5)
    d1 = finite_places_of_degree(F, 1)
    d2 = finite_places_of_degree(F, 2)
    assert len(d1) == 5 and len(d2) == 10
    line = ProjectiveLine(F)
    deg1 = line.places_of_degree(1)
    assert len(deg1) == 6 and deg1[0].is_infinite
    # sorted() agrees with the enumeration order
    shuffled = list(d2)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled) == d2


@pytest.mark.parametrize("q", [3, 5, 9])
def test_cached_places_of_degree_match_a_fresh_enumeration(q):
    F = GF(q)
    line = ProjectiveLine(F)
    for d in (1, 2, 3):
        # the checked constructor is the oracle for the proven places
        fresh = [Place(F, f) for f in irreducibles_of_degree(F, d)]
        if d == 1:
            fresh.insert(0, Place.infinity(F))
        first = line.places_of_degree(d)
        assert first == fresh
        first.clear()
        first.append(Place.infinity(F))
        assert line.places_of_degree(d) == fresh
        assert ProjectiveLine(F).places_of_degree(d) == fresh


def test_checked_constructors_reject_reducible_factors():
    F = GF(5)
    reducible = poly_parse("t^2 - 1", F)
    with pytest.raises(ValueError):
        Place(F, reducible)
    with pytest.raises(ValueError):
        ProjectiveLine(F).parse_place("t^2 - 1")
    with pytest.raises(ValueError):
        RationalFunction(F, 1, {reducible: 1})
    with pytest.raises(ValueError):
        RationalFunction(F, 1, {(2, 2): 1})  # 2t + 2 is not monic
    # a zero exponent drops the factor, as before
    assert RationalFunction(F, 3, {reducible: 0}) == RationalFunction(F, 3)


def test_place_hash_and_str_roundtrip_extension_field():
    F = GF(9)
    P = Place(F, (3, 1))  # t + g
    assert Place(F, poly_parse(str(P), F)) == P
    assert len({P, Place(F, (3, 1)), Place.infinity(F)}) == 2


# -- divisors -----------------------------------------------------------------


def test_divisor_arithmetic():
    F = GF(5)
    P, Q = Place(F, (0, 1)), Place(F, (4, 1))
    inf = Place.infinity(F)
    D = Divisor({P: 1, Q: 2, inf: -3})
    assert D.degree == 0
    assert (D - D).is_zero
    assert (2 * D).get(Q) == 4
    assert (D + Divisor({P: -1})).get(P) == 0
    assert D.support() == [inf, P, Q]
    assert Divisor({P: 1}) + Divisor({P: -1}) == Divisor()


def test_divisor_str():
    F = GF(5)
    D = Divisor({Place(F, (0, 1)): 2, Place.infinity(F): -1})
    assert str(D) == "-inf + 2*(t)"


# -- factored rational functions ----------------------------------------------


def test_parse_factored_form():
    F = GF(5)
    e = RationalFunction.parse(F, "2 * (t)^1 * (t - 1)^1")
    assert e.constant == 2
    assert e.factors == {(0, 1): 1, (4, 1): 1}
    assert RationalFunction.parse(F, str(e)) == e


def test_parse_rejects_zero():
    F = GF(5)
    for s in ["0", "t - t"]:
        with pytest.raises(ValueError):
            RationalFunction.parse(F, s)


def test_known_divisor_and_residues():
    # (t^2 + 1) / (t (t - 1)) over F_5; t^2 + 1 = (t + 2)(t + 3)
    F = GF(5)
    e = RationalFunction.parse(F, "(t^2 + 1) / (t^2 - t)")
    D = e.divisor()
    assert D == Divisor({
        Place(F, (2, 1)): 1,
        Place(F, (3, 1)): 1,
        Place(F, (0, 1)): -1,
        Place(F, (4, 1)): -1,
    })
    assert D.degree == 0
    # residue of t * e at t = 0 is 1 / (0 - 1) = -1
    assert e.unit_residue(Place(F, (0, 1))) == (4,)
    assert e.ord_at(Place.infinity(F)) == 0
    assert e.unit_residue(Place.infinity(F)) == 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_orders_and_residues_match_oracles(q):
    F = GF(q)
    rng = random.Random(100 + q)
    inf = Place.infinity(F)
    for _ in range(25):
        num = random_nonzero_poly(rng, F, 4)
        den = random_nonzero_poly(rng, F, 4)
        e = RationalFunction.from_poly(F, num) / RationalFunction.from_poly(F, den)
        assert e.divisor().degree == 0
        assert e.ord_at(inf) == poly_deg(den) - poly_deg(num)
        assert e.unit_residue(inf) == F.mul(num[-1], F.inv(den[-1]))
        places = [Place(F, p) for p in e.factors]
        places.extend(finite_places_of_degree(F, 1)[:2])
        for P in places:
            assert e.ord_at(P) == oracle_ord(num, den, P.poly, F)
            assert e.unit_residue(P) == oracle_unit_residue(num, den, P.poly, F)


def test_multiplicativity_of_orders_and_residues():
    F = GF(5)
    rng = random.Random(7)
    for _ in range(10):
        a = RationalFunction.from_poly(F, random_nonzero_poly(rng, F, 3))
        b = RationalFunction.from_poly(F, random_nonzero_poly(rng, F, 3))
        prod = a * b
        for P in ProjectiveLine(F).places_of_degree(1) + finite_places_of_degree(F, 2)[:3]:
            assert prod.ord_at(P) == a.ord_at(P) + b.ord_at(P)
            rf = P.residue_field()
            assert prod.unit_residue(P) == rf.mul(a.unit_residue(P), b.unit_residue(P))


def test_inverse_and_power():
    F = GF(5)
    e = RationalFunction.parse(F, "3 * (t)^2 * (t + 1)^-1")
    assert (e * e.inverse()) == RationalFunction.one(F)
    assert e ** 0 == RationalFunction.one(F)
    assert (e ** 3).ord_at(Place(F, (0, 1))) == 6
    assert (e ** -2).constant == F.pow(3, -2)


def test_is_square():
    F = GF(5)
    t = RationalFunction.parse(F, "t")
    assert (t * t).is_square()
    assert not t.is_square()
    assert not (RationalFunction(F, 2) * t * t).is_square()  # 2 is not a square mod 5
    assert RationalFunction(F, 4).is_square()


def test_str_roundtrip_extension_constants():
    F = GF(9)
    e = RationalFunction(F, 5, {(3, 1): 2, (0, 1): -1})
    assert RationalFunction.parse(F, str(e)) == e


# -- the projective-line backend ------------------------------------------------


def test_pic_facts():
    F = GF(5)
    line = ProjectiveLine(F)
    P1 = Place(F, (0, 1))
    P2 = finite_places_of_degree(F, 2)[0]
    assert line.is_principal(Divisor({P1: 1, line.infinity: -1}))
    assert not line.is_principal(Divisor({P2: 1, line.infinity: -1}))
    assert line.two_divisible(Divisor({P2: 1}))
    assert not line.two_divisible(Divisor({P1: 1}))
    assert line.pic_zero_two_rank() == 0


def test_halving():
    F = GF(5)
    line = ProjectiveLine(F)
    P2 = finite_places_of_degree(F, 2)[0]
    D = Divisor({P2: 3})
    E = line.halve_in_pic(D)
    assert E is not None and line.is_principal(D - 2 * E)
    assert line.halve_in_pic(Divisor({Place(F, (0, 1)): 1})) is None


def test_function_with_divisor():
    F = GF(5)
    line = ProjectiveLine(F)
    rng = random.Random(11)
    for _ in range(10):
        num = random_nonzero_poly(rng, F, 4)
        den = random_nonzero_poly(rng, F, 4)
        e = RationalFunction.from_poly(F, num) / RationalFunction.from_poly(F, den)
        h = line.function_with_divisor(e.divisor())
        assert h.divisor() == e.divisor()
        assert h.constant == 1
    with pytest.raises(ValueError):
        line.function_with_divisor(Divisor({Place(F, (0, 1)): 1}))


def test_pic_complement_two_rank():
    F = GF(5)
    line = ProjectiveLine(F)
    inf = line.infinity
    P2 = finite_places_of_degree(F, 2)[0]
    P3 = finite_places_of_degree(F, 3)[0]
    assert pic_complement_two_rank(line, []) == 1
    assert pic_complement_two_rank(line, [inf]) == 0
    assert pic_complement_two_rank(line, [P2]) == 1
    assert pic_complement_two_rank(line, [P2, P3]) == 0


def test_parse_place():
    F = GF(5)
    line = ProjectiveLine(F)
    assert line.parse_place("inf") == line.infinity
    assert line.parse_place(" inf ") == line.infinity
    P = line.parse_place("t^2 + 2")
    assert P.degree == 2 and str(P) == "t^2 + 2"
    for Q in [line.infinity] + finite_places_of_degree(F, 2)[:3]:
        assert line.parse_place(str(Q)) == Q
