from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import (
    GF,
    ResidueField,
    irreducibles_of_degree,
    poly_deg,
    poly_divmod,
    poly_is_irreducible,
    poly_mul,
    poly_norm,
    poly_parse,
)
from wildsets.function_field import Divisor
from wildsets.projective_line import (
    Place,
    ProjectiveLine,
    RationalFunction,
    finite_places_of_degree,
)
from wildsets.square_class_spaces import pic_complement_two_rank

from residue_oracle import euler_jacobi, residue_field, unit_residue


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
    L = ProjectiveLine(F)
    assert Place(L, poly_parse("2*t - 2", F)) == Place(L, poly_parse("t - 1", F))
    with pytest.raises(ValueError):
        Place(L, poly_parse("t^2 - 1", F))  # reducible
    with pytest.raises(ValueError):
        Place(L, (3,))  # constant


def test_infinite_place():
    F = GF(5)
    L = ProjectiveLine(F)
    inf = L.infinity
    assert inf.is_infinite and inf.degree == 1
    assert str(inf) == "inf"
    assert inf != Place(L, (0, 1))
    assert residue_field(inf) is F


def test_place_counts_and_order():
    F = GF(5)
    line = ProjectiveLine(F)
    d1 = finite_places_of_degree(line, 1)
    d2 = finite_places_of_degree(line, 2)
    assert len(d1) == 5 and len(d2) == 10
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
        fresh = [Place(line, f) for f in irreducibles_of_degree(F, d)]
        if d == 1:
            fresh.insert(0, line.infinity)
        first = line.places_of_degree(d)
        assert first == fresh
        first.clear()
        first.append(line.infinity)
        assert line.places_of_degree(d) == fresh
        assert ProjectiveLine(F).places_of_degree(d) == fresh


def test_checked_constructors_reject_reducible_factors():
    F = GF(5)
    L = ProjectiveLine(F)
    reducible = poly_parse("t^2 - 1", F)
    with pytest.raises(ValueError):
        Place(L, reducible)
    with pytest.raises(ValueError):
        ProjectiveLine(F).parse_place("t^2 - 1")
    with pytest.raises(ValueError):
        RationalFunction(L, 1, {reducible: 1})
    with pytest.raises(ValueError):
        RationalFunction(L, 1, {(2, 2): 1})  # 2t + 2 is not monic
    # a zero exponent drops the factor, as before
    assert RationalFunction(L, 3, {reducible: 0}) == RationalFunction(L, 3)


def test_place_hash_and_str_roundtrip_extension_field():
    F = GF(9)
    L = ProjectiveLine(F)
    P = Place(L, (3, 1))  # t + g
    assert Place(L, poly_parse(str(P), F)) == P
    assert len({P, Place(L, (3, 1)), L.infinity}) == 2


# -- divisors -----------------------------------------------------------------


def test_divisor_arithmetic():
    F = GF(5)
    L = ProjectiveLine(F)
    P, Q = Place(L, (0, 1)), Place(L, (4, 1))
    inf = L.infinity
    D = Divisor({P: 1, Q: 2, inf: -3})
    assert D.degree == 0
    assert (D - D).is_zero
    assert (2 * D).get(Q) == 4
    assert 0 * D == Divisor() and (0 * D).is_zero
    assert (D + Divisor({P: -1})).get(P) == 0
    assert D.support() == [inf, P, Q]
    assert Divisor({P: 1}) + Divisor({P: -1}) == Divisor()


def test_divisor_str():
    F = GF(5)
    L = ProjectiveLine(F)
    D = Divisor({Place(L, (0, 1)): 2, L.infinity: -1})
    assert str(D) == "-inf + 2*(t)"
    assert str(Divisor()) == "0"


# -- factored rational functions ----------------------------------------------


def test_parse_factored_form():
    F = GF(5)
    L = ProjectiveLine(F)
    e = RationalFunction.parse(L, "2 * (t)^1 * (t - 1)^1")
    assert e.constant == 2
    assert e.factors == {(0, 1): 1, (4, 1): 1}
    assert RationalFunction.parse(L, str(e)) == e


def test_parse_rejects_zero():
    F = GF(5)
    L = ProjectiveLine(F)
    for s in ["0", "t - t"]:
        with pytest.raises(ValueError):
            RationalFunction.parse(L, s)


def test_known_divisor_and_residues():
    # (t^2 + 1) / (t (t - 1)) over F_5; t^2 + 1 = (t + 2)(t + 3)
    F = GF(5)
    L = ProjectiveLine(F)
    e = RationalFunction.parse(L, "(t^2 + 1) / (t^2 - t)")
    D = e.divisor()
    assert D == Divisor({
        Place(L, (2, 1)): 1,
        Place(L, (3, 1)): 1,
        Place(L, (0, 1)): -1,
        Place(L, (4, 1)): -1,
    })
    assert D.degree == 0
    # residue of t * e at t = 0 is 1 / (0 - 1) = -1
    assert unit_residue(e, Place(L, (0, 1))) == (4,)
    assert e.ord_at(L.infinity) == 0
    assert unit_residue(e, L.infinity) == 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_orders_and_residues_match_oracles(q):
    F = GF(q)
    L = ProjectiveLine(F)
    rng = random.Random(100 + q)
    inf = L.infinity
    for _ in range(25):
        num = random_nonzero_poly(rng, F, 4)
        den = random_nonzero_poly(rng, F, 4)
        e = RationalFunction.from_poly(L, num) / RationalFunction.from_poly(L, den)
        assert e.divisor().degree == 0
        assert e.ord_at(inf) == poly_deg(den) - poly_deg(num)
        assert unit_residue(e, inf) == F.mul(num[-1], F.inv(den[-1]))
        places = [Place(L, p) for p in e.factors]
        places.extend(finite_places_of_degree(L, 1)[:2])
        for P in places:
            assert e.ord_at(P) == oracle_ord(num, den, P.poly, F)
            assert unit_residue(e, P) == oracle_unit_residue(num, den, P.poly, F)


def test_multiplicativity_of_orders_and_residues():
    F = GF(5)
    L = ProjectiveLine(F)
    rng = random.Random(7)
    for _ in range(10):
        a = RationalFunction.from_poly(L, random_nonzero_poly(rng, F, 3))
        b = RationalFunction.from_poly(L, random_nonzero_poly(rng, F, 3))
        prod = a * b
        for P in ProjectiveLine(F).places_of_degree(1) + finite_places_of_degree(L, 2)[:3]:
            assert prod.ord_at(P) == a.ord_at(P) + b.ord_at(P)
            rf = residue_field(P)
            assert unit_residue(prod, P) == rf.mul(unit_residue(a, P), unit_residue(b, P))


def test_inverse_and_power():
    F = GF(5)
    L = ProjectiveLine(F)
    e = RationalFunction.parse(L, "3 * (t)^2 * (t + 1)^-1")
    assert (e * e.inverse()) == RationalFunction.one(L)
    assert e ** 0 == RationalFunction.one(L)
    assert (e ** 3).ord_at(Place(L, (0, 1))) == 6
    assert (e ** -2).constant == F.pow(3, -2)


def test_functions_of_different_lines_do_not_multiply():
    t5 = RationalFunction.parse(ProjectiveLine(GF(5)), "t")
    t7 = RationalFunction.parse(ProjectiveLine(GF(7)), "t")
    assert t5 * RationalFunction.parse(ProjectiveLine(GF(5)), "t") == t5 ** 2
    with pytest.raises(ValueError, match="different models"):
        t5 * t7
    with pytest.raises(ValueError, match="different models"):
        t5 / t7
    # a function times or over a number is no function
    with pytest.raises(TypeError):
        t5 * 2
    with pytest.raises(TypeError):
        t5 / 2


def test_is_square():
    F = GF(5)
    L = ProjectiveLine(F)
    t = RationalFunction.parse(L, "t")
    assert (t * t).is_square()
    assert not t.is_square()
    assert not (RationalFunction(L, 2) * t * t).is_square()  # 2 is not a square mod 5
    assert RationalFunction(L, 4).is_square()


def test_str_roundtrip_extension_constants():
    F = GF(9)
    L = ProjectiveLine(F)
    e = RationalFunction(L, 5, {(3, 1): 2, (0, 1): -1})
    assert RationalFunction.parse(L, str(e)) == e


# -- the projective-line backend ------------------------------------------------


def test_pic_facts():
    F = GF(5)
    line = ProjectiveLine(F)
    P1 = Place(line, (0, 1))
    P2 = finite_places_of_degree(line, 2)[0]
    assert line.is_principal(Divisor({P1: 1, line.infinity: -1}))
    assert not line.is_principal(Divisor({P2: 1, line.infinity: -1}))
    assert line.two_divisible(Divisor({P2: 1}))
    assert not line.two_divisible(Divisor({P1: 1}))
    assert line.pic_zero_two_rank() == 0


def test_halving():
    F = GF(5)
    line = ProjectiveLine(F)
    P2 = finite_places_of_degree(line, 2)[0]
    D = Divisor({P2: 3})
    E = line.halve_in_pic(D)
    assert E is not None and line.is_principal(D - 2 * E)
    assert line.halve_in_pic(Divisor({Place(line, (0, 1)): 1})) is None


def test_function_with_divisor():
    F = GF(5)
    line = ProjectiveLine(F)
    rng = random.Random(11)
    for _ in range(10):
        num = random_nonzero_poly(rng, F, 4)
        den = random_nonzero_poly(rng, F, 4)
        e = RationalFunction.from_poly(line, num) / RationalFunction.from_poly(line, den)
        h = line.function_with_divisor(e.divisor())
        assert h.divisor() == e.divisor()
        assert h.constant == 1
    with pytest.raises(ValueError):
        line.function_with_divisor(Divisor({Place(line, (0, 1)): 1}))


def test_pic_complement_two_rank():
    F = GF(5)
    line = ProjectiveLine(F)
    inf = line.infinity
    P2 = finite_places_of_degree(line, 2)[0]
    P3 = finite_places_of_degree(line, 3)[0]
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
    for Q in [line.infinity] + finite_places_of_degree(line, 2)[:3]:
        assert line.parse_place(str(Q)) == Q


@pytest.mark.parametrize("q", [3, 5, 9, 27, 243])
def test_degree_one_characters_by_evaluation_match_jacobi(q):
    """At a place t - r the character of an atom p is read from p(r); it
    must be the Jacobi symbol (p / (t - r)), here by the Euler criterion."""
    line = ProjectiveLine(GF(q))
    F = line.field
    rng = random.Random("degree one %d" % q)
    places = finite_places_of_degree(line, 1)
    atoms = []
    while len(atoms) < 12:
        d = rng.randrange(1, 5)
        p = tuple(rng.randrange(q) for _ in range(d)) + (1,)
        if poly_is_irreducible(p, F):
            atoms.append(p)
    for place in rng.sample(places, min(len(places), 15)):
        for p in atoms + [place.poly, poly_mul(place.poly, atoms[0], F)]:
            expected = 1 if p == place.poly else euler_jacobi(p, place.poly, F)
            assert RationalFunction._atom_char(p, place, line) == expected
