from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import GF, poly_norm
from wildsets.local_symbols import (
    ONE,
    PI,
    U,
    U_PI,
    LocalMap,
    hilbert_symbol,
    local_square_class,
    minus_one_is_square,
    reciprocity_product,
    residue_field_size,
    square_class_hilbert,
    square_class_mul,
    square_class_parse,
    square_class_str,
)
from wildsets.projective_line import Place, ProjectiveLine, RationalFunction, finite_places_of_degree

CLASSES = (ONE, U, PI, U_PI)


def random_element(rng, F, max_deg=3):
    def poly():
        while True:
            f = poly_norm(tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, max_deg + 2))))
            if f:
                return f

    return RationalFunction.from_poly(F, poly()) / RationalFunction.from_poly(F, poly())


# -- square classes -----------------------------------------------------------


def test_square_classes_form_klein_four():
    for a in CLASSES:
        assert square_class_mul(a, a) == ONE
        for b in CLASSES:
            assert square_class_mul(a, b) in CLASSES
            assert square_class_mul(a, b) == square_class_mul(b, a)


def test_square_class_names():
    for a in CLASSES:
        assert square_class_parse(square_class_str(a)) == a
    assert square_class_parse("u * pi") == U_PI
    with pytest.raises(ValueError):
        square_class_parse("v")


def test_local_square_class_fixed_values():
    F = GF(5)
    at_t = Place(F, (0, 1))
    inf = Place.infinity(F)
    parse = lambda s: RationalFunction.parse(F, s)
    assert local_square_class(parse("t"), at_t) == PI
    assert local_square_class(parse("2"), at_t) == U  # 2 is not a square mod 5
    assert local_square_class(parse("2*t"), at_t) == U_PI
    assert local_square_class(parse("4"), at_t) == ONE
    assert local_square_class(parse("t - 1"), at_t) == ONE  # residue -1 = 2^2
    assert local_square_class(parse("t"), inf) == PI
    assert local_square_class(parse("4 * (t)^2"), at_t) == ONE


def test_local_square_class_is_multiplicative():
    F = GF(9)
    rng = random.Random(41)
    places = [Place.infinity(F)] + finite_places_of_degree(F, 1)[:2] + finite_places_of_degree(F, 2)[:2]
    for _ in range(15):
        a, b = random_element(rng, F), random_element(rng, F)
        for P in places:
            assert local_square_class(a * b, P) == square_class_mul(
                local_square_class(a, P), local_square_class(b, P))


def test_minus_one_square_depends_on_residue_size():
    assert minus_one_is_square(Place(GF(5), (0, 1)))
    assert not minus_one_is_square(Place(GF(3), (0, 1)))
    assert minus_one_is_square(finite_places_of_degree(GF(3), 2)[0])  # size 9
    assert residue_field_size(finite_places_of_degree(GF(5), 2)[0]) == 25


# -- Hilbert symbols ------------------------------------------------------------


def test_hilbert_symbol_fixed_values():
    F5 = GF(5)
    at_t5 = Place(F5, (0, 1))
    t5 = RationalFunction.parse(F5, "t")
    assert hilbert_symbol(t5, t5, at_t5) == 1
    assert hilbert_symbol(t5, RationalFunction.parse(F5, "2"), at_t5) == -1
    assert hilbert_symbol(t5, RationalFunction.parse(F5, "t - 1"), at_t5) == 1
    F3 = GF(3)
    t3 = RationalFunction.parse(F3, "t")
    assert hilbert_symbol(t3, t3, Place(F3, (0, 1))) == -1  # chi(-1) = -1 in F_3


def test_hilbert_symbol_is_symmetric_and_bilinear():
    F = GF(5)
    rng = random.Random(17)
    places = [Place.infinity(F)] + finite_places_of_degree(F, 1) + finite_places_of_degree(F, 2)[:2]
    for _ in range(10):
        a, b, c = (random_element(rng, F) for _ in range(3))
        for P in places:
            assert hilbert_symbol(a, b, P) == hilbert_symbol(b, a, P)
            assert hilbert_symbol(a * b, c, P) == hilbert_symbol(a, c, P) * hilbert_symbol(b, c, P)


def test_hilbert_symbol_trivial_on_units():
    F = GF(3)
    P = Place(F, (0, 1))
    a = RationalFunction.parse(F, "2")          # nonsquare unit
    b = RationalFunction.parse(F, "t - 1")
    assert hilbert_symbol(a, b, P) == 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_reciprocity(q):
    F = GF(q)
    rng = random.Random(1000 + q)
    for _ in range(40):
        a, b = random_element(rng, F), random_element(rng, F)
        assert reciprocity_product(a, b) == 1


def test_reciprocity_with_cancelling_supports():
    # ord parities matter even when the summed divisor cancels
    F = GF(3)
    t = RationalFunction.parse(F, "t")
    assert reciprocity_product(t, t.inverse()) == 1
    assert reciprocity_product(t, t) == 1


# -- local maps -----------------------------------------------------------------


def test_local_map_enumeration_and_wildness():
    maps = LocalMap.all_maps()
    assert len(set(maps)) == 6
    assert sum(1 for m in maps if m.is_wild) == 4
    assert LocalMap.identity() in maps
    assert LocalMap.tame_twist() in maps
    assert not LocalMap.identity().is_wild
    assert not LocalMap.tame_twist().is_wild
    assert LocalMap.tame_twist().apply(PI) == U_PI


def test_local_map_rejects_degenerate_images():
    with pytest.raises(ValueError):
        LocalMap(ONE, PI)
    with pytest.raises(ValueError):
        LocalMap(U, U)


def test_local_map_is_linear_and_bijective():
    for m in LocalMap.all_maps():
        images = {m.apply(a) for a in CLASSES}
        assert images == set(CLASSES)
        for a in CLASSES:
            for b in CLASSES:
                assert m.apply(square_class_mul(a, b)) == square_class_mul(m.apply(a), m.apply(b))


def test_local_map_compose_and_inverse():
    maps = LocalMap.all_maps()
    for m1 in maps:
        inv = m1.inverse()
        assert m1.compose(inv).is_identity and inv.compose(m1).is_identity
        for m2 in maps:
            comp = m1.compose(m2)
            for a in CLASSES:
                assert comp.apply(a) == m1.apply(m2.apply(a))


def test_symbol_preservation_depends_on_minus_one():
    maps = LocalMap.all_maps()
    assert all(m.preserves_hilbert_pairing(True) for m in maps)
    preservers = {m for m in maps if m.preserves_hilbert_pairing(False)}
    assert preservers == {LocalMap.identity(), LocalMap.tame_twist()}


def test_square_class_hilbert_matches_element_level():
    F = GF(5)
    rng = random.Random(29)
    places = [Place.infinity(F)] + finite_places_of_degree(F, 1)
    for _ in range(10):
        a, b = random_element(rng, F), random_element(rng, F)
        for P in places:
            assert hilbert_symbol(a, b, P) == square_class_hilbert(
                local_square_class(a, P), local_square_class(b, P), minus_one_is_square(P))
