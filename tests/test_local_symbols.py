from __future__ import annotations

import collections
import itertools
import random

import pytest

from wildsets.base_algebra import (
    GF,
    poly_factor,
    poly_is_irreducible,
    poly_neg,
    poly_norm,
    poly_parse,
)
from wildsets.elliptic_curve import EllipticModel
from wildsets.function_field import FactoredFunction
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
    square_class_parse,
    square_class_str,
)
from wildsets.projective_line import Place, ProjectiveLine, RationalFunction, finite_places_of_degree

from residue_oracle import euler_square_class

CLASSES = (ONE, U, PI, U_PI)


def random_poly(rng, F, deg):
    while True:
        f = poly_norm(tuple(rng.randrange(F.q) for _ in range(deg + 1)))
        if f:
            return f


def random_element(rng, L, max_deg=3):
    F = L.field

    def poly():
        while True:
            f = poly_norm(tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, max_deg + 2))))
            if f:
                return f

    return RationalFunction.from_poly(L, poly()) / RationalFunction.from_poly(L, poly())


# -- square classes -----------------------------------------------------------


def test_square_classes_form_klein_four():
    # a class is the int its names XOR to: bit 0 the order parity, bit 1
    # the nonsquare bit, so the product of classes is ^
    assert (ONE, PI, U, U_PI) == (0, 1, 2, 3) and U ^ PI == U_PI
    for a in CLASSES:
        assert a ^ a == ONE
        for b in CLASSES:
            assert a ^ b in CLASSES
            assert a ^ b == b ^ a


def test_square_class_names():
    for a in CLASSES:
        assert square_class_parse(square_class_str(a)) == a
    assert square_class_parse("u * pi") == U_PI
    with pytest.raises(ValueError):
        square_class_parse("v")


def test_local_square_class_fixed_values():
    L = ProjectiveLine(GF(5))
    at_t = Place(L, (0, 1))
    inf = L.infinity
    parse = lambda s: RationalFunction.parse(L, s)
    assert local_square_class(parse("t"), at_t) == PI
    assert local_square_class(parse("2"), at_t) == U  # 2 is not a square mod 5
    assert local_square_class(parse("2*t"), at_t) == U_PI
    assert local_square_class(parse("4"), at_t) == ONE
    assert local_square_class(parse("t - 1"), at_t) == ONE  # residue -1 = 2^2
    assert local_square_class(parse("t"), inf) == PI
    assert local_square_class(parse("4 * (t)^2"), at_t) == ONE


def test_local_square_class_is_multiplicative():
    L = ProjectiveLine(GF(9))
    rng = random.Random(41)
    places = [L.infinity] + finite_places_of_degree(L, 1)[:2] + finite_places_of_degree(L, 2)[:2]
    for _ in range(15):
        a, b = random_element(rng, L), random_element(rng, L)
        for P in places:
            assert local_square_class(a * b, P) == \
                local_square_class(a, P) ^ local_square_class(b, P)


def test_minus_one_square_depends_on_residue_size():
    L5, L3 = ProjectiveLine(GF(5)), ProjectiveLine(GF(3))
    assert minus_one_is_square(Place(L5, (0, 1)))
    assert not minus_one_is_square(Place(L3, (0, 1)))
    assert minus_one_is_square(finite_places_of_degree(L3, 2)[0])  # size 9
    assert residue_field_size(finite_places_of_degree(L5, 2)[0]) == 25


@pytest.mark.parametrize("q, f", [(3, None), (5, None), (9, None),
                                  (5, "t^3 + 4t")])
def test_class_of_minus_one_is_read_off_the_flag(q, f):
    # verification reads the class of -1 off minus_one_is_square: ONE
    # where -1 is a local square, U elsewhere
    F = GF(q)
    model = ProjectiveLine(F) if f is None else \
        EllipticModel(F, poly_parse(f, F))
    minus_one = model.constant(F.neg(1))
    seen = set()
    for P in model.places_of_degree(1) + model.places_of_degree(2):
        flag = minus_one_is_square(P)
        assert local_square_class(minus_one, P) == (ONE if flag else U), P
        seen.add(flag)
    assert seen == ({True} if q % 4 == 1 else {True, False})


# -- Hilbert symbols ------------------------------------------------------------


def test_hilbert_symbol_fixed_values():
    L5 = ProjectiveLine(GF(5))
    at_t5 = Place(L5, (0, 1))
    t5 = RationalFunction.parse(L5, "t")
    assert hilbert_symbol(t5, t5, at_t5) == 1
    assert hilbert_symbol(t5, RationalFunction.parse(L5, "2"), at_t5) == -1
    assert hilbert_symbol(t5, RationalFunction.parse(L5, "t - 1"), at_t5) == 1
    L3 = ProjectiveLine(GF(3))
    t3 = RationalFunction.parse(L3, "t")
    assert hilbert_symbol(t3, t3, Place(L3, (0, 1))) == -1  # chi(-1) = -1 in F_3


def test_hilbert_symbol_is_symmetric_and_bilinear():
    L = ProjectiveLine(GF(5))
    rng = random.Random(17)
    places = [L.infinity] + finite_places_of_degree(L, 1) + finite_places_of_degree(L, 2)[:2]
    for _ in range(10):
        a, b, c = (random_element(rng, L) for _ in range(3))
        for P in places:
            assert hilbert_symbol(a, b, P) == hilbert_symbol(b, a, P)
            assert hilbert_symbol(a * b, c, P) == hilbert_symbol(a, c, P) * hilbert_symbol(b, c, P)


def test_hilbert_symbol_trivial_on_units():
    L = ProjectiveLine(GF(3))
    P = Place(L, (0, 1))
    a = RationalFunction.parse(L, "2")          # nonsquare unit
    b = RationalFunction.parse(L, "t - 1")
    assert hilbert_symbol(a, b, P) == 1


@pytest.mark.parametrize("q", [3, 5, 9])
def test_reciprocity(q):
    L = ProjectiveLine(GF(q))
    rng = random.Random(1000 + q)
    for _ in range(40):
        a, b = random_element(rng, L), random_element(rng, L)
        assert reciprocity_product(a, b) == 1


def test_reciprocity_with_cancelling_supports():
    # ord parities matter even when the summed divisor cancels
    t = RationalFunction.parse(ProjectiveLine(GF(3)), "t")
    assert reciprocity_product(t, t.inverse()) == 1
    assert reciprocity_product(t, t) == 1


# -- local maps -----------------------------------------------------------------


def all_maps():
    """All six automorphisms, in a fixed order."""
    return [LocalMap(iu, ip) for iu in CLASSES[1:] for ip in CLASSES[1:]
            if iu != ip]


def inverse(m):
    return next(n for n in all_maps() if m.compose(n).is_identity)


def preserves_hilbert_pairing(m, minus_one_square):
    return all(square_class_hilbert(m.apply(a), m.apply(b), minus_one_square)
               == square_class_hilbert(a, b, minus_one_square)
               for a in CLASSES for b in CLASSES)


def test_local_map_enumeration_and_wildness():
    maps = all_maps()
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
    for m in all_maps():
        images = {m.apply(a) for a in CLASSES}
        assert images == set(CLASSES)
        for a in CLASSES:
            for b in CLASSES:
                assert m.apply(a ^ b) == m.apply(a) ^ m.apply(b)


def test_local_map_compose_and_inverse():
    maps = all_maps()
    for m1 in maps:
        inv = inverse(m1)
        assert m1.compose(inv).is_identity and inv.compose(m1).is_identity
        for m2 in maps:
            comp = m1.compose(m2)
            for a in CLASSES:
                assert comp.apply(a) == m1.apply(m2.apply(a))


def test_symbol_preservation_depends_on_minus_one():
    maps = all_maps()
    assert all(preserves_hilbert_pairing(m, True) for m in maps)
    preservers = {m for m in maps if preserves_hilbert_pairing(m, False)}
    assert preservers == {LocalMap.identity(), LocalMap.tame_twist()}


# the three special-case builders LocalMap.from_pairs replaced, kept as
# the oracle for it


def map_from_action(a, fa, b, fb):
    vals = {a: fa, b: fb, a ^ b: fa ^ fb}
    return LocalMap(vals[U], vals[PI])


def map_sending_u(x):
    for ip in (U, PI, U_PI):
        if ip != x:
            return LocalMap(x, ip)
    raise AssertionError("unreachable: three candidates, one exclusion")


def map_sending_to_u(y):
    if y == PI:
        return LocalMap(PI, U)
    if y == U_PI:
        return LocalMap(PI, U_PI)
    raise AssertionError("y has even parity")


def test_from_pairs_matches_the_special_case_builders():
    nontrivial = CLASSES[1:]
    checked = 0
    for a in nontrivial:
        for b in nontrivial:
            for fa in nontrivial:
                for fb in nontrivial:
                    if a == b or fa == fb:
                        continue
                    assert LocalMap.from_pairs([(a, fa), (b, fb)]) == \
                        map_from_action(a, fa, b, fb)
                    checked += 1
    for x in nontrivial:
        assert LocalMap.from_pairs([(U, x)]) == map_sending_u(x)
        checked += 1
    for y in (PI, U_PI):
        assert LocalMap.from_pairs([(y, U)]) == map_sending_to_u(y)
        checked += 1
    assert checked == 41


def test_from_pairs_refuses_what_no_automorphism_fits():
    assert LocalMap.from_pairs([(ONE, U)]) is None
    assert LocalMap.from_pairs([(U, PI), (U, U_PI)]) is None
    assert LocalMap.from_pairs([(U, PI), (PI, PI)]) is None
    assert LocalMap.from_pairs([(ONE, ONE)]) == LocalMap.identity()
    # every consistent list of pairs is met by the map it returns
    for m in all_maps():
        for a in CLASSES:
            for b in CLASSES:
                pairs = [(a, m.apply(a)), (b, m.apply(b))]
                got = LocalMap.from_pairs(pairs)
                assert all(got.apply(s) == d for s, d in pairs)


def greedy_from_pairs(pairs):
    """LocalMap.from_pairs as it was written before it became a search of
    the six automorphisms, kept verbatim as the oracle for it."""
    vals = {}
    for s, d in pairs:
        if (s == ONE) != (d == ONE):
            return None
        if s == ONE:
            continue
        if vals.setdefault(s, d) != d:
            return None
    if len(set(vals.values())) != len(vals):
        return None
    taken = set(vals.values())
    for s in (U, PI, U_PI):
        if s not in vals:
            vals[s] = next(d for d in (U, PI, U_PI) if d not in taken)
            taken.add(vals[s])
    # an injective assignment of the three nontrivial classes is
    # automatically multiplicative, so no closing check is needed
    return LocalMap(vals[U], vals[PI])


def test_from_pairs_matches_the_greedy_fill_on_every_short_list():
    pairs = [(s, d) for s in CLASSES for d in CLASSES]
    checked = 0
    for n in range(5):
        for chosen in itertools.product(pairs, repeat=n):
            assert LocalMap.from_pairs(chosen) == greedy_from_pairs(chosen)
            checked += 1
    assert checked == 69905


def _pair_models():
    """The lines over F_3, F_5, F_9, F_27, F_243 and the F_5 curve t^3 + 4t."""
    models = [ProjectiveLine(GF(q)) for q in (3, 5, 9, 27, 243)]
    return models + [EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))]


def _seeded_pairs(model, rng, n):
    """n pairs (a, b) of ratios of polynomials of degree <= 3; b shares a
    factor with a every other pair, and on the curve every other b is
    times y."""
    F = model.field

    def ratio():
        return (model.from_poly(random_poly(rng, F, rng.randrange(4)))
                / model.from_poly(random_poly(rng, F, rng.randrange(4))))

    pairs = []
    for i in range(n):
        a, b = ratio(), ratio()
        if i % 2:
            shared = model.from_poly(random_poly(rng, F, rng.randrange(1, 3)))
            a, b = a * shared, b * shared ** rng.choice((1, 2, 3))
        if isinstance(model, EllipticModel) and i % 4 >= 2:
            b = b * model.y()
        pairs.append((a, b))
    return pairs


def test_square_class_hilbert_matches_element_level():
    """The lazy symbol equals the pairing of the two full classes at every
    place of either support and at infinity."""
    rng = random.Random(29)
    cases = collections.Counter()
    for model in _pair_models():
        for a, b in _seeded_pairs(model, rng, 12):
            places = set(a.divisor().coeffs) | set(b.divisor().coeffs)
            places.add(model.infinity)
            for P in places:
                odd = (a.ord_at(P) & 1) + (b.ord_at(P) & 1)
                cases[("both even", "one odd", "both odd")[odd]] += 1
                assert hilbert_symbol(a, b, P) == square_class_hilbert(
                    local_square_class(a, P), local_square_class(b, P),
                    minus_one_is_square(P)), (model.key, a, b, P)
    assert all(cases[k] > 0 for k in ("both even", "one odd", "both odd")), cases


def _counted_reads(monkeypatch):
    """A list that records each function whose residue_char is read."""
    reads = []
    read = FactoredFunction.residue_char

    def counted(self, place, atom_char=None):
        reads.append(self)
        return read(self, place, atom_char)

    monkeypatch.setattr(FactoredFunction, "residue_char", counted)
    return reads


def test_hilbert_symbol_reads_only_the_characters_it_pairs(monkeypatch):
    L = ProjectiveLine(GF(5))
    at_t = Place(L, (0, 1))
    parse = lambda s: RationalFunction.parse(L, s)
    reads = _counted_reads(monkeypatch)
    # both orders even: no character at all
    assert hilbert_symbol(parse("2 * t^2"), parse("(t - 1) / t^2"), at_t) == 1
    assert reads == []
    # only a has odd order: only b's character, here of the nonsquare 2
    a, b = parse("t * (t - 1)"), parse("2 * t^2")
    assert hilbert_symbol(a, b, at_t) == -1
    assert reads == [b]
    del reads[:]
    assert hilbert_symbol(b, a, at_t) == -1
    assert reads == [b]


def test_reciprocity_reads_at_most_one_character_per_odd_entry(monkeypatch):
    reads = _counted_reads(monkeypatch)
    rng = random.Random(31)
    for model in _pair_models():
        for a, b in _seeded_pairs(model, rng, 6):
            odd = sum(n & 1 for D in (a.divisor(), b.divisor())
                      for n in D.coeffs.values())
            del reads[:]
            assert reciprocity_product(a, b) == 1
            assert len(reads) <= odd, (model.key, a, b)


def test_symbols_refuse_functions_on_different_models():
    a = ProjectiveLine(GF(5)).parse("t")
    b = ProjectiveLine(GF(7)).parse("t+1")
    with pytest.raises(ValueError, match="different models"):
        reciprocity_product(a, b)
    with pytest.raises(ValueError, match="different models"):  # no place to pair at
        reciprocity_product(a.model.constant(2), b.model.constant(3))
    with pytest.raises(ValueError, match="different models"):
        hilbert_symbol(a, b, a.model.infinity)
    with pytest.raises(ValueError, match="different model"):
        hilbert_symbol(a, a, b.model.infinity)
    # another model with the same key is the same model
    c = ProjectiveLine(GF(5)).parse("t+1")
    assert hilbert_symbol(a, c, c.model.infinity) == hilbert_symbol(
        a, a.model.parse("t+1"), a.model.infinity)
    assert reciprocity_product(a, c) == 1


# -- residue characters against the Euler criterion ------------------------------

LINE_FIELDS = (3, 5, 9, 13, 25, 27)
CURVES = ((5, "t^3 + t + 1"),    # ramified of degree 3
          (7, "t^3 + t"),        # q = 3 mod 4; ramified of degrees 1 and 2
          (9, "t^3 + 2t + g"),   # extension field, full 2-torsion
          (11, "t^3 + t + 4"),   # q = 3 mod 4; ramified of degree 3
          (13, "2t^3 + t"))      # non-monic; ramified of degrees 1 and 2


def _sample_places(model, rng, counts):
    """All degree-1 places and the places over a few random bases of
    degrees 2 and 3."""
    F = model.field
    places = model.places_of_degree(1)
    for d, n in counts:
        bases = set()
        while len(bases) < n:
            p = tuple(rng.randrange(F.q) for _ in range(d)) + (1,)
            if poly_is_irreducible(p, F):
                bases.add(p)
        for p in sorted(bases):
            if isinstance(model, ProjectiveLine):
                places.append(Place(model, p))
            else:
                places.extend(model.places_above(p))
    return places


def _check_against_euler(elem, places, seen):
    for P in places:
        want = euler_square_class(elem, P)
        assert elem.residue_char(P) == (-1 if want & U else 1), (elem, P)
        assert local_square_class(elem, P) == want
        seen["cases"] += 1
        seen[getattr(P, "kind", "infinite" if P.is_infinite else "finite")] += 1
        base = getattr(P, "base", getattr(P, "poly", None))
        for atom, e in elem.factors.items():
            seen["even exponent"] += e % 2 == 0
            seen["pair atom"] += atom[0] == "lin"
            seen["base atom"] += base is not None and atom in (base, ("poly", base))


def test_residue_char_matches_the_euler_criterion():
    seen = collections.Counter()
    rng = random.Random(2018)
    for q in LINE_FIELDS:
        F = GF(q)
        line = ProjectiveLine(F)
        places = _sample_places(line, rng, ((2, 3), (3, 3)))
        pool = [P.poly for P in places if not P.is_infinite]
        for _ in range(50):
            factors = {p: rng.choice((-3, -2, -1, 1, 2, 3))
                       for p in rng.sample(pool, rng.randrange(1, 5))}
            elem = RationalFunction(line, rng.randrange(1, q), factors)
            _check_against_euler(elem, places, seen)
    for q, text in CURVES:
        F = GF(q)
        model = EllipticModel(F, poly_parse(text, F))
        places = _sample_places(model, rng, ((2, 3), (3, 2)))
        # every ramified place: the places over the factors of f
        places += [P for p, _ in poly_factor(model.f, F)[1]
                   for P in model.places_above(p) if P not in places]
        atoms = [model.from_poly(P.base) for P in places if not P.is_infinite]
        atoms += [model.y()] + [model.from_pair(P.base, (1,))
                                for P in places if P.kind == "ramified"]
        # y minus a lift of the branch vanishes at a split place
        atoms += [model.from_pair(poly_neg(P.branch, F), (1,))
                  for P in places if P.kind == "split"]
        for _ in range(12):
            atoms.append(model.from_pair(random_poly(rng, F, 2), random_poly(rng, F, 1)))
        for _ in range(45):
            elem = model.constant(rng.randrange(1, q))
            for g in rng.sample(atoms, rng.randrange(1, 5)):
                elem = elem * g ** rng.choice((-3, -2, -1, 1, 2, 3))
            _check_against_euler(elem, places, seen)
    assert seen["cases"] >= 9000, seen
    for kind in ("finite", "infinite", "split", "inert", "ramified",
                 "pair atom", "even exponent", "base atom"):
        assert seen[kind] >= 300, (kind, seen)
