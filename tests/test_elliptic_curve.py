"""Tests for the elliptic backend: places, residues, and divisor classes.

The oracles are deliberately independent of the implementation: point
counts come from a direct double loop and from quadratic character sums,
place counts per degree from the standard trace identities for curves
over finite fields (checked once more by recounting points over the
quadratic extension field), and residues at rational points from plain
evaluation.  Factored-form identities such as
(a + by)(a - by) = a^2 - b^2 f compare two disjoint code paths.
"""

import math
import random

import pytest

from wildsets.base_algebra import (
    GF,
    irreducibles_of_degree,
    poly_eval,
    poly_mul,
    poly_norm,
    poly_parse,
    poly_sub,
)
from wildsets.elliptic_curve import CurveFunction, CurvePlace, EllipticModel
from wildsets.function_field import Divisor
from wildsets.local_symbols import local_square_class, reciprocity_product
from wildsets.square_class_spaces import pic_complement_two_rank

from expression_oracle import parse_whole
from residue_oracle import residue_field, unit_residue

# a mix of shapes: fully split, mixed ramification, irreducible cubics,
# a non-monic cubic, and an extension base field
CURVES = [
    (3, "t^3 + 2t"),        # t(t-1)(t+1): full 2-torsion
    (3, "t^3 + t"),         # t * (t^2 + 1): ramified places of degree 1 and 2
    (3, "t^3 + 2t + 1"),    # irreducible: one ramified place of degree 3
    (5, "t^3 + 4t"),        # the running example below
    (5, "t^3 + t + 1"),     # irreducible over F_5
    (5, "2t^3 + 2t + 1"),   # non-monic leading coefficient
    (9, "t^3 + 2t"),
    (9, "t^3 + 2t + g"),    # extension-field constant term
]


def make(q, text):
    F = GF(q)
    return EllipticModel(F, poly_parse(text, F))


def brute_points(F, f):
    """Direct double loop over the affine plane."""
    pts = set()
    for x in F.elements():
        for yv in F.elements():
            if F.mul(yv, yv) == poly_eval(f, x, F):
                pts.add((x, yv))
    return pts


def zeta_place_counts(F, f):
    """Counts of degree 1/2/3 places from the curve's zeta function."""
    q = F.q
    n1 = 1 + sum(1 + F.quad_char(poly_eval(f, x, F)) for x in F.elements())
    a = q + 1 - n1
    n2 = q ** 2 + 1 - (a * a - 2 * q)
    n3 = q ** 3 + 1 - (a ** 3 - 3 * a * q)
    assert (n2 - n1) % 2 == 0 and (n3 - n1) % 3 == 0
    return {1: n1, 2: (n2 - n1) // 2, 3: (n3 - n1) // 3}


def random_poly(rng, F, deg):
    while True:
        f = poly_norm(tuple(rng.randrange(F.q) for _ in range(deg + 1)))
        if f:
            return f


def random_function(model, rng, natoms=3):
    F = model.field
    h = model.constant(rng.randrange(1, F.q))
    for _ in range(natoms):
        e = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            d = rng.choice([1, 1, 2])
            opts = list(irreducibles_of_degree(F, d))
            h = h * model.from_poly(opts[rng.randrange(len(opts))]) ** e
        else:
            a = random_poly(rng, F, rng.randrange(3)) if rng.random() < 0.9 else ()
            b = random_poly(rng, F, rng.randrange(2))
            h = h * model.from_pair(a, b) ** e
    return h


def eval_at_point(h, x, yv):
    """Value of a factored function at a rational point, or None if any
    single factor vanishes there (making the plain value meaningless)."""
    F = h.model.field
    val = h.constant
    for (kind, data), e in h.factors.items():
        if kind == "poly":
            v = poly_eval(data, x, F)
        else:
            a, b = data
            v = F.add(poly_eval(a, x, F), F.mul(poly_eval(b, x, F), yv))
        if v == 0:
            return None
        val = F.mul(val, F.pow(v, e))
    return val


# -- model validation


def test_model_rejects_bad_input():
    F = GF(5)
    with pytest.raises(ValueError):
        EllipticModel(F, poly_parse("t^2 + 1", F))
    with pytest.raises(ValueError):
        EllipticModel(F, poly_parse("t^3", F))  # triple root
    with pytest.raises(ValueError):
        EllipticModel(F, poly_parse("(t + 1)^2 (t + 2)", F))
    F9 = GF(9)
    with pytest.raises(ValueError):
        EllipticModel(F9, poly_parse("t^3 + g", F9))  # cube in char 3
    with pytest.raises(ValueError):
        EllipticModel(GF(2), (1, 1, 0, 1))


# -- the group of rational points


def test_rational_points_against_direct_enumeration():
    for q, text in CURVES:
        model = make(q, text)
        pts = model.rational_points()
        assert pts[0] is None
        assert set(pts[1:]) == brute_points(model.field, model.f)
        assert len(pts) == len(set(pts))


def test_point_count_matches_character_sum():
    for q, text in CURVES:
        model = make(q, text)
        F = model.field
        n = 1 + sum(1 + F.quad_char(poly_eval(model.f, x, F)) for x in F.elements())
        assert len(model.rational_points()) == n


def test_hasse_bound():
    for q, text in CURVES:
        model = make(q, text)
        a = q + 1 - len(model.rational_points())
        assert a * a <= 4 * q


def test_group_law_basics():
    model = make(5, "t^3 + 4t")
    pts = model.rational_points()
    on_curve = set(pts)
    for P in pts:
        assert model.add_points(P, None) == P
        assert model.add_points(P, model.negate_point(P)) is None
        for Q in pts:
            S = model.add_points(P, Q)
            assert S in on_curve
            assert S == model.add_points(Q, P)
    rng = random.Random(7)
    for _ in range(40):
        P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
        left = model.add_points(model.add_points(P, Q), R)
        right = model.add_points(P, model.add_points(Q, R))
        assert left == right


def point_order(model, P):
    k, Q = 1, P
    while Q is not None:
        Q = model.add_points(Q, P)
        k += 1
    return k


def group_invariants(model):
    """Invariant factors (d1, d2) with d1 | d2, or (n,) if cyclic."""
    N = len(model.rational_points())
    exp = 1
    for P in model.rational_points():
        exp = math.lcm(exp, point_order(model, P))
    n1 = N // exp
    assert n1 * exp == N and (n1 == 1 or exp % n1 == 0)
    if n1 == 1:
        return (exp,) if exp > 1 else ()
    return (n1, exp)


def test_group_invariants_structure():
    for q, text in CURVES:
        model = make(q, text)
        inv = group_invariants(model)
        n = 1
        for d in inv:
            n *= d
        assert n == len(model.rational_points())
        for d1, d2 in zip(inv, inv[1:]):
            assert d2 % d1 == 0
        assert sum(1 for d in inv if d % 2 == 0) == model.pic_zero_two_rank()


def test_two_torsion_matches_the_root_scan():
    # the roots of f by evaluation at every element, in increasing order
    for q, text in CURVES:
        model = make(q, text)
        F = model.field
        roots = [x for x in F.elements() if poly_eval(model.f, x, F) == 0]
        rank = {0: 0, 1: 1, 3: 2}[len(roots)]
        assert model.pic_zero_two_rank() == rank
        assert model.two_torsion_witnesses() == \
            [model.from_poly((F.neg(x), 1)) for x in roots[:rank]]


def test_running_example_group_table():
    model = make(5, "t^3 + 4t")
    assert model.rational_points() == [
        None, (0, 0), (1, 0), (2, 1), (2, 4), (3, 2), (3, 3), (4, 0)]
    assert len(model.rational_points()) == 8
    assert group_invariants(model) == (2, 4)
    assert model.pic_zero_two_rank() == 2
    assert model.add_points((2, 1), (2, 1)) == (0, 0)
    assert model._halves() == {None: None, (0, 0): (2, 1)}


# -- places


def test_place_classification_small():
    model = make(5, "t^3 + 4t")
    F = model.field
    for root in (0, 1, 4):
        above = model.places_above((F.neg(root), 1))
        assert [P.kind for P in above] == ["ramified"]
        assert above[0].degree == 1
    above = model.places_above((3, 1))  # t + 3, i.e. x = 2 with f(2) = 1
    assert [P.kind for P in above] == ["split", "split"]
    assert [P.branch for P in above] == [(1,), (4,)]

    other = make(5, "t^3 + t + 1")
    above = other.places_above((4, 1))  # f(1) = 3, a non-square
    assert [P.kind for P in above] == ["inert"]
    assert above[0].degree == 2
    above = other.places_above(other.f)  # the cubic itself ramifies
    assert [P.kind for P in above] == ["ramified"]
    assert above[0].degree == 3


def test_place_counts_match_zeta_numbers():
    for q, text in CURVES:
        model = make(q, text)
        want = zeta_place_counts(model.field, model.f)
        for d in (1, 2, 3):
            places = model.places_of_degree(d)
            assert len(places) == want[d]
            assert all(P.degree == d for P in places)


def test_zeta_prediction_against_extension_recount():
    # the degree-two trace identity, recounted directly over F_9
    model3 = make(3, "t^3 + t")
    f = model3.f
    F9 = GF(9)
    n2_direct = 1 + len(brute_points(F9, f))
    F3 = model3.field
    n1 = 1 + sum(1 + F3.quad_char(poly_eval(f, x, F3)) for x in F3.elements())
    a = 3 + 1 - n1
    assert n2_direct == 9 + 1 - (a * a - 6)


def test_places_of_degree_order_and_determinism():
    model = make(5, "t^3 + t + 1")
    first = model.places_of_degree(1)
    assert first[0].is_infinite
    assert first == model.places_of_degree(1)
    deg2 = model.places_of_degree(2)
    assert deg2 == sorted(deg2, key=CurvePlace.sort_key)
    assert not (set(first) & set(deg2))


@pytest.mark.parametrize("q,text", CURVES[:5])
def test_cached_places_of_degree_match_a_fresh_enumeration(q, text):
    model = make(q, text)
    F = model.field
    for d in (1, 2, 3):
        # the oracle goes through the checked places_above of a new model
        oracle = make(q, text)
        fresh = [P for p in irreducibles_of_degree(F, d)
                 for P in oracle.places_above(p) if P.kind != "inert"]
        if d % 2 == 0:
            fresh += [P for p in irreducibles_of_degree(F, d // 2)
                      for P in oracle.places_above(p) if P.kind == "inert"]
        fresh.sort(key=CurvePlace.sort_key)
        if d == 1:
            fresh.insert(0, oracle.infinity)
        first = model.places_of_degree(d)
        assert first == fresh
        first.reverse()
        first.append(model.infinity)
        assert model.places_of_degree(d) == fresh
    above = model.places_above((0, 1))
    above.clear()
    assert model.places_above((0, 1))


def test_checked_constructor_rejects_bad_atoms():
    model = make(5, "t^3 + 4t")
    with pytest.raises(ValueError):
        model.places_above(poly_parse("t^2 - 1", model.field))
    with pytest.raises(ValueError):
        CurveFunction(model, 1, {("poly", poly_parse("t^2 - 1", model.field)): 1})
    with pytest.raises(ValueError):
        CurveFunction(model, 1, {("lin", ((0, 1), (0, 1))): 1})  # t + t*y
    with pytest.raises(ValueError):
        CurveFunction(model, 1, {("lin", ((1,), (2,))): 1})  # 1 + 2y
    y = CurveFunction(model, 1, {("lin", ((), (1,))): 1})
    assert y == model.y()


def test_residue_field_sizes():
    model = make(5, "t^3 + t + 1")
    for d in (1, 2):
        for P in model.places_of_degree(d):
            rf = residue_field(P)
            size = rf.q if P.is_infinite else rf.size
            assert size == 5 ** P.degree


def test_parse_place_roundtrip_and_errors():
    model = make(5, "t^3 + t + 1")
    for d in (1, 2, 3):
        for P in model.places_of_degree(d):
            assert model.parse_place(str(P)) == P
    assert model.parse_place("inf").is_infinite
    with pytest.raises(ValueError):
        model.parse_place("(t; ramified)")  # t is split here
    with pytest.raises(ValueError):
        model.parse_place("(t; split)")  # branch missing
    with pytest.raises(ValueError):
        model.parse_place("(t; split; 2)")  # 2 is not a root of f(0) = 1
    with pytest.raises(ValueError):
        model.parse_place("(t + 4; inert; 1)")  # stray branch
    with pytest.raises(ValueError):
        model.parse_place("t + 4")


# -- orders, residues, divisors of factored functions


def test_conjugate_pair_matches_polynomial_norm():
    rng = random.Random(20)
    for q, text in [(3, "t^3 + t"), (5, "t^3 + 4t"), (9, "t^3 + 2t + g")]:
        model = make(q, text)
        F = model.field
        for _ in range(8):
            a = random_poly(rng, F, rng.randrange(3))
            b = random_poly(rng, F, rng.randrange(2))
            n = poly_sub(poly_mul(a, a, F),
                         poly_mul(poly_mul(b, b, F), model.f, F), F)
            h = model.from_pair(a, b) * model.from_pair(a, poly_sub((), b, F))
            g = model.from_poly(n)
            assert h.divisor() == g.divisor()
            places = set(g.divisor().coeffs) | set(model.places_of_degree(1))
            for P in places:
                assert h.ord_at(P) == g.ord_at(P)
                assert unit_residue(h, P) == unit_residue(g, P)


def test_y_squared_is_f():
    for q, text in CURVES:
        model = make(q, text)
        ysq = model.y() ** 2
        g = model.from_poly(model.f)
        assert ysq.divisor() == g.divisor()
        for d in (1, 2):
            for P in model.places_of_degree(d):
                assert ysq.ord_at(P) == g.ord_at(P)
                assert unit_residue(ysq, P) == unit_residue(g, P)


def test_divisor_matches_ord_at_everywhere():
    rng = random.Random(21)
    for q, text in CURVES[:6]:
        model = make(q, text)
        h = random_function(model, rng)
        D = h.divisor()
        assert D.degree == 0
        for P, n in D.items():
            assert h.ord_at(P) == n
        for P in model.places_of_degree(1):
            assert h.ord_at(P) == D.get(P)


def test_unit_residue_by_evaluation_at_rational_points():
    rng = random.Random(22)
    checked = 0
    for q, text in CURVES[:6]:
        model = make(q, text)
        F = model.field
        for _ in range(12):
            h = random_function(model, rng)
            for pt in model.rational_points():
                if pt is None or pt[1] == 0:
                    continue
                val = eval_at_point(h, *pt)
                if val is None:
                    continue
                P = model.place_of_rational_point(pt)
                assert h.ord_at(P) == 0
                assert unit_residue(h, P) == (val,)
                checked += 1
    assert checked > 100


def test_unit_residue_is_multiplicative():
    rng = random.Random(23)
    model = make(5, "t^3 + t + 1")
    for _ in range(6):
        h1 = random_function(model, rng)
        h2 = random_function(model, rng)
        prod = h1 * h2
        places = (set(h1.divisor().coeffs) | set(h2.divisor().coeffs)
                  | set(model.places_of_degree(1)))
        for P in places:
            rf = residue_field(P)
            want = rf.mul(unit_residue(h1, P), unit_residue(h2, P))
            assert unit_residue(prod, P) == want


def test_running_example_hand_values():
    model = make(5, "t^3 + 4t")
    rt = model.places_above((0, 1))[0]
    assert model.y().divisor() == Divisor({
        rt: 1,
        model.places_above((4, 1))[0]: 1,
        model.places_above((1, 1))[0]: 1,
        model.infinity: -3,
    })
    t = model.from_poly((0, 1))
    assert t.ord_at(rt) == 2
    # t = y^2 / (t^2 - 1) and t^2 - 1 = -1 at the place, so the residue
    # against the uniformizer y is 1 / (-1)
    assert unit_residue(t, rt) == (4,)
    assert t.ord_at(model.infinity) == -2
    assert unit_residue(t, model.infinity) == 1
    y = model.y()
    assert y.ord_at(model.infinity) == -3
    assert unit_residue(y, model.infinity) == 1
    # a linear pair with a simple zero: y - 1 vanishes at (2, 1) only
    h = model.parse("y - 1")
    P = model.place_of_rational_point((2, 1))
    assert h.ord_at(P) == 1
    assert unit_residue(h, P) == (3,)  # dy/dt = f'(2)/2y = 3 at the point
    Pconj = model.place_of_rational_point((2, 4))
    assert h.ord_at(Pconj) == 0
    assert unit_residue(h, Pconj) == (3,)  # direct evaluation: 4 - 1


def test_infinity_with_nonmonic_leading_coefficient():
    model = make(5, "2t^3 + 2t + 1")
    t = model.from_poly((0, 1))
    assert t.ord_at(model.infinity) == -2
    assert unit_residue(t, model.infinity) == 3  # 1 / lc(f) = 1/2
    y = model.y()
    assert y.ord_at(model.infinity) == -3
    assert unit_residue(y, model.infinity) == 3


def test_constants_are_units_everywhere():
    model = make(5, "t^3 + t + 1")
    c = model.constant(2)  # a non-square in F_5
    for d in (1, 2):
        for P in model.places_of_degree(d):
            assert c.ord_at(P) == 0
            cls = local_square_class(c, P)
            # the residue field is F_{q^deg}, so a non-square constant
            # becomes a square exactly where the degree is even
            want = 0 if P.degree % 2 == 0 else 1
            assert cls == (0, want)


def test_vertical_line_divisors():
    model = make(5, "t^3 + 4t")
    v = model.from_poly((3, 1))  # t + 3 = t - 2: x = 2, a split fiber
    P1 = model.place_of_rational_point((2, 1))
    P2 = model.place_of_rational_point((2, 4))
    assert v.divisor() == Divisor({P1: 1, P2: 1, model.infinity: -2})
    w = model.from_poly((0, 1))  # x = 0: the 2-torsion fiber
    R = model.place_of_rational_point((0, 0))
    assert w.divisor() == Divisor({R: 2, model.infinity: -2})


def test_reciprocity_on_the_curve():
    rng = random.Random(24)
    for q, text in [(3, "t^3 + t"), (5, "t^3 + 4t"),
                    (5, "2t^3 + 2t + 1"), (9, "t^3 + 2t + g")]:
        model = make(q, text)
        for _ in range(10):
            a = random_function(model, rng)
            b = random_function(model, rng)
            assert reciprocity_product(a, b) == 1


# -- parsing and printing


def assert_same_function(g, h):
    assert g.divisor() == h.divisor()
    for P in g.model.places_of_degree(1):
        assert unit_residue(g, P) == unit_residue(h, P)


def test_parse_and_str_of_functions():
    model = make(5, "t^3 + 4t")
    # a product stays factored as it is written: y^2 is the function f,
    # kept as the square of the pair atom y
    assert model.parse("y^2") == model.y() ** 2
    assert_same_function(model.parse("y^2"), model.from_poly(model.f))
    assert model.parse("y / t") == model.y() / model.from_poly((0, 1))
    assert model.parse("y^2 / y") == model.y()
    h = model.parse("(y - 1) / (t + y)^2")
    assert h.divisor().degree == 0
    assert model.parse(str(h)) == h
    rng = random.Random(25)
    for _ in range(6):
        h = random_function(model, rng)
        assert model.parse(str(h)) == h
        assert_same_function(parse_whole(model, str(h)), h)


def test_parse_rejects_degenerate_input():
    model = make(5, "t^3 + 4t")
    with pytest.raises(ValueError):
        model.parse("0")
    with pytest.raises(ValueError):
        model.parse("y^2 - t^3 - 4t")  # the zero function
    with pytest.raises(ValueError):
        model.parse("1 / (y^2 - t^3 - 4t)")
    with pytest.raises(ValueError):
        model.parse("x + 1")


# -- divisor classes


def test_pic_class_of_degree_one_places():
    model = make(5, "t^3 + 4t")
    for pt in model.rational_points():
        P = model.place_of_rational_point(pt)
        assert model.pic_class_of_place(P) == pt
        assert model.point_of_place(P) == pt


def test_pic_class_of_higher_places():
    other = make(5, "t^3 + t + 1")
    inert = other.places_above((4, 1))[0]
    assert other.pic_class_of_place(inert) is None

    mixed = make(3, "t^3 + t")
    ram2 = mixed.places_above((1, 0, 1))[0]  # t^2 + 1
    assert ram2.kind == "ramified" and ram2.degree == 2
    # the orbit sum of (i, 0) and (-i, 0) is the third 2-torsion point
    assert mixed.pic_class_of_place(ram2) == (0, 0)


def test_divisors_of_functions_are_principal():
    rng = random.Random(26)
    for q, text in CURVES[:6]:
        model = make(q, text)
        for _ in range(4):
            h = random_function(model, rng)
            assert model.pic_class(h.divisor()) == (0, None)
            assert model.is_principal(h.divisor())


def test_is_principal_rejects_nontrivial_classes():
    model = make(5, "t^3 + 4t")
    P = model.place_of_rational_point((2, 1))
    R = model.place_of_rational_point((0, 0))
    assert not model.is_principal(Divisor({P: 1, model.infinity: -1}))
    assert not model.is_principal(Divisor({R: 1, model.infinity: -1}))
    assert not model.is_principal(Divisor({P: 1}))  # wrong degree
    # adding the right third point makes the chord divisor principal
    Q = model.place_of_rational_point((3, 2))
    S = model.place_of_rational_point(model.add_points((2, 1), (3, 2)))
    D = Divisor({P: 1, Q: 1, S: -1, model.infinity: -1})
    assert model.is_principal(D)


def test_two_divisible_and_halving():
    model = make(5, "t^3 + 4t")
    doubles = {model.add_points(P, P) for P in model.rational_points()}
    for pt in model.rational_points():
        if pt is None:
            continue
        D = Divisor({model.place_of_rational_point(pt): 1, model.infinity: -1})
        assert model.two_divisible(D) == (pt in doubles)
        half = model.halve_in_pic(D)
        if pt in doubles:
            assert half is not None
            assert model.is_principal(D - 2 * half)
            # the half is the first point in rational_points order
            first = next(H for H in model.rational_points()
                         if model.add_points(H, H) == pt)
            assert half.coeffs == {model.place_of_rational_point(first): 1,
                                   model.infinity: -1}
        else:
            assert half is None
        # odd total degree is never 2-divisible
        E = Divisor({model.place_of_rational_point(pt): 1})
        assert not model.two_divisible(E)
        assert model.halve_in_pic(E) is None


def test_halving_random_even_divisors():
    rng = random.Random(27)
    model = make(5, "t^3 + t + 1")
    pts = model.rational_points()
    for _ in range(10):
        coeffs = {}
        for _ in range(3):
            pt = pts[rng.randrange(1, len(pts))]
            P = model.place_of_rational_point(pt)
            coeffs[P] = coeffs.get(P, 0) + rng.choice([-2, -1, 1, 2])
        D = Divisor(coeffs)
        D = D + Divisor({model.infinity: -D.degree + 2 * rng.randrange(-2, 3)})
        half = model.halve_in_pic(D)
        assert model.two_divisible(D) == (half is not None)
        if half is not None:
            assert model.is_principal(D - 2 * half)


def test_pic_complement_two_rank_running_example():
    model = make(5, "t^3 + 4t")
    rt = model.place_of_rational_point((0, 0))
    p21 = model.place_of_rational_point((2, 1))
    assert pic_complement_two_rank(model, []) == 3
    assert pic_complement_two_rank(model, [model.infinity]) == 2
    # (0, 0) is itself a double, so this place adds nothing new
    assert pic_complement_two_rank(model, [model.infinity, rt]) == 2
    assert pic_complement_two_rank(model, [model.infinity, rt, p21]) == 1
    assert pic_complement_two_rank(model, model.places_of_degree(1)) == 0


def test_pic_complement_two_rank_uses_degree_parity():
    model = make(5, "t^3 + t + 1")
    inert = model.places_above((4, 1))[0]
    # an inert place has trivial class but even degree: only the parity
    # coordinate survives, so the rank drops by nothing
    assert pic_complement_two_rank(model, [inert]) == \
        1 + model.pic_zero_two_rank()
    assert pic_complement_two_rank(model, [model.infinity, inert]) == \
        model.pic_zero_two_rank()


# -- constructing functions from principal divisors


def test_function_with_divisor_roundtrip():
    rng = random.Random(28)
    for q, text in CURVES[:6]:
        model = make(q, text)
        for _ in range(4):
            h = random_function(model, rng)
            D = h.divisor()
            g = model.function_with_divisor(D)
            assert g.divisor() == D


def test_function_with_divisor_on_named_cases():
    model = make(5, "t^3 + 4t")
    P = model.place_of_rational_point((2, 1))
    Q = model.place_of_rational_point((3, 2))
    S = model.place_of_rational_point(model.add_points((2, 1), (3, 2)))
    D = Divisor({P: 1, Q: 1, S: -1, model.infinity: -1})
    g = model.function_with_divisor(D)
    assert g.divisor() == D

    mixed = make(3, "t^3 + t")
    ram1 = mixed.places_above((0, 1))[0]
    ram2 = mixed.places_above((1, 0, 1))[0]
    D = Divisor({ram1: 1, ram2: 1, mixed.infinity: -3})
    g = mixed.function_with_divisor(D)
    assert g.divisor() == D  # this is just div(y)

    # a doubled point forces the tangent line
    D = Divisor({P: 2, model.place_of_rational_point((0, 0)): -1,
                 model.infinity: -1})
    g = model.function_with_divisor(D)
    assert g.divisor() == D

    # an inert place enters through its base polynomial
    other = make(5, "t^3 + t + 1")
    inert = other.places_above((4, 1))[0]
    D = Divisor({inert: 1, other.infinity: -2})
    g = other.function_with_divisor(D)
    assert g.divisor() == D


def test_function_with_divisor_rejects_nonprincipal():
    model = make(5, "t^3 + 4t")
    P = model.place_of_rational_point((2, 1))
    with pytest.raises(ValueError):
        model.function_with_divisor(Divisor({P: 1, model.infinity: -1}))
    with pytest.raises(ValueError):
        model.function_with_divisor(Divisor({P: 1}))


def test_function_with_divisor_higher_degree_support():
    model = make(5, "t^3 + t + 1")
    # force support on split/ramified places of degree 2 and 3
    covered = 0
    for d in (2, 3):
        for P in model.places_of_degree(d):
            if P.kind == "inert":
                continue
            D = Divisor({P: 2}) if d % 2 else Divisor({P: 1})
            D = D + Divisor({model.infinity: -D.degree})
            if not model.is_principal(D):
                # adjust by a rational point to land in the trivial class
                pt = model.pic_class(D)[1]
                fix = model.place_of_rational_point(model.negate_point(pt))
                D = D + Divisor({fix: 1, model.infinity: -1})
            g = model.function_with_divisor(D)
            assert g.divisor() == D
            covered += 1
            break  # one place of each degree keeps the test quick
    assert covered == 2
