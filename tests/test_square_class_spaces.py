"""Tests for the even-order square-class spaces and the rank identities.

On the line the spaces have an independent oracle: every class with
even order outside S is represented by a squarefree product of the
removed irreducibles times the non-square constant, so ranks follow
from counting exponent patterns.  Curve cases are pinned by hand on
y^2 = t^3 - t over F_5 and cross-checked through the class-group
identities, whose two sides run through different code paths.

The class-group questions are answered by elimination on the backends'
pic_mod2 coordinates; the subset walk they replaced is kept here as
the oracle, together with span enumeration for the F_2 kernel itself.
"""

import math
import random

import pytest

from wildsets.base_algebra import GF, irreducibles_of_degree, poly_parse
from wildsets.elliptic_curve import EllipticModel, _point_key
from wildsets.errors import HypothesisError, VerificationError
from wildsets.function_field import Divisor
from wildsets.local_symbols import local_square_class
from wildsets.projective_line import Place, ProjectiveLine
from wildsets.square_class_spaces import (
    SquareClassSpace,
    _f2_rank,
    _global_even_generators,
    _independent_modulo_squares,
    _kernel_basis,
    _pack,
    _separating_places,
    check_lin_dep_lemma,
    check_pic_rank_formula,
    delta_space,
    g_rank,
    pic_complement_two_rank,
    sing_space,
    smile,
)

from square_class_oracle import random_generators


def line(q):
    return ProjectiveLine(GF(q))


def lplace(L, text):
    return Place(L, poly_parse(text, L.field))


def curve(q, text):
    F = GF(q)
    return EllipticModel(F, poly_parse(text, F))


def line_space_ranks(L, S):
    """Brute ranks of both spaces from squarefree exponent patterns.

    Each class with even order outside S has a unique representative
    c^d * prod p^e over the finite removed places, constrained only by
    parity of the total degree when infinity stays.  The subspace of
    local squares at S is counted by testing each representative.
    """
    finite = [P for P in S if not P.is_infinite]
    free = len(finite) < len(S)
    even_count = 0
    delta_count = 0
    for dbit in (0, 1):
        for mask in range(1 << len(finite)):
            degsum = sum(finite[i].degree for i in range(len(finite))
                         if mask >> i & 1)
            if not free and degsum % 2:
                continue
            even_count += 1
            h = L.constant(L.field.nonsquare()) if dbit else L.one()
            for i, P in enumerate(finite):
                if mask >> i & 1:
                    h = h * L.from_poly(P.poly)
            if all(local_square_class(h, P) == (0, 0) for P in S):
                delta_count += 1
    ranks = []
    for count in (even_count, delta_count):
        r = count.bit_length() - 1
        assert 1 << r == count
        ranks.append(r)
    return tuple(ranks)


def random_line_set(L, rng, size):
    pool = [L.infinity]
    for d in (1, 2, 3):
        pool.extend(Place(L, p)
                    for p in irreducibles_of_degree(L.field, d))
    rng.shuffle(pool)
    return pool[:size]


# -- the enclosing space on the line


def test_sing_space_line_examples():
    L = line(5)
    sp = sing_space(L, [lplace(L, "t")])
    assert sp.rank == 1
    assert sp.generators == (L.constant(2),)

    sp = sing_space(L, [lplace(L, "t"), lplace(L, "t + 4")])
    assert sp.rank == 2
    assert sp.generators[0] == L.constant(2)
    assert sp.generators[1].factors == {(0, 1): 1, (4, 1): 1}  # t(t - 1)

    sp = sing_space(L, [lplace(L, "t^2 + 2")])
    assert sp.rank == 2
    assert sp.generators[1].factors == {(2, 0, 1): 1}


def test_sing_space_line_rank_against_enumeration():
    rng = random.Random(31)
    for q in (5, 9):
        L = line(q)
        for size in (1, 2, 3, 4):
            for _ in range(4):
                S = random_line_set(L, rng, size)
                want, _ = line_space_ranks(L, S)
                assert sing_space(L, S).rank == want


def test_sing_space_input_validation():
    L = line(5)
    with pytest.raises(ValueError):
        sing_space(L, [])
    with pytest.raises(ValueError):
        sing_space(L, [lplace(L, "t"), lplace(L, "t")])


# -- the local-square subspace on the line


def test_delta_space_line_examples():
    L = line(5)
    assert delta_space(L, [lplace(L, "t")]).rank == 0
    assert delta_space(L, [lplace(L, "t"), lplace(L, "t + 4")]).rank == 0
    sp = delta_space(L, [lplace(L, "t^2 + 2")])
    assert sp.rank == 1
    assert sp.generators == (L.constant(2),)


def test_delta_space_line_against_enumeration():
    rng = random.Random(32)
    for q in (5, 9):
        L = line(q)
        for size in (1, 2, 3):
            for _ in range(4):
                S = random_line_set(L, rng, size)
                _, want = line_space_ranks(L, S)
                sp = delta_space(L, S)
                assert sp.rank == want
                for g in sp.generators:
                    assert all(local_square_class(g, P) == (0, 0) for P in S)
                    for P, n in g.divisor().items():
                        assert n % 2 == 0 or P in S


# -- curve cases


def test_sing_space_curve_pinned():
    model = curve(5, "t^3 + 4t")
    rt = model.places_above((0, 1))[0]
    S = [model.infinity, rt]
    sp = sing_space(model, S)
    assert sp.rank == 4
    assert sp.generators[0] == model.constant(2)
    assert sp.generators[1] == model.from_poly((0, 1))
    assert sp.generators[2] == model.from_poly((4, 1))
    # the relation witness: infinity + R - 2*(2,1) halves the pair
    P = model.place_of_rational_point((2, 1))
    assert sp.generators[3].divisor() == Divisor({model.infinity: 1, rt: 1, P: -2})


def test_delta_space_curve_pinned():
    model = curve(5, "t^3 + 4t")
    rt = model.places_above((0, 1))[0]
    sp = delta_space(model, [model.infinity, rt])
    # both verticals are local squares at infinity and at R: even order
    # with residues 1 and 4 = 2^2 respectively
    assert sp.generators == (model.from_poly((0, 1)), model.from_poly((4, 1)))


def test_space_rank_identity_on_curves():
    rng = random.Random(33)
    for q, text in [(3, "t^3 + t"), (5, "t^3 + 4t"), (5, "t^3 + t + 1"),
                    (9, "t^3 + 2t")]:
        model = curve(q, text)
        pool = model.places_of_degree(1) + model.places_of_degree(2)
        r2 = model.pic_zero_two_rank()
        for size in (1, 2, 3):
            for _ in range(3):
                rng.shuffle(pool)
                S = pool[:size]
                rank = g_rank(model, S).rank
                assert sing_space(model, S).rank == len(S) + r2 + 1 - rank
                assert delta_space(model, S).rank == 1 + r2 - rank


# -- ranks in the class group


def test_g_rank_examples():
    L = line(5)
    assert g_rank(L, [lplace(L, "t")]).rank == 1
    both_even = g_rank(L, [lplace(L, "t^2 + 2"), lplace(L, "t^2 + 3")])
    assert both_even.rank == 0
    assert both_even.independent == ()

    model = curve(5, "t^3 + 4t")
    rams = [model.places_above((0, 1))[0], model.places_above((4, 1))[0]]
    info = g_rank(model, rams)
    assert info.rank == 2
    assert info.independent == tuple(rams)


def test_g_rank_invariants():
    rng = random.Random(34)
    model = curve(5, "t^3 + 4t")
    pool = model.places_of_degree(1) + model.places_of_degree(2)
    cap = 1 + model.pic_zero_two_rank()
    for size in (1, 2, 3, 4):
        rng.shuffle(pool)
        S = pool[:size]
        info = g_rank(model, S)
        assert info.rank <= min(len(S), cap)
        assert info.removed == tuple(S)
        # the witness sublist really is independent of the stated rank
        again = g_rank(model, list(info.independent)) if info.independent \
            else None
        if again is not None:
            assert again.rank == info.rank == len(info.independent)


# -- the executable identities


def test_check_lin_dep_lemma_examples():
    L = line(5)
    report = check_lin_dep_lemma(L, [lplace(L, "t")])
    assert report["classes_independent"] and report["space_unchanged"]
    report = check_lin_dep_lemma(L, [lplace(L, "t"), lplace(L, "t + 4")])
    assert not report["classes_independent"]
    assert not report["space_unchanged"]
    report = check_lin_dep_lemma(L, [lplace(L, "t^2 + 2")])
    assert not report["classes_independent"]


def test_check_lin_dep_lemma_fuzz():
    rng = random.Random(35)
    L = line(9)
    for size in (1, 2, 3):
        for _ in range(4):
            check_lin_dep_lemma(L, random_line_set(L, rng, size))
    model = curve(5, "t^3 + 4t")
    pool = model.places_of_degree(1) + model.places_of_degree(2)
    for size in (1, 2, 3):
        for _ in range(4):
            rng.shuffle(pool)
            check_lin_dep_lemma(model, pool[:size])


def test_check_pic_rank_formula_examples():
    L = line(5)
    assert check_pic_rank_formula(L, [lplace(L, "t^2 + 2")])["direct_rank"] == 1
    assert check_pic_rank_formula(L, [lplace(L, "t")])["direct_rank"] == 0

    model = curve(5, "t^3 + 4t")
    report = check_pic_rank_formula(model, [model.infinity])
    assert report == {"formula_rank": 2, "direct_rank": 2}
    rt = model.places_above((0, 1))[0]
    report = check_pic_rank_formula(model, [model.infinity, rt])
    assert report["formula_rank"] == 2

    with pytest.raises(HypothesisError):
        check_pic_rank_formula(model, [rt])


def test_check_pic_rank_formula_fuzz():
    rng = random.Random(36)
    L = line(9)
    for size in (1, 2, 3):
        for _ in range(4):
            check_pic_rank_formula(L, random_line_set(L, rng, size))
    for q, text in [(3, "t^3 + t"), (5, "t^3 + 4t"), (5, "t^3 + t + 1")]:
        model = curve(q, text)
        pool = [P for P in model.places_of_degree(1) + model.places_of_degree(2)
                if not P.is_infinite]
        for size in (1, 2):
            for _ in range(3):
                rng.shuffle(pool)
                check_pic_rank_formula(model, [model.infinity] + pool[:size])


def line_complement_rank_oracle(S):
    """The line minus S has class group Z/gcd(degrees): 2-rank by parity."""
    d = 0
    for P in S:
        d = math.gcd(d, P.degree)
    return 1 if d % 2 == 0 else 0


def curve_complement_rank_oracle(model, S):
    """Codimension of the span of the classes of S in Z/2 + E/2E.

    A class is a (degree parity, coset of doubles) pair, the coset named
    by its least point; the span of S is enumerated by closure.
    """
    doubles = sorted(model._halves(), key=_point_key)

    def rep(P):
        return min((model.add_points(P, d) for d in doubles), key=_point_key)

    span = {(0, rep(None))}
    for P in S:
        g = (P.degree & 1, rep(model.pic_class_of_place(P)))
        if g not in span:
            span |= {(h[0] ^ g[0], rep(model.add_points(h[1], g[1])))
                     for h in span}
    k = len(span).bit_length() - 1
    assert 1 << k == len(span)
    return 1 + model.pic_zero_two_rank() - k


def test_pic_complement_two_rank_matches_both_enumerations():
    rng = random.Random(38)

    def draw(pool):
        return rng.sample(pool, rng.randrange(1, min(6, len(pool) + 1)))

    checked = 0
    for q, degrees in ((3, (1, 2, 3)), (5, (1, 2, 3)), (9, (1, 2)),
                       (13, (1, 2))):
        L = line(q)
        pool = [P for d in degrees for P in L.places_of_degree(d)]
        even = [P for P in pool if P.degree % 2 == 0]
        sets = [[]] + [draw(even if i % 2 else pool) for i in range(130)]
        for S in sets:
            assert pic_complement_two_rank(L, S) == \
                line_complement_rank_oracle(S)
            checked += 1
    assert checked >= 500

    two_ranks = set()
    for q, text in ((3, "t^3 + 2t"), (3, "t^3 + t"), (3, "t^3 + 2t + 1"),
                    (5, "t^3 + 4t"), (5, "t^3 + t + 1"),
                    (5, "2t^3 + 2t + 1"), (9, "t^3 + 2t")):
        model = curve(q, text)
        two_ranks.add(model.pic_zero_two_rank())
        pool = model.places_of_degree(1) + model.places_of_degree(2)
        sets = [[]] + [draw(pool) for _ in range(40)]
        for S in sets:
            assert pic_complement_two_rank(model, S) == \
                curve_complement_rank_oracle(model, S)
    assert two_ranks == {0, 1, 2}


def odd_degree_transfer(model, place, D):
    """Both sides of the transfer of 2-divisibility through one place.

    Off an odd-degree place the class of D is 2-divisible exactly when
    D or D - place is 2-divisible on the complete curve; together with
    even degree that is 2-divisibility on the complete curve.
    """
    assert place.degree % 2 and not D.get(place)
    complete = model.two_divisible(D)
    punctured = (model.two_divisible(D)
                 or model.two_divisible(D - Divisor({place: 1})))
    return complete, punctured and D.degree % 2 == 0


def test_check_odd_degree_transfer():
    L = line(5)
    inf = L.infinity
    assert odd_degree_transfer(L, inf, Divisor({lplace(L, "t^2 + 2"): 1})) \
        == (True, True)
    assert odd_degree_transfer(L, inf, Divisor({lplace(L, "t"): 1})) \
        == (False, False)

    rng = random.Random(37)
    model = curve(5, "t^3 + 4t")
    pts = model.rational_points()
    for _ in range(12):
        coeffs = {}
        for _ in range(rng.randrange(1, 4)):
            pt = pts[rng.randrange(1, len(pts))]
            P = model.place_of_rational_point(pt)
            coeffs[P] = coeffs.get(P, 0) + rng.choice([-1, 1])
        complete, transferred = odd_degree_transfer(model, model.infinity,
                                                    Divisor(coeffs))
        assert complete == transferred


# -- the compatibility relation


def test_smile_line_examples():
    L = line(5)
    p2, p3 = lplace(L, "t^2 + 2"), lplace(L, "t^2 + 3")
    assert smile(L, p2, p3)       # t^2 + 2 is 4, a square, modulo t^2 + 3
    assert smile(L, p3, p2)       # and t^2 + 3 is 1 modulo t^2 + 2

    with pytest.raises(HypothesisError):
        smile(L, lplace(L, "t"), p2)
    with pytest.raises(ValueError):
        smile(L, p2, p2)


def test_smile_symmetry_and_a_failing_pair():
    L = line(5)
    evens = [Place(L, p) for p in irreducibles_of_degree(L.field, 2)]
    seen_false = False
    for i, p in enumerate(evens):
        for q in evens[i + 1:]:
            forward, backward = smile(L, p, q), smile(L, q, p)
            assert forward == backward
            seen_false = seen_false or not forward
    assert seen_false  # non-square residues must occur by counting


def test_smile_on_the_curve():
    # with full 2-torsion the rational points already fill every fiber
    # of P + Frob(P) over the doubles, so no degree-2 place qualifies
    full = curve(5, "t^3 + 4t")
    assert not any(full.two_divisible(Divisor({P: 1}))
                   for P in full.places_of_degree(2))
    # with a point group of odd order doubling is onto, so they all do
    model = curve(5, "t^3 + t + 1")
    divisible = [P for P in model.places_of_degree(2)
                 if model.two_divisible(Divisor({P: 1}))]
    assert divisible == model.places_of_degree(2)
    for i, p in enumerate(divisible[:4]):
        for q in divisible[i + 1:4]:
            assert smile(model, p, q) == smile(model, q, p)


@pytest.mark.parametrize("q, f, degrees", [
    (3, None, (2, 4)), (5, None, (2, 4)), (9, None, (2, 4)),
    (13, None, (2, 4)), (5, "t^3 + 4t", (2, 4)), (5, "t^3 + 2", (2, 4)),
    (13, "t^3 - t", (2,)),
])
def test_global_even_generators_are_squares_at_two_divisible_places(
        q, f, degrees):
    # smile reads only the witness lam at q2 because of this fact: the
    # constant is a square at an even-degree place, and a vertical
    # t - x0 through a 2-torsion point pairs trivially with 2E(F_q)
    model = line(q) if f is None else curve(q, f)
    rng = random.Random(11)
    gens = _global_even_generators(model)
    divisible = [P for d in degrees for P in model.places_of_degree(d)
                 if model.two_divisible(Divisor({P: 1}))]
    assert len(divisible) >= 6
    for P in rng.sample(divisible, min(len(divisible), 200)):
        for g in gens:
            assert local_square_class(g, P) == (0, 0), (g, P)
    # the constant is no square at odd degree, so the fact needs q2
    odd = model.places_of_degree(1)[-1]
    assert local_square_class(gens[0], odd) != (0, 0)


# -- the independence machinery itself


def test_independence_helper_paths():
    L = line(5)
    t = L.from_poly((0, 1))
    shifted = L.from_poly(poly_parse("t (t + 1)^2", L.field))
    # the product is t^2 (t + 1)^2, a square: dependence must be found
    # even though fingerprints alone cannot certify independence
    gens = [t, shifted]
    assert not _independent_modulo_squares(
        L, gens, [g.divisor() for g in gens], [])
    # with no places at all the exact fallback still decides correctly
    gens = [L.constant(2), t]
    assert _independent_modulo_squares(
        L, gens, [g.divisor() for g in gens], [])


def full_fingerprint_independent(model, gens, places):
    """The slow path: local classes at every place, then is_square."""
    rows = []
    for g in gens:
        bits = 0
        for j, P in enumerate(places):
            e, s = local_square_class(g, P)
            bits |= e << (2 * j) | s << (2 * j + 1)
        rows.append(bits)
    if len(span(rows)) == 1 << len(gens):
        return True
    for mask in range(1, 1 << len(gens)):
        prod = model.one()
        for i, g in enumerate(gens):
            if mask >> i & 1:
                prod = prod * g
        if prod.is_square():
            return False
    return True


def fallback_walk_bound(gens, divisors, places):
    """2^dim K - 1, K the relations among the fingerprints the exact
    fallback starts from: order parities on the supports, then residue
    bits at the places."""
    support = sorted({P for D in divisors for P in D.coeffs})
    rows = []
    for g, D in zip(gens, divisors):
        bits = 0
        for P in support:
            bits = bits << 1 | D.get(P) & 1
        for P in places:
            bits = bits << 1 | local_square_class(g, P)[1]
        rows.append(bits)
    return (1 << len(gens)) // len(span(rows)) - 1


@pytest.mark.parametrize("which", ["F3", "F5", "F9", "E5"])
def test_early_stop_independence_matches_full_fingerprint(which, monkeypatch):
    if which == "E5":
        model = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
    else:
        model = line(int(which[1:]))
    rng = random.Random("independence " + which)
    pool = model.places_of_degree(1) + model.places_of_degree(2)
    verdicts = []
    squares_tested = []
    exact = type(model.one()).is_square
    monkeypatch.setattr(type(model.one()), "is_square",
                        lambda g: squares_tested.append(g) or exact(g))
    for _ in range(12):
        gens = random_generators(model, rng)
        divisors = [g.divisor() for g in gens]
        S = rng.sample(pool, rng.randint(1, 3))
        full = list(_separating_places(model, divisors, S))
        expected = full_fingerprint_independent(model, gens, full)
        verdicts.append(expected)
        assert _independent_modulo_squares(model, gens, divisors, full) == \
            expected
        # the lazy place stream gives the same verdict
        lazy = _separating_places(model, divisors, S)
        assert _independent_modulo_squares(model, gens, divisors, lazy) == \
            expected
        # short prefixes leave more of the work to the is_square fallback
        for k in (0, 1, rng.randrange(len(full) + 1)):
            squares_tested.clear()
            verdict = _independent_modulo_squares(model, gens, divisors,
                                                  full[:k])
            # the fallback walks only the products with vanishing data
            assert len(squares_tested) <= \
                fallback_walk_bound(gens, divisors, full[:k])
            assert verdict == \
                full_fingerprint_independent(model, gens, full[:k])
    # dependent sets always end in the fallback; both kinds occur
    assert True in verdicts and False in verdicts


def test_space_constructor_rejects_bad_generators():
    L = line(5)
    P = lplace(L, "t")
    with pytest.raises(VerificationError):
        SquareClassSpace(L, [P], [L.from_poly((1, 1))])  # odd order off S
    with pytest.raises(VerificationError):
        SquareClassSpace(L, [P], [L.from_poly((0, 1)), L.from_poly((0, 1))])


# -- the F_2 kernel against span enumeration


def span(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def xor_selected(rows, mask):
    acc = 0
    for i, r in enumerate(rows):
        if mask >> i & 1:
            acc ^= r
    return acc


def walk_relations(rows):
    """Every nonempty selection of rows that XORs to zero, ascending."""
    return [m for m in range(1, 1 << len(rows)) if xor_selected(rows, m) == 0]


def mask_basis(masks):
    """Triangular insertion in the given order, keeping each new reduced mask."""
    basis, out = {}, []
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                out.append(m)
                break
            m ^= basis[top]
    return out


def random_rows(rng):
    n = rng.randrange(1, 9)
    return n, [rng.randrange(1 << n) for _ in range(rng.randrange(1, 9))]


def test_f2_rank_matches_span_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        n, rows = random_rows(rng)
        assert 1 << _f2_rank(rows) == len(span(rows))


def test_kernel_solves_membership():
    """A target is in the span exactly when appending it closes a relation,
    and the relation's other bits select rows that XOR to the target."""
    rng = random.Random(8)
    for _ in range(200):
        n, rows = random_rows(rng)
        target = rng.randrange(1 << n)
        top = 1 << len(rows)
        closing = [m for m in _kernel_basis(rows + [target]) if m & top]
        if target in span(rows):
            assert len(closing) == 1
            assert xor_selected(rows, closing[0] ^ top) == target
        else:
            assert closing == []


def test_kernel_basis_against_the_walk():
    """The kernel is a basis of all relations, and exactly the basis the
    triangular insertion of the walked relations keeps."""
    rng = random.Random(9)
    for _ in range(200):
        n, rows = random_rows(rng)
        kernel = _kernel_basis(rows)
        relations = walk_relations(rows)
        assert kernel == mask_basis(relations)
        assert len(kernel) == len(rows) - _f2_rank(rows)
        assert all(xor_selected(rows, m) == 0 for m in kernel)
        assert len(span(kernel)) == len(relations) + 1
        # each member is the least relation with its top bit
        for m in kernel:
            top = m.bit_length() - 1
            assert m == min(r for r in relations if r.bit_length() - 1 == top)


# -- pic_mod2 elimination against the two_divisible subset walk

PIC_MODELS = {
    "F3": lambda: line(3),
    "F5": lambda: line(5),
    "F9": lambda: line(9),
    "F13": lambda: line(13),
    # 2-torsion of rank 0, 1 and 2
    "E5[t^3 + t + 1]": lambda: curve(5, "t^3 + t + 1"),
    "E5[t^3 + 2]": lambda: curve(5, "t^3 + 2"),
    "E5[t^3 + 4t]": lambda: curve(5, "t^3 + 4t"),
}


def place_pool(model):
    return [P for d in (1, 2, 3) for P in model.places_of_degree(d)]


def walked_dependencies(model, S):
    """Every nonempty subset of S whose class sum is 2-divisible, ascending."""
    return [m for m in range(1, 1 << len(S))
            if model.two_divisible(Divisor({P: 1 for i, P in enumerate(S)
                                            if m >> i & 1}))]


def greedy_independent(S, deps):
    """The greedy independent sublist, decided on the walked dependencies."""
    picked, chosen = 0, []
    for i, P in enumerate(S):
        trial = picked | 1 << i
        if not any(m >> i & 1 and not m & ~trial for m in deps):
            picked = trial
            chosen.append(P)
    return len(chosen), tuple(chosen)


@pytest.mark.parametrize("which", sorted(PIC_MODELS))
def test_elimination_matches_the_subset_walk(which):
    model = PIC_MODELS[which]()
    pool = place_pool(model)
    rng = random.Random("walk " + which)
    for k in range(5):
        S = rng.sample(pool, rng.randint(1, 10))
        walked = walked_dependencies(model, S)
        assert _kernel_basis([model.pic_mod2(P) for P in S]) == \
            mask_basis(walked)
        info = g_rank(model, S)
        assert (info.rank, info.independent) == greedy_independent(S, walked)
        if k < 2:  # the spaces themselves, on fewer sets: they cost more
            base = sing_space(model, S)
            rows = [_pack(local_square_class(g, P) for P in S)
                    for g in base.generators]
            expected = []
            for mask in mask_basis(walk_relations(rows)):
                h = model.one()
                for i, g in enumerate(base.generators):
                    if mask >> i & 1:
                        h = h * g
                expected.append(h)
            assert list(delta_space(model, S).generators) == expected


@pytest.mark.parametrize("which", sorted(PIC_MODELS))
def test_pic_mod2_decides_two_divisibility(which):
    model = PIC_MODELS[which]()
    pool = place_pool(model)
    rng = random.Random("coordinates " + which)
    verdicts = set()
    for _ in range(60):
        D = Divisor({P: rng.randint(-3, 3)
                     for P in rng.sample(pool, rng.randint(1, 5))})
        coords = 0
        for P, n in D.items():
            if n % 2:
                coords ^= model.pic_mod2(P)
        assert (coords == 0) == model.two_divisible(D)
        verdicts.add(coords == 0)
    assert verdicts == {True, False}


def test_spaces_at_sixty_four_places():
    """Out of reach of any walk over the 2^64 subsets."""
    L = line(13)
    S = (L.places_of_degree(1) + L.places_of_degree(2))[:64]
    assert g_rank(L, S).rank == 1
    assert sing_space(L, S).rank == 64
    assert delta_space(L, S).rank == 0
