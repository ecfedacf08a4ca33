"""The per-model table of pair-atom divisors against its oracle.

CurveFunction.divisor reads the divisor of each pair atom a + b*y from a
table its model fills on first use.  Here it is checked against
divisor_oracle, which factors every norm afresh, on seeded products of
the lines function_with_divisor builds (chords, tangents and peels), y,
other primitive pairs and poly atoms: with the table cold, warm, and on
a second model with the same key.  The table must also be sealed (a
caller's divisor is the caller's own) and bounded (pair atoms only, and
no growth when the same rank questions are asked again).
"""

import random

import pytest

from wildsets.base_algebra import (
    GF,
    poly_deriv,
    poly_eval,
    poly_neg,
    poly_norm,
    poly_parse,
)
from wildsets.elliptic_curve import CurveFunction, EllipticModel
from wildsets.square_class_spaces import (
    check_lin_dep_lemma,
    delta_space,
    g_rank,
    sing_space,
)

from divisor_oracle import oracle_divisor

CURVES = [(5, "t^3 + 4t"), (5, "t^3 + 2"), (13, "t^3 - t")]


def make(q, text):
    F = GF(q)
    return EllipticModel(F, poly_parse(text, F))


def line(model, lam, mu):
    """y - (lam*t + mu)."""
    return model.from_pair(poly_neg(poly_norm((mu, lam)), model.field), (1,))


def lines(model):
    """Every chord and tangent through rational points, and every peel
    y - (lift of the branch) at a split place of degree 2 or 3."""
    F = model.field
    points = [P for P in model.rational_points() if P is not None]
    out = []
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i + 1:]:
            if x1 != x2:
                lam = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
                out.append(line(model, lam, F.sub(y1, F.mul(lam, x1))))
        if y1:
            slope = poly_eval(poly_deriv(model.f, F), x1, F)
            lam = F.mul(slope, F.inv(F.add(y1, y1)))
            out.append(line(model, lam, F.sub(y1, F.mul(lam, x1))))
    for d in (2, 3):
        for P in model.places_of_degree(d):
            if P.kind == "split":
                out.append(model.from_pair(poly_neg(P.branch, F), (1,)))
    return out


def random_poly(rng, q, d):
    """A polynomial of degree exactly d."""
    return tuple(rng.randrange(q) for _ in range(d)) + (1 + rng.randrange(q - 1),)


def products(model, seed, count=40):
    """Seeded products of lines, y, primitive pairs and polynomials."""
    rng = random.Random("%s %d" % (model.key, seed))
    q = model.field.q
    pool = lines(model)
    out = []
    for _ in range(count):
        fn = model.constant(1 + rng.randrange(q - 1))
        for _ in range(rng.randrange(1, 5)):
            pick = rng.randrange(4)
            if pick == 0:
                g = rng.choice(pool)
            elif pick == 1:
                g = model.y()
            elif pick == 2:
                g = model.from_pair(random_poly(rng, q, rng.randrange(3)),
                                    random_poly(rng, q, rng.randrange(2)))
            else:
                g = model.from_poly(random_poly(rng, q, rng.randrange(1, 4)))
            fn = fn * g ** rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(fn)
    return out


def same(fn):
    """divisor() equals the oracle, coefficient for coefficient and in the
    same dict order, which function_with_divisor walks."""
    D, want = fn.divisor(), oracle_divisor(fn)
    assert D == want, str(fn)
    assert list(D.coeffs) == list(want.coeffs), str(fn)


@pytest.mark.parametrize("q,text", CURVES)
def test_divisors_match_the_oracle_cold_warm_and_on_a_twin(q, text):
    model = make(q, text)
    fns = products(model, 1)
    assert any(atom[0] == "lin" for fn in fns for atom in fn.factors)
    assert not model._pair_divisors
    for fn in fns:
        same(fn)
    size = len(model._pair_divisors)
    assert size
    for fn in fns:
        same(fn)
    assert len(model._pair_divisors) == size
    twin = make(q, text)
    assert twin.key == model.key and not twin._pair_divisors
    for fn in fns:
        moved = CurveFunction._trusted(twin, fn.constant, fn.factors)
        same(moved)
        assert moved.divisor() == fn.divisor()
    assert twin._pair_divisors.keys() == model._pair_divisors.keys()


def test_function_with_divisor_still_checks_against_the_oracle():
    model = make(13, "t^3 - t")
    for fn in products(model, 2, count=15):
        D = oracle_divisor(fn)
        h = model.function_with_divisor(D)
        assert oracle_divisor(h) == D


def test_a_returned_divisor_is_the_callers_own():
    model = make(5, "t^3 + 4t")
    fns = products(model, 3, count=10)
    for fn in fns:
        D = fn.divisor()
        before = dict(D.coeffs)
        for P in list(D.coeffs):
            D.coeffs[P] += 7
        D.coeffs[model.infinity] = 0
        (-D).coeffs.clear()
        (2 * D).coeffs.clear()
        assert fn.divisor().coeffs == before
        D.coeffs.clear()
        assert fn.divisor().coeffs == before
        same(fn)


@pytest.mark.parametrize("text", ["t^3 + 4t", "t^3 + 2"])
def test_the_table_holds_pair_atoms_and_stops_growing(text):
    model = make(5, text)
    rng = random.Random(text)
    pools = {d: [P for P in model.places_of_degree(d) if not P.is_infinite]
             for d in (1, 2, 3)}
    sets = []
    for k in (1, 2, 3, 4):
        for _ in range(3):
            S = [model.infinity]
            while len(S) < k:
                P = rng.choice(pools[rng.choice((1, 2, 3))])
                if P not in S:
                    S.append(P)
            sets.append(S)

    def ask_all():
        for S in sets:
            g_rank(model, S)
            sing_space(model, S)
            delta_space(model, S)
            check_lin_dep_lemma(model, S)

    ask_all()
    table = dict(model._pair_divisors)
    assert table
    assert all(kind == "lin" for kind, _ in table)
    ask_all()
    assert model._pair_divisors == table
    # the table's entries are tuples, which no caller can change
    assert all(type(terms) is tuple for terms in table.values())
