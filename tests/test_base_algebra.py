"""Oracle tests for field arithmetic and factorization."""

from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import (
    GF,
    MAX_PARSED_DEGREE,
    MAX_PARSED_NESTING,
    ResidueField,
    irreducibles_of_degree,
    poly_add,
    poly_deg,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_factor,
    poly_from_int,
    poly_gcd,
    poly_is_irreducible,
    poly_jacobi,
    poly_monic,
    poly_mul,
    poly_norm,
    poly_parse,
    poly_pow_mod,
    poly_scalar,
    poly_str,
    poly_strip,
    poly_sub,
    poly_to_int,
    rat_parse,
)

from residue_oracle import QuadExtField, euler_jacobi

FIELDS = [3, 5, 7, 9, 13, 25, 27, 49]


# -- field axioms and quad_char against exhaustive enumeration --------------


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms_sampled(q):
    F = GF(q)
    rng = random.Random(q * 1009)
    for _ in range(200):
        a = rng.randrange(q)
        b = rng.randrange(q)
        c = rng.randrange(q)
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def polynomial_tables(F):
    """The add, mul and neg tables of an extension field, entry by entry
    from products in F_p[x]/(modulus)."""
    Fp = GF(F.p)
    polys = [poly_norm(poly_from_int(n, Fp)) for n in range(F.q)]
    add = [[poly_to_int(poly_add(f, g, Fp), Fp) for g in polys] for f in polys]
    mul = [[poly_to_int(poly_divmod(poly_mul(f, g, Fp), F.modulus, Fp)[1], Fp)
            for g in polys] for f in polys]
    neg = [poly_to_int(poly_sub((), f, Fp), Fp) for f in polys]
    return add, mul, neg


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125, 169, 243])
def test_field_tables_match_the_polynomial_route(q):
    F = GF(q)
    assert (F._add, F._mul, F._neg) == polynomial_tables(F)


@pytest.mark.parametrize("q", FIELDS)
def test_quad_char_matches_square_enumeration(q):
    F = GF(q)
    squares = {F.mul(a, a) for a in range(q)}
    for a in range(q):
        if a == 0:
            assert F.quad_char(a) == 0
        elif a in squares:
            assert F.quad_char(a) == 1
        else:
            assert F.quad_char(a) == -1
    # exactly (q-1)/2 nonzero squares
    assert len(squares) - 1 == (q - 1) // 2


def odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1, 2):
        m = q
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


@pytest.mark.parametrize("q", odd_prime_powers(243))
def test_quad_char_table_matches_euler_criterion(q):
    F = GF(q)
    euler = [0] + [1 if F.pow(a, (q - 1) // 2) == 1 else -1
                   for a in range(1, q)]
    assert [F.quad_char(a) for a in range(q)] == euler
    assert F.nonsquare() == euler.index(-1, 2)


def test_quad_char_f5_table():
    F = GF(5)
    assert [F.quad_char(a) for a in range(5)] == [0, 1, -1, -1, 1]


@pytest.mark.parametrize("q", [1019, 1021])
def test_prime_fields_build_no_square_tables(q):
    """Prime fields keep lists of q entries only: memory linear in q."""
    F = GF(q)
    for name in ("_add", "_mul", "_neg"):
        assert not hasattr(F, name)
    assert len(F._inv) == q
    assert all(a * F.inv(a) % q == 1 for a in range(1, q))


@pytest.mark.parametrize("q", [9, 243])
def test_extension_field_inverse_table(q):
    F = GF(q)
    assert len(F._inv) == q
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", FIELDS)
def test_sqrt_roundtrip(q):
    F = GF(q)
    for a in range(q):
        if F.quad_char(a) >= 0:
            r = F.sqrt(a)
            assert F.mul(r, r) == a
    with pytest.raises(ValueError):
        F.sqrt(F.nonsquare())


def test_f9_modulus_is_canonical():
    # first monic irreducible quadratic over F_3 in code order is x^2 + 1
    assert GF(9).modulus == (1, 0, 1)


# -- polynomial arithmetic ---------------------------------------------------


def _rand_poly(rng, F, d):
    return tuple(rng.randrange(F.q) for _ in range(d + 1))


@pytest.mark.parametrize("q", [3, 5, 9])
def test_divmod_identity(q):
    F = GF(q)
    rng = random.Random(17 * q)
    for _ in range(100):
        f = _rand_poly(rng, F, rng.randrange(6))
        g = _rand_poly(rng, F, rng.randrange(4))
        if poly_deg(tuple(g)) < 0 or not any(g):
            continue
        from wildsets.base_algebra import poly_norm

        f, g = poly_norm(f), poly_norm(g)
        if not g:
            continue
        qq, r = poly_divmod(f, g, F)
        assert poly_add(poly_mul(qq, g, F), r, F) == f
        assert poly_deg(r) < poly_deg(g)


@pytest.mark.parametrize("q", [3, 5, 9, 27])
def test_monic_divmod_matches_division_by_a_scaled_divisor(q):
    # dividing by c*g takes the general path through the inverse of c;
    # the quotient scales by c and the remainder is the same
    F = GF(q)
    rng = random.Random(31 * q)
    for _ in range(100):
        f = poly_norm(_rand_poly(rng, F, rng.randrange(8)))
        g = poly_norm(_rand_poly(rng, F, rng.randrange(4)) + (1,))
        c = rng.randrange(2, q)
        qq, r = poly_divmod(f, g, F)
        qc, rc = poly_divmod(f, poly_scalar(g, c, F), F)
        assert r == rc
        assert qq == poly_scalar(qc, c, F)


def test_gf_shares_contexts_and_rejects_even_sizes():
    assert GF(9) is GF(9)
    assert GF(5) is GF(5)
    for q in (2, 4, 8):
        with pytest.raises(ValueError):
            GF(q)


def test_gcd_is_monic_and_leaves_coprime_cofactors():
    F = GF(5)
    rng = random.Random(99)
    for _ in range(100):
        h = poly_monic(poly_norm(_rand_poly(rng, F, rng.randrange(3))) or (1,), F)
        f = poly_mul(poly_norm(_rand_poly(rng, F, rng.randrange(5))), h, F)
        g = poly_mul(poly_norm(_rand_poly(rng, F, rng.randrange(5))), h, F)
        if not f or not g:
            continue
        d = poly_gcd(f, g, F)
        assert d[-1] == 1
        (f1, rf), (g1, rg) = poly_divmod(f, d, F), poly_divmod(g, d, F)
        assert rf == rg == ()
        assert poly_divmod(d, h, F)[1] == ()
        assert poly_gcd(f1, g1, F) == (1,)


def test_eval_and_deriv():
    F = GF(7)
    f = poly_parse("t^3 + 2*t + 6", F)
    assert poly_eval(f, 1, F) == (1 + 2 + 6) % 7
    assert poly_deriv(f, F) == poly_parse("3*t^2 + 2", F)
    # derivative of t^7 vanishes in characteristic 7
    assert poly_deriv((0,) * 7 + (1,), F) == ()


def test_pow_mod_fermat():
    # t^(q^d) = t mod f for irreducible f of degree d
    F = GF(5)
    f = poly_parse("t^2 + 2", F)
    assert poly_pow_mod((0, 1), 25, f, F) == (0, 1)


def test_pow_mod_refuses_a_negative_exponent():
    F = GF(5)
    for e in (-1, -2, -25):
        with pytest.raises(ValueError, match="exponent"):
            poly_pow_mod((0, 1), e, poly_parse("t^2 + 2", F), F)


# -- irreducibles: necklace-count oracle -------------------------------------


def _mobius(n):
    if n == 1:
        return 1
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def _necklace_count(q, d):
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * q ** (d // e)
    return total // d


@pytest.mark.parametrize("q", [3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_irreducible_counts_match_necklace_formula(q, d):
    F = GF(q)
    got = list(irreducibles_of_degree(F, d))
    assert len(got) == _necklace_count(q, d)
    # sorted canonically and all monic of right degree
    assert got == sorted(got, key=lambda f: poly_to_int(f, F))
    assert all(poly_deg(f) == d and f[-1] == 1 for f in got)


def test_irreducibility_against_trial_division():
    F = GF(3)
    linears = list(irreducibles_of_degree(F, 1))
    for code in range(3 ** 3):
        f = poly_from_int(code, F)
        if poly_deg(f) != 2:
            continue
        f = poly_monic(f, F)
        has_root = any(poly_eval(f, x, F) == 0 for x in range(3))
        assert poly_is_irreducible(f, F) == (not has_root)


# -- factorization roundtrip -------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_factor_roundtrip_and_irreducibility(q):
    F = GF(q)
    rng = random.Random(4242 + q)
    for _ in range(40):
        from wildsets.base_algebra import poly_norm

        f = poly_norm(_rand_poly(rng, F, rng.randrange(1, 7)))
        if poly_deg(f) < 1:
            continue
        lc, factors = poly_factor(f, F)
        prod = (lc,)
        for g, e in factors:
            assert poly_is_irreducible(g, F)
            assert g[-1] == 1
            for _ in range(e):
                prod = poly_mul(prod, g, F)
        assert prod == f


def test_factor_is_deterministic():
    F = GF(5)
    f = poly_parse("t^6 + t^4 + 3*t^2 + 2*t + 1", F)
    assert poly_factor(f, F) == poly_factor(f, F)


def test_factor_with_multiplicity():
    F = GF(5)
    t = (0, 1)
    f = poly_mul(poly_mul(t, t, F), poly_parse("t+1", F), F)
    lc, factors = poly_factor(f, F)
    assert lc == 1
    assert factors == [((0, 1), 2), ((1, 1), 1)]
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        poly_factor((), F)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_strip_returns_the_exponent_and_the_cofactor(q):
    F = GF(q)
    rng = random.Random(5150 + q)
    for d in (1, 2, 3):
        for g in list(irreducibles_of_degree(F, d))[:4]:
            for e in range(5):
                h = poly_norm(_rand_poly(rng, F, rng.randrange(6)))
                if not h or not poly_divmod(h, g, F)[1]:
                    continue
                f = h
                for _ in range(e):
                    f = poly_mul(f, g, F)
                assert poly_strip(f, g, F) == (e, h)


@pytest.mark.parametrize("e", [500, 1023, 1024, 4000])
def test_factor_reads_a_large_multiplicity(e):
    F = GF(5)
    for g in ((0, 1), (1, 1), poly_parse("t^2 + 2", F)):
        f = (1,)
        for bit in bin(e)[2:]:
            f = poly_mul(f, f, F)
            if bit == "1":
                f = poly_mul(f, g, F)
        assert poly_factor(poly_scalar(f, 3, F), F) == (3, [(g, e)])
        assert poly_strip(poly_mul(f, (1, 1, 1), F), g, F) == (e, (1, 1, 1))


# -- residue fields -----------------------------------------------------------


def test_residue_field_f25_quad_char_enumeration():
    F = GF(5)
    m = poly_parse("t^2 + 2", F)
    RF = ResidueField(F, m)
    assert RF.size == 25
    elems = [poly_from_int(c, F) for c in range(25)]
    squares = {RF.mul(a, a) for a in elems}
    for a in elems:
        expect = 0 if not a else (1 if a in squares else -1)
        assert RF.quad_char(a) == expect
    # 2 is a square in F_25 (even-degree extension kills the constant class)
    assert RF.quad_char((2,)) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 25, 27])
def test_poly_jacobi_matches_the_euler_criterion(q):
    F = GF(q)
    rng = random.Random(7 * q)
    seen = set()
    for _ in range(150):
        a = poly_norm(tuple(rng.randrange(q) for _ in range(rng.randrange(8))))
        m = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 6))) + (1,)
        if rng.random() < 0.3:  # a square factor, and shared factors
            g = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 3))) + (1,)
            m = poly_mul(m, poly_mul(g, g, F), F)
            a = poly_mul(a, g, F) if rng.random() < 0.5 else a
        want = euler_jacobi(a, m, F)
        assert poly_jacobi(a, m, F) == want, (a, m)
        seen.add((want, len(poly_factor(m, F)[1]) > 1))
    # both signs and zero, on irreducible and composite moduli
    assert seen >= {(1, True), (-1, True), (0, True), (1, False), (-1, False)}


def test_residue_field_inverse_and_sqrt():
    F = GF(3)
    m = poly_parse("t^3 + 2*t + 1", F)
    RF = ResidueField(F, m)
    rng = random.Random(11)
    for _ in range(50):
        a = RF.reduce(poly_from_int(rng.randrange(1, 27), F))
        if not a:
            continue
        assert RF.mul(a, RF.inv(a)) == (1,)
        sq = RF.mul(a, a)
        r = RF.sqrt(sq)
        assert RF.mul(r, r) == sq
    assert RF.sqrt(()) == ()
    with pytest.raises(ValueError, match="not a square in the residue field"):
        RF.sqrt(RF.nonsquare())
    assert RF.constant_down((0, 1)) is None


@pytest.mark.parametrize("q", [3, 5, 9, 13])
def test_residue_field_inverse_by_fermat(q):
    """inv(a) * a == 1 for every nonzero element of F_q[t]/(m), m the
    first irreducible of degree 1 to 3 (300 of them, sampled, in a field
    of more); 0 and a nonzero multiple of m have no inverse."""
    F = GF(q)
    rng = random.Random("inverse %d" % q)
    for d in (1, 2, 3):
        m = next(irreducibles_of_degree(F, d))
        RF = ResidueField(F, m)
        codes = range(1, RF.size)
        if len(codes) > 300:
            codes = rng.sample(codes, 300)
        for code in codes:
            a = poly_from_int(code, F)
            assert RF.mul(a, RF.inv(a)) == (1,)
        for zero in ((), poly_mul(m, (rng.randrange(1, q), 1), F)):
            with pytest.raises(ZeroDivisionError,
                               match="inverse of zero in residue field"):
                RF.inv(zero)


def test_quad_ext_char_against_enumeration():
    # F_9 built as F_3[t]/(t^2+1) extended by y^2 = nonsquare
    F = GF(3)
    RF = ResidueField(F, poly_parse("t^2 + 1", F))
    s = RF.nonsquare()
    E = QuadExtField(RF, s)
    elems = []
    for ca in range(9):
        for cb in range(9):
            elems.append((RF.reduce(poly_from_int(ca, F)), RF.reduce(poly_from_int(cb, F))))
    squares = {E.mul(x, x) for x in elems}
    for x in elems:
        if not x[0] and not x[1]:
            assert E.quad_char(x) == 0
        elif x in squares:
            assert E.quad_char(x) == 1
        else:
            assert E.quad_char(x) == -1


def test_quad_ext_inverse_and_negative_power():
    F = GF(3)
    RF = ResidueField(F, poly_parse("t^2 + 1", F))
    E = QuadExtField(RF, RF.nonsquare())
    rng = random.Random(55)
    for _ in range(20):
        x = (RF.reduce(poly_from_int(rng.randrange(9), F)),
             RF.reduce(poly_from_int(rng.randrange(9), F)))
        if not x[0] and not x[1]:
            continue
        assert E.mul(x, E.inv(x)) == E.one()
        assert E.pow(x, -3) == E.inv(E.pow(x, 3))


# -- parsing / printing -------------------------------------------------------


def test_poly_parse_and_str_roundtrip():
    F = GF(5)
    for s in ["t^2 + 2", "t", "4", "t^3 + 4*t^2 + 2*t + 1", "2*t + 3"]:
        f = poly_parse(s, F)
        assert poly_parse(poly_str(f), F) == f


def test_poly_parse_negative_coefficients():
    F = GF(5)
    assert poly_parse("t - 1", F) == poly_parse("t + 4", F)
    assert poly_parse("-t", F) == (0, 4)


def test_poly_parse_rejects_garbage():
    F = GF(5)
    for s in ["t +", "(t", "t^", "x + 1", "t^-2", "t/t", "1/0"]:
        with pytest.raises(ValueError):
            poly_parse(s, F)


def test_poly_parse_divides_by_nonzero_constants():
    F = GF(5)
    assert poly_parse("t/2", F) == (0, 3)
    assert poly_parse("(t^2 + 2)/(3 - 1) + t", F) == poly_parse("3t^2 + t + 1", F)


def test_parentheses_nested_past_the_bound_are_rejected():
    F = GF(5)
    nested = lambda depth: "(" * depth + "t" + ")" * depth
    assert poly_parse(nested(MAX_PARSED_NESTING), F) == (0, 1)
    for depth in (MAX_PARSED_NESTING + 1, 3000):
        with pytest.raises(ValueError, match="nested deeper"):
            poly_parse(nested(depth), F)
        with pytest.raises(ValueError, match="nested deeper"):
            rat_parse("1/" + nested(depth), F)


def test_poly_parse_generator_symbol():
    F = GF(9)
    # g is the residue class of the modulus variable: code p
    assert poly_parse("g", F) == (3,)
    assert poly_parse("g^2", F) == (F.mul(3, 3),)
    assert poly_parse("(g + 1)*t + g", F) == (3, F.add(3, 1))
    with pytest.raises(ValueError):
        poly_parse("g", GF(5))


def test_poly_str_extension_coefficients_roundtrip():
    F = GF(9)
    rng = random.Random(20)
    for _ in range(30):
        f = tuple(rng.randrange(9) for _ in range(rng.randrange(1, 5)))
        s = poly_str(f, "t", F)
        assert poly_parse(s, F) == poly_parse(poly_str(poly_parse(s, F), "t", F), F)


def rat_value(num, den, x, F):
    return F.mul(poly_eval(num.get(0, ()), x, F), F.inv(poly_eval(den.get(0, ()), x, F)))


def test_rat_parse_matches_direct_evaluation():
    F = GF(7)
    cases = [
        ("(t + 1) / (t + 2)", lambda x: F.mul(F.add(x, 1), F.inv(F.add(x, 2)))),
        ("2 * (t)^2 * (t - 1)^-1", lambda x: F.mul(F.mul(2, F.mul(x, x)), F.inv(F.sub(x, 1)))),
        ("t^3 / (t^2 + 1) + 1", lambda x: F.add(F.mul(F.pow(x, 3), F.inv(F.add(F.mul(x, x), 1))), 1)),
        ("1 / t / t", lambda x: F.inv(F.mul(x, x))),
    ]
    for s, direct in cases:
        num, den = rat_parse(s, F)
        for x in range(3, 7):
            if poly_eval(den.get(0, ()), x, F) == 0:
                continue
            assert rat_value(num, den, x, F) == direct(x)


def test_rat_parse_negative_power_and_division_by_zero():
    F = GF(5)
    num, den = rat_parse("(t + 1)^-2", F)
    assert num.get(0, ()) == (1,)
    assert poly_deg(den.get(0, ())) == 2
    for s in ["1 / 0", "1 / (t - t)", "0^-1"]:
        with pytest.raises(ValueError):
            rat_parse(s, F)


def test_powers_match_repeated_products():
    F = GF(5)
    assert rat_parse("t^2000", F) == ({0: (0,) * 2000 + (1,)}, {0: (1,)})
    rng = random.Random(11)
    for _ in range(20):
        f = tuple(rng.randrange(5) for _ in range(4)) + (rng.randrange(1, 5),)
        e = rng.randrange(40)
        text = "(%s)" % poly_str(f, "t", F)
        expected = (1,)
        for _ in range(e):
            expected = poly_mul(expected, f, F)
        assert poly_parse("%s^%d" % (text, e), F) == expected
        assert rat_parse("%s^-%d" % (text, e), F) == ({0: (1,)}, {0: expected})
    # constants carry no degree, so any exponent is cheap and allowed
    assert poly_parse("2^99999999", F) == (pow(2, 99999999, 5),)


def test_powers_above_the_degree_bound_are_rejected():
    F = GF(5)
    assert poly_parse("t^%d" % MAX_PARSED_DEGREE, F)[-1] == 1
    for s in ["t^99999999", "(t^2 + 1)^%d" % (MAX_PARSED_DEGREE // 2 + 1)]:
        with pytest.raises(ValueError):
            poly_parse(s, F)
        with pytest.raises(ValueError):
            rat_parse("1 / " + s, F)
    with pytest.raises(ValueError):
        rat_parse("y^99999999", F, allow_y=True)


def test_products_above_the_degree_bound_are_rejected():
    F = GF(5)
    n = MAX_PARSED_DEGREE
    assert poly_parse("t" * n, F) == (0,) * n + (1,)
    bound = "above the bound %d" % n
    # implicit and explicit products, and the common denominator of a sum
    for s in ["t" * (n + 1), "t*" * n + "t", "1/t^%d + 1/t" % n]:
        with pytest.raises(ValueError, match=bound):
            rat_parse(s, F)
    with pytest.raises(ValueError, match=bound):
        rat_parse("y" * (n + 1), F, allow_y=True)
    # degrees in y and in t add up separately: both at the bound is allowed
    num, den = rat_parse("y" * n + "t" * n, F, allow_y=True)
    assert num == {n: (0,) * n + (1,)} and den == {0: (1,)}
    num, den = rat_parse("(y + t)^2" + "t" * (n - 2) + "/y^%d" % (n - 2),
                         F, allow_y=True)
    assert max(num) == 2 and max(map(len, num.values())) == n + 1
    assert den == {n - 2: (1,)}
    # a zero factor makes the rest of the product degree 0
    assert rat_parse("t" * n + "*0" + "t" * n, F)[0] == {}
    # a rejection names the degree of the first product above the bound
    mixed = "y" * (n - 1) + "(y*t)" + "t" * (n - 1) + "t*t"
    with pytest.raises(ValueError, match="degree %d, %s" % (n + 1, bound)):
        rat_parse(mixed, F, allow_y=True)
    with pytest.raises(ValueError, match="degree %d, %s" % (n + 1, bound)):
        rat_parse("t/t*y^%d*(t + y)^2" % (n - 1), F, allow_y=True)


def test_rat_parse_zero_numerator_is_allowed():
    F = GF(5)
    num, den = rat_parse("t - t", F)
    assert num == {}
    assert den.get(0, ()) == (1,)
