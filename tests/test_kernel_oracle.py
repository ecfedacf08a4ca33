"""The F_q[t] kernel against its method-call oracle (kernel_oracle).

Each case draws seeded polynomials over prime and extension fields,
small and large, and requires the kernel and the oracle to give equal
tuples; the modular helpers (remainder, fused multiply-reduce, power,
distinct-degree stage, strip) are held to their plain forms the same
way; then the helpers built on the kernel are run twice, once on each,
and must agree too.
"""

from __future__ import annotations

import random

import pytest

from wildsets import base_algebra
from wildsets.base_algebra import (
    GF,
    ResidueField,
    irreducibles_of_degree,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_jacobi,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_mulmod,
    poly_neg,
    poly_norm,
    poly_pow_mod,
    poly_scalar,
    poly_strip,
    poly_sub,
)

import kernel_oracle

FIELDS = [3, 5, 7, 9, 13, 27, 243, 729, 1021]


def random_poly(rng, q, d, monic=False):
    """A polynomial of degree exactly d (the zero polynomial for d < 0)."""
    if d < 0:
        return ()
    lead = 1 if monic else rng.randrange(1, q)
    return tuple(rng.randrange(q) for _ in range(d)) + (lead,)


def operands(rng, q):
    """Pairs (f, g): zero operands, deg f < deg g, equal degrees, long
    dividends over divisors of degree 0 to 5, monic or not."""
    out = [((), ()), ((), (1,)), ((rng.randrange(1, q),), ())]
    for _ in range(12):
        dg = rng.choice([0, 0, 1, 1, 1, 2, 3, 5])
        g = random_poly(rng, q, dg, monic=rng.random() < 0.5)
        for df in (-1, max(-1, dg - 1), dg, dg + 3, 40):
            out.append((random_poly(rng, q, df), g))
    # sparse operands: cancellation and zero pivots
    for _ in range(4):
        f = tuple(rng.choice([0, 0, 0, rng.randrange(q)]) for _ in range(15))
        out.append((poly_norm(f + (1,)), random_poly(rng, q, 2)))
    return out


@pytest.mark.parametrize("q", FIELDS)
def test_kernel_matches_the_method_call_oracle(q):
    F = GF(q)
    o = kernel_oracle
    rng = random.Random("kernel %d" % q)
    for f, g in operands(rng, q):
        for a, b in ((f, g), (g, f)):
            assert poly_add(a, b, F) == o.poly_add(a, b, F)
            assert poly_sub(a, b, F) == o.poly_sub(a, b, F)
            assert poly_mul(a, b, F) == o.poly_mul(a, b, F)
        assert poly_sub(f, f, F) == ()
        assert poly_neg(f, F) == o.poly_neg(f, F)
        c = rng.randrange(q)
        assert poly_scalar(f, c, F) == o.poly_scalar(f, c, F)
        x = rng.randrange(q)
        assert poly_eval(f, x, F) == o.poly_eval(f, x, F)
        if g:
            assert poly_divmod(f, g, F) == o.poly_divmod(f, g, F)
        else:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(f, g, F)
    for a in range(1, q):
        assert F.inv(a) == o.field_inv(F, a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def repeated_product(rng, q, degree):
    """A monic product of random monic factors of total degree up to
    degree, some of them repeated."""
    F = GF(q)
    out, parts = (1,), []
    while True:
        if parts and rng.random() < 0.4:
            g = rng.choice(parts)
        else:
            g = random_poly(rng, q, rng.randrange(1, 6), monic=True)
        if len(out) + len(g) - 2 > degree:
            return out
        parts.append(g)
        out = poly_mul(out, g, F)


@pytest.mark.parametrize("q", FIELDS)
def test_modular_helpers_match_their_plain_forms(q):
    """Remainders, fused products and powers modulo m of degree 0 to 40,
    monic or not, against a division that builds the quotient, a product
    reduced after it is formed, and a power that starts from 1."""
    F = GF(q)
    o = kernel_oracle
    rng = random.Random("modular %d" % q)
    for dm in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        m = random_poly(rng, q, dm, monic=rng.random() < 0.3)
        for df in (-1, 0, dm - 1, dm, 2 * dm + 1, 40):
            f = random_poly(rng, q, df)
            g = random_poly(rng, q, rng.randrange(-1, 41))
            assert poly_mod(f, m, F) == o.poly_mod(f, m, F)
            assert poly_mulmod(f, g, m, F) == o.poly_mulmod(f, g, m, F)
        f = random_poly(rng, q, rng.randrange(0, 41))
        for e in (0, 1, 2, q, q * q - 1):
            assert poly_pow_mod(f, e, m, F) == o.poly_pow_mod(f, e, m, F)
    with pytest.raises(ZeroDivisionError):
        poly_mod((1, 1), (), F)
    with pytest.raises(ZeroDivisionError):
        poly_mulmod((1, 1), (1,), (), F)


@pytest.mark.parametrize("q", FIELDS)
def test_distinct_degree_stage_matches_per_step_powering(q):
    """The Frobenius rows give the blocks a fresh q-th power per degree
    gives, on random monic inputs and on products with repeated factors."""
    F = GF(q)
    rng = random.Random("ddf %d" % q)
    inputs = [random_poly(rng, q, d, monic=True) for d in (1, 4, 7, 12, 40)]
    inputs += [repeated_product(rng, q, d) for d in (8, 16, 24)]
    for f in inputs:
        assert (list(base_algebra._ddf(f, F))
                == list(kernel_oracle._ddf(f, F)))


@pytest.mark.parametrize("q", FIELDS)
def test_strip_matches_the_one_power_oracle(q):
    F = GF(q)
    rng = random.Random("strip %d" % q)
    for _ in range(12):
        g = random_poly(rng, q, rng.randrange(1, 4), monic=rng.random() < 0.5)
        f = random_poly(rng, q, rng.randrange(0, 6))
        for _ in range(rng.choice([0, 1, 2, 3, 5, 8, 13])):
            f = poly_mul(f, g, F)
        assert poly_strip(f, g, F) == kernel_oracle.poly_strip(f, g, F)


def test_a_distinct_degree_stage_raises_to_the_q_th_power_once(monkeypatch):
    """x^q mod f is the one power; each later step is a Frobenius step,
    in a factorization and in Ben-Or's test alike."""
    F = GF(3)
    powers = []
    power = base_algebra.poly_pow_mod

    def counted(f, e, m, F):
        powers.append(e)
        return power(f, e, m, F)

    monkeypatch.setattr(base_algebra, "poly_pow_mod", counted)
    f = (1,)
    for d in (1, 2, 3, 4, 5):
        f = poly_mul(f, next(irreducibles_of_degree(F, d)), F)
    assert [d for _, d in base_algebra._ddf(f, F)] == [1, 2, 3, 4, 5]
    assert powers == [F.q]
    del powers[:]
    assert poly_is_irreducible(next(irreducibles_of_degree(F, 7)), F)
    assert powers == [F.q]


def helper_outputs(q, rng):
    """gcd, pow_mod, factor, jacobi, irreducibility and residue
    field products and powers on seeded inputs over F_q; over F_5 and
    F_9 also factors of degree 2 to 6, which the root stage reads."""
    F = GF(q)
    out = []
    for d in (2, 8, 20):
        f = repeated_product(rng, q, d)
        out.append(poly_factor(poly_scalar(f, rng.randrange(1, q), F), F))
        out.append(poly_is_irreducible(f, F))
        m = random_poly(rng, q, d, monic=False)
        for e in (0, 1, 2, q, q * q - 1):
            out.append(poly_pow_mod(f, e, m, F))
        rf = ResidueField(F, random_poly(rng, q, d, monic=True))
        a, b = (random_poly(rng, q, d - 1) for _ in range(2))
        out.append(rf.mul(a, b))
        out.append(rf.frobenius(a))
    for _ in range(10):
        f = random_poly(rng, q, rng.randrange(1, 7))
        g = random_poly(rng, q, rng.randrange(0, 5))
        h = poly_mul(f, random_poly(rng, q, 2, monic=True), F)
        m = random_poly(rng, q, rng.randrange(1, 5), monic=True)
        out.append(poly_gcd(f, g, F))
        out.append(poly_gcd(h, f, F))
        out.append(poly_pow_mod(f, rng.randrange(q * q), m, F))
        out.append(poly_factor(f, F))
        out.append(poly_factor(poly_mul(h, h, F), F))
        out.append(poly_jacobi(f, m, F))
        out.append(poly_jacobi(g, poly_monic(h, F), F))
    if q in (5, 9):  # the root stage, on a prime and an extension field
        for d in (2, 3, 4, 5, 6):
            out.append(poly_factor(random_poly(rng, q, d), F))
            out.append(poly_factor(poly_scalar(repeated_product(rng, q, d),
                                               rng.randrange(1, q), F), F))
    return out


@pytest.mark.parametrize("q", FIELDS)
def test_helpers_agree_on_the_oracle_kernel(q, monkeypatch):
    fast = helper_outputs(q, random.Random("helpers %d" % q))
    kernel_oracle.install(monkeypatch)
    assert helper_outputs(q, random.Random("helpers %d" % q)) == fast
