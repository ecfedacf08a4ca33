"""The F_q[t] kernel against its method-call oracle (kernel_oracle).

Each case draws seeded polynomials over prime and extension fields,
small and large, and requires the kernel and the oracle to give equal
tuples; then the helpers built on the kernel are run twice, once on
each, and must agree too.
"""

from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import (
    GF,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_factor,
    poly_gcd,
    poly_jacobi,
    poly_monic,
    poly_mul,
    poly_neg,
    poly_norm,
    poly_pow_mod,
    poly_scalar,
    poly_sub,
    poly_xgcd,
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


def helper_outputs(q, rng):
    """gcd, xgcd, pow_mod, factor and jacobi on seeded inputs over F_q."""
    F = GF(q)
    out = []
    for _ in range(10):
        f = random_poly(rng, q, rng.randrange(1, 7))
        g = random_poly(rng, q, rng.randrange(0, 5))
        h = poly_mul(f, random_poly(rng, q, 2, monic=True), F)
        m = random_poly(rng, q, rng.randrange(1, 5), monic=True)
        out.append(poly_gcd(f, g, F))
        out.append(poly_gcd(h, f, F))
        out.append(poly_xgcd(f, g, F))
        out.append(poly_xgcd(h, poly_monic(f, F), F))
        out.append(poly_pow_mod(f, rng.randrange(q * q), m, F))
        out.append(poly_factor(f, F))
        out.append(poly_factor(poly_mul(h, h, F), F))
        out.append(poly_jacobi(f, m, F))
        out.append(poly_jacobi(g, poly_monic(h, F), F))
    return out


@pytest.mark.parametrize("q", FIELDS)
def test_helpers_agree_on_the_oracle_kernel(q, monkeypatch):
    fast = helper_outputs(q, random.Random("helpers %d" % q))
    kernel_oracle.install(monkeypatch)
    assert helper_outputs(q, random.Random("helpers %d" % q)) == fast
