"""Irreducibility against Rabin's test (irreducible_oracle).

Every (q, d) with q^d <= 3000 over the listed fields is enumerated both
ways and must give the same list in the same order.  The fields cover
the prime and the table paths of the kernel, and the degrees run from 0,
which has no irreducibles, to 4 and beyond, where products of two lower
degrees (k = 1 and k = 2) are struck.  The
modulus of every extension field up to MAX_FIELD_SIZE is the oracle's
first irreducible, so the element encoding is unchanged.

`poly_is_irreducible` must agree with Rabin's test on every code of
those cases, monic and times a constant other than 1, on the constants,
and on seeded inputs of degree 20 to 100: random polynomials and, built
from their irreducible factors g, the factor itself, g^2, g^p and
g * g(t + 1), a product of two irreducibles of equal degree.
"""

from __future__ import annotations

import random

import pytest

from wildsets.base_algebra import (
    GF,
    MAX_FIELD_SIZE,
    _digits,
    _int_factor_prime_power,
    irreducibles_of_degree,
    poly_add,
    poly_deg,
    poly_factor,
    poly_is_irreducible,
    poly_mul,
    poly_scalar,
)

import irreducible_oracle

FIELDS = [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 243]
CASES = [(q, d) for q in FIELDS for d in range(8) if q ** d <= 3000]


def _extension_fields():
    out = []
    for q in range(3, MAX_FIELD_SIZE + 1, 2):
        try:
            p, k = _int_factor_prime_power(q)
        except ValueError:
            continue
        if k > 1:
            out.append((q, p, k))
    return out


@pytest.mark.parametrize("q,d", CASES)
def test_sieve_matches_rabin_on_every_code(q, d):
    F = GF(q)
    assert list(irreducibles_of_degree(F, d)) == \
        list(irreducible_oracle.irreducibles_of_degree(F, d))


@pytest.mark.parametrize("q,p,k", _extension_fields())
def test_field_modulus_is_the_oracles_first_irreducible(q, p, k):
    assert GF(q).modulus == next(irreducible_oracle.irreducibles_of_degree(GF(p), k))


@pytest.mark.parametrize("q,d", CASES)
def test_is_irreducible_matches_rabin_on_every_code(q, d):
    F = GF(q)
    for code in range(q ** d):
        f = tuple(_digits(code, q, d)) + (1,)
        assert poly_is_irreducible(f, F) == irreducible_oracle.is_irreducible(f, F)
        g = poly_scalar(f, 2 + code % (q - 2), F)
        assert poly_is_irreducible(g, F) == irreducible_oracle.is_irreducible(g, F)


@pytest.mark.parametrize("q", FIELDS)
def test_is_irreducible_rejects_zero_and_constants(q):
    F = GF(q)
    for f in [()] + [(c,) for c in range(1, q)]:
        assert not poly_is_irreducible(f, F)
        assert not irreducible_oracle.is_irreducible(f, F)


def _shifted(g, F):
    """g(t + 1), irreducible of g's degree when g is."""
    out = ()
    for c in reversed(g):
        out = poly_add(poly_mul(out, (1, 1), F), (c,), F)
    return out


def _power(g, e, F):
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, g, F)
    return out


@pytest.mark.parametrize("q", [5, 9])
def test_is_irreducible_matches_rabin_on_seeded_high_degree(q):
    F = GF(q)
    rng = random.Random(1900 + q)
    builds = [lambda g: g, lambda g: _power(g, 2, F),
              lambda g: _power(g, F.p, F), lambda g: poly_mul(g, _shifted(g, F), F)]
    inputs, kinds = [], set()
    for _ in range(2):
        f = tuple(rng.randrange(q) for _ in range(rng.randint(20, 100))) + (1,)
        inputs.append(f)
        factors = [g for g, _ in poly_factor(f, F)[1]]
        for kind, build in enumerate(builds):
            fits = [h for h in map(build, factors) if 20 <= poly_deg(h) <= 100]
            if fits:
                inputs.append(fits[-1])
                kinds.add(kind)
    assert kinds == set(range(len(builds)))
    seen = set()
    for f in inputs:
        got = poly_is_irreducible(f, F)
        assert got == irreducible_oracle.is_irreducible(f, F)
        seen.add(got)
    assert seen == {False, True}
