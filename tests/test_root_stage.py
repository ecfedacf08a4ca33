"""poly_factor's root stage against the route it replaces on small fields.

On fields of at most _ROOT_SCAN_MAX_Q elements poly_factor reads the
roots of f off F_q before any distinct-degree work.
kernel_oracle.poly_factor sends every input through the squarefree,
distinct-degree and equal-degree stages, and both must return the same
(lc, factors), pair for pair.  Where the reference is too slow to run on
every polynomial, the expected factorization is built instead, as the
product of irreducibles from the sieve: by unique factorization it is
the one the reference returns.
"""

from __future__ import annotations

import itertools
import random

import pytest

from wildsets import base_algebra
from wildsets.base_algebra import (
    GF,
    irreducibles_of_degree,
    poly_factor,
    poly_mul,
    poly_scalar,
    poly_to_int,
)

import kernel_oracle

BOUND = base_algebra._ROOT_SCAN_MAX_Q
# the fields with a root stage that the seeded cases run on
SMALL = [3, 5, 7, 9, 11, 13, 25, 27, BOUND]


def field_above(q):
    """The first field of more than q elements."""
    while True:
        q += 1
        try:
            return GF(q)
        except ValueError:  # not an odd prime power
            pass


def monic(q, degree):
    """Every monic polynomial over F_q of degree 0 to degree."""
    for d in range(degree + 1):
        for low in itertools.product(range(q), repeat=d):
            yield low + (1,)


@pytest.mark.parametrize("q", [3, 5])
def test_every_quartic_over_f3_and_f5_factors_as_the_reference(q):
    F = GF(q)
    for f in monic(q, 4):
        for c in range(1, q):
            g = poly_scalar(f, c, F)
            assert poly_factor(g, F) == kernel_oracle.poly_factor(g, F), g


@pytest.mark.parametrize("q", [7, 9, 11, 13])
def test_every_cubic_factors_as_the_reference(q):
    """Each monic cubic once, its leading coefficient cycling through
    F_q^*: poly_factor makes f monic before either route starts."""
    F = GF(q)
    for i, f in enumerate(monic(q, 3)):
        g = poly_scalar(f, 1 + i % (q - 1), F)
        assert poly_factor(g, F) == kernel_oracle.poly_factor(g, F), g


def built_products(F, degree):
    """(f, its factors) for every monic f of degree 0 to degree, from the
    multisets of monic irreducibles of total degree at most degree."""
    irreducibles = [g for d in range(1, degree + 1)
                    for g in irreducibles_of_degree(F, d)]  # by degree

    def extend(start, f, factors):
        yield f, factors
        for i in range(start, len(irreducibles)):
            g = irreducibles[i]
            if len(f) + len(g) - 2 > degree:
                return
            yield from extend(i, poly_mul(f, g, F), factors + [g])

    for f, factors in extend(0, (1,), []):
        counts = {}
        for g in factors:
            counts[g] = counts.get(g, 0) + 1
        yield f, sorted(counts.items(),
                        key=lambda it: (len(it[0]), poly_to_int(it[0], F)))


@pytest.mark.parametrize("q", [25, 27, BOUND])
def test_every_cubic_factors_as_its_built_product(q):
    F = GF(q)
    seen = 0
    for i, (f, factors) in enumerate(built_products(F, 3)):
        c = 1 + i % (q - 1)
        assert poly_factor(poly_scalar(f, c, F), F) == (c, factors), f
        seen += 1
    assert seen == 1 + q + q ** 2 + q ** 3


def p_th_power(g, F):
    f = (1,)
    for _ in range(F.p):
        f = poly_mul(f, g, F)
    return f


def seeded_products(q, rng):
    """Products of degree up to 12: of repeated linear and quadratic
    factors, with a leading coefficient; t^p - a, the p-th power of a
    linear factor; and (t^2 + 1)^p, bare and times t^p."""
    F = GF(q)
    out = []
    for _ in range(12):
        f = (rng.randrange(1, q),)
        while True:
            g = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 3)))
            e = rng.randrange(1, 4)
            if len(f) - 1 + e * len(g) > 12:
                break
            for _ in range(e):
                f = poly_mul(f, g + (1,), F)
        out.append(f)
    for a in range(1, min(q, 4)):
        out.append((F.neg(a),) + (0,) * (F.p - 1) + (1,))
    square = p_th_power((1, 0, 1), F)
    out += [square, poly_mul(square, p_th_power((0, 1), F), F)]
    return [f for f in out if len(f) <= 13]


def test_seeded_products_factor_as_the_reference(monkeypatch):
    """Repeated roots and p-th powers: both the strip of a repeated root
    and the p-th root of the squarefree stage run."""
    pth_roots = []
    pth_root = base_algebra._pth_root

    def counted(f, F):
        pth_roots.append(F.q)
        return pth_root(f, F)

    monkeypatch.setattr(base_algebra, "_pth_root", counted)
    repeated = set()
    for q in SMALL:
        F = GF(q)
        for f in seeded_products(q, random.Random("root stage %d" % q)):
            got = poly_factor(f, F)
            assert got == kernel_oracle.poly_factor(f, F), (q, f)
            if any(len(g) == 2 and e > 1 for g, e in got[1]):
                repeated.add(q)
    assert repeated == set(SMALL)
    assert {3, 27} <= set(pth_roots)


def test_a_cubic_needs_no_frobenius_power(monkeypatch):
    """Up to the bound, a polynomial of degree at most 3 is factored by
    its roots alone."""

    def no_power(*args):
        raise AssertionError("distinct-degree stage reached")

    monkeypatch.setattr(base_algebra, "_ddf", no_power)
    monkeypatch.setattr(base_algebra, "poly_pow_mod", no_power)
    for q in SMALL:
        F = GF(q)
        rng = random.Random("cubic %d" % q)
        for _ in range(50):
            f = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 4)))
            poly_factor(f + (rng.randrange(1, q),), F)


def test_above_the_bound_the_distinct_degree_route_runs(monkeypatch):
    F = field_above(BOUND)

    def no_scan(*args):
        raise AssertionError("root stage reached")

    monkeypatch.setattr(base_algebra, "_root_stage", no_scan)
    rng = random.Random("above %d" % F.q)
    inputs = seeded_products(F.q, rng)
    inputs += [tuple(rng.randrange(F.q) for _ in range(d)) + (1,)
               for d in (1, 2, 3, 3, 4, 6)]
    for f in inputs:
        assert poly_factor(f, F) == kernel_oracle.poly_factor(f, F), f


def test_a_rootless_input_skips_only_the_first_gcd(monkeypatch):
    """The d = 1 gcd of a rootless squarefree polynomial is 1, so the
    distinct-degree stage told so yields the same blocks without it."""
    gcds = []
    gcd = base_algebra.poly_gcd

    def counted(f, g, F):
        gcds.append(f)
        return gcd(f, g, F)

    monkeypatch.setattr(base_algebra, "poly_gcd", counted)
    fields = [field_above(2)]
    while fields[-1].q < BOUND:
        fields.append(field_above(fields[-1].q))
    assert [F.q for F in fields] == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31]
    for F in fields:
        rng = random.Random("rootless %d" % F.q)
        for d in range(4, 9):
            made = 0
            while made < 3:
                s = tuple(rng.randrange(F.q) for _ in range(d)) + (1,)
                if (any(base_algebra.poly_eval(s, a, F) == 0 for a in range(F.q))
                        or gcd(s, base_algebra.poly_deriv(s, F), F) != (1,)):
                    continue
                made += 1
                del gcds[:]
                want = list(base_algebra._ddf(s, F))
                full = len(gcds)
                del gcds[:]
                assert list(base_algebra._ddf(s, F, rootless=True)) == want, (F.q, s)
                assert len(gcds) == full - 1, (F.q, s)
