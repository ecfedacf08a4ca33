"""Rabin's test, and Rabin's test on every code: the irreducibility oracles.

`poly_is_irreducible` reads irreducibility off the first block of the
distinct-degree stage (Ben-Or's test), and `irreducibles_of_degree`
strikes the products of lower-degree irreducibles off the q^d monic codes
of degree d.  This module keeps the routes they replaced: Rabin's test on
one polynomial, and the enumeration that decodes each code, in increasing
order, to its monic polynomial and keeps it when Rabin's test accepts it.
"""

from __future__ import annotations

from typing import Iterator, List

from wildsets.base_algebra import (
    Fq,
    Poly,
    _digits,
    poly_deg,
    poly_gcd,
    poly_mod,
    poly_pow_mod,
    poly_sub,
)


def _prime_divisors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: Poly, F: Fq) -> bool:
    """Rabin's test: x^(q^d) = x mod f and no proper subfield fixes x."""
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    x = (0, 1)
    h = poly_pow_mod(x, F.q ** d, f, F)
    if h != poly_mod(x, f, F):
        return False
    for ell in _prime_divisors(d):
        h = poly_pow_mod(x, F.q ** (d // ell), f, F)
        if poly_gcd(poly_sub(h, x, F), f, F) != (1,):
            return False
    return True


def irreducibles_of_degree(F: Fq, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d, in canonical (integer code) order."""
    for code in range(F.q ** d):
        f = tuple(_digits(code, F.q, d)) + (1,)
        if is_irreducible(f, F):
            yield f
