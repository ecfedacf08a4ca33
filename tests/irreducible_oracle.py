"""Rabin's test on every code: the test oracle for the irreducible sieve.

`irreducibles_of_degree` strikes the products of lower-degree
irreducibles off the q^d monic codes of degree d.  This module keeps the
route it replaced: each code, in increasing order, is decoded to its
monic polynomial and kept when `poly_is_irreducible` (Rabin's test)
accepts it.
"""

from __future__ import annotations

from typing import Iterator

from wildsets.base_algebra import Fq, Poly, _digits, poly_is_irreducible


def irreducibles_of_degree(F: Fq, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d, in canonical (integer code) order."""
    for code in range(F.q ** d):
        f = tuple(_digits(code, F.q, d)) + (1,)
        if poly_is_irreducible(f, F):
            yield f
