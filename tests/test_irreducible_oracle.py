"""The irreducible sieve against Rabin's test on every code (irreducible_oracle).

Every (q, d) with q^d <= 3000 over the listed fields is enumerated both
ways and must give the same list in the same order.  The fields cover
the prime and the table paths of the kernel, and the degrees run from 0,
which has no irreducibles, to 4 and beyond, where products of two lower
degrees (k = 1 and k = 2) are struck.  The
modulus of every extension field up to MAX_FIELD_SIZE is the oracle's
first irreducible, so the element encoding is unchanged.
"""

from __future__ import annotations

import pytest

from wildsets.base_algebra import (
    GF,
    MAX_FIELD_SIZE,
    _int_factor_prime_power,
    irreducibles_of_degree,
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
