"""The fingerprint routes of the square-class spaces: the test oracle for
their one elimination.

The package eliminates the local rows of Sing(S) at S once and reads
both Delta(S) and the quotient basis off the relations, and it decides
independence modulo squares by cutting one relation basis place by
place.  This module keeps the routes those replaced:

* `quotient_basis` inserts each generator's packed local row at S into
  a triangular basis and keeps the generators whose row is new;
* `independent_modulo_squares` grows one fingerprint vector per
  generator -- the order parities on the supports, then one residue
  character per place drawn, read for every generator -- recomputes the
  F_2 rank after each place, stops at full rank, and when the places
  run out walks the kernel of the fingerprints with the exact square
  test.

`random_generators` draws the seeded generator lists both are held to,
dependent shapes included, so that the exact fallback is reached.
"""

from __future__ import annotations

from typing import Dict

from wildsets.errors import VerificationError
from wildsets.local_symbols import local_square_class
from wildsets.square_class_spaces import (
    _f2_rank,
    _kernel_basis,
    _pack,
    _product,
    _xor_insert,
    sing_space,
)


def quotient_basis(model, S) -> tuple:
    space = sing_space(model, S)
    seen: Dict[int, int] = {}
    out = []
    for g in space.generators:
        if _xor_insert(seen, _pack(local_square_class(g, P) for P in S)):
            out.append(g)
    if len(out) != len(S):
        raise VerificationError(
            "quotient of rank %d over %d removed places" % (len(out), len(S)))
    return tuple(out)


def independent_modulo_squares(model, gens, divisors, places) -> bool:
    vectors = [0] * len(gens)
    for P in {P for D in divisors for P in D.coeffs}:
        for i, D in enumerate(divisors):
            vectors[i] = vectors[i] << 1 | D.get(P) & 1
    if _f2_rank(vectors) == len(gens):
        return True
    for P in places:
        for i, g in enumerate(gens):
            vectors[i] = vectors[i] << 1 | local_square_class(g, P)[1]
        if _f2_rank(vectors) == len(gens):
            return True
    kernel = _kernel_basis(vectors)
    for pick in range(1, 1 << len(kernel)):
        mask = 0
        for k, relation in enumerate(kernel):
            if pick >> k & 1:
                mask ^= relation
        if _product(model, gens, mask).is_square():
            return False
    return True


def random_generators(model, rng):
    """One to three random products of small atoms, then maybe a
    dependent member: a product of two of them times a square, or a
    square on its own."""
    atoms = [model.constant(model.field.nonsquare())]
    atoms += [model.from_poly(P.poly if hasattr(P, "poly") else P.base)
              for d in (1, 2) for P in model.places_of_degree(d)
              if not P.is_infinite]
    if hasattr(model, "y"):
        atoms.append(model.y())
        atoms += [model.from_pair((rng.randrange(5), 1), (1,))
                  for _ in range(3)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = model.one()
        for atom in rng.sample(atoms, rng.randint(1, 3)):
            g = g * atom ** rng.randint(1, 3)
        gens.append(g)
    shape = rng.randrange(3)
    if shape == 1:  # a product of two members, times a square
        extra = gens[0] * gens[-1] * rng.choice(atoms) ** 2
        gens.insert(rng.randrange(len(gens) + 1), extra)
    elif shape == 2:  # a square on its own
        gens.append(rng.choice(atoms) ** 2)
    return gens
