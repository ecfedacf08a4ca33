"""The one elimination of the square-class spaces against its fingerprint
oracle (square_class_oracle).

On the F_3, F_5, F_9 and F_13 lines and on the F_5 curves t^3 + 4t and
t^3 + 2, seeded removed sets (every other one holding the place at
infinity) give the quotient basis, which must equal the greedy
insertion's element for element.  The independence test is run on the
generators of sing_space, on the seeded lists of random_generators and
on prefixes of the separating places short enough to reach the exact
fallback; the verdict and the places drawn from the iterator must be
the oracle's.
"""

from __future__ import annotations

import itertools
import random

import pytest

from wildsets.base_algebra import GF, poly_parse
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import quotient_basis
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import (
    _independent_modulo_squares,
    _separating_places,
    sing_space,
)

import square_class_oracle as oracle


def curve(text):
    return EllipticModel(GF(5), poly_parse(text, GF(5)))


MODELS = {
    "F3": lambda: ProjectiveLine(GF(3)),
    "F5": lambda: ProjectiveLine(GF(5)),
    "F9": lambda: ProjectiveLine(GF(9)),
    "F13": lambda: ProjectiveLine(GF(13)),
    "E5[t^3 + 4t]": lambda: curve("t^3 + 4t"),
    "E5[t^3 + 2]": lambda: curve("t^3 + 2"),
}


def removed_sets(model, rng, count):
    """Sets of 1-4 places of degree 1 or 2; every other one holds inf."""
    pool = [P for d in (1, 2) for P in model.places_of_degree(d)
            if not P.is_infinite]
    for k in range(count):
        S = rng.sample(pool, rng.randint(0 if k % 2 else 1, 3))
        if k % 2:
            S.insert(rng.randrange(len(S) + 1), model.infinity)
        yield S


@pytest.mark.parametrize("which", sorted(MODELS))
def test_quotient_basis_matches_the_greedy_insertion(which):
    model = MODELS[which]()
    rng = random.Random("quotient " + which)
    for S in removed_sets(model, rng, 16):
        basis, _ = quotient_basis(model, S)
        assert basis == oracle.quotient_basis(model, S), S


def decide_both(model, gens, places):
    """(verdict, places drawn) of the package's test and of the oracle;
    places(divisors) makes a fresh iterator for each."""
    divisors = [g.divisor() for g in gens]
    outcomes = []
    for decide in (_independent_modulo_squares,
                   oracle.independent_modulo_squares):
        drawn = []

        def counted():
            for P in places(divisors):
                drawn.append(P)
                yield P

        outcomes.append((decide(model, gens, divisors, counted()), drawn))
    return outcomes


@pytest.mark.parametrize("which", sorted(MODELS))
def test_independence_matches_the_fingerprint_oracle(which):
    model = MODELS[which]()
    rng = random.Random("independence " + which)
    verdicts = set()
    for S in removed_sets(model, rng, 10):
        lists = [list(sing_space(model, S).generators),
                 oracle.random_generators(model, rng)]
        for gens in lists:
            def full(divisors):
                return _separating_places(model, divisors, S)
            cuts = [None, 0, 1, rng.randrange(6)]
            for k in cuts:
                def places(divisors, k=k):
                    return itertools.islice(full(divisors), k)
                new, old = decide_both(model, gens, places)
                assert new == old, (S, gens, k)
                verdicts.add(new[0])
    # the random lists hold dependent shapes, which end in the fallback
    assert verdicts == {True, False}
