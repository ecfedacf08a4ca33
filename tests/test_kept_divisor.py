"""A function keeps its divisor: the kept one is the divisor, every time.

divisor() computes the divisor on the first call and hands out copies of
it afterwards.  For seeded products, inverses and powers on both
backends, each copy must equal a fresh computation from the atoms and
the oracle: on the curve divisor_oracle's, which factors every pair
atom's norm again, and on the line the orders at the atoms' places and
at infinity, read one by one through ord_at.
"""

from __future__ import annotations

import random

import pytest

from divisor_oracle import oracle_divisor
from wildsets.base_algebra import GF, poly_norm, poly_parse
from wildsets.elliptic_curve import EllipticModel
from wildsets.function_field import Divisor
from wildsets.projective_line import Place, ProjectiveLine

MODELS = [("line", 5), ("line", 9), ("curve", "t^3 + 4t"), ("curve", "t^3 + 2")]


def make(kind, arg):
    if kind == "line":
        return ProjectiveLine(GF(arg))
    return EllipticModel(GF(5), poly_parse(arg, GF(5)))


def line_oracle(fn) -> Divisor:
    places = [Place(fn.model, p) for p in fn.factors] + [fn.model.infinity]
    return Divisor({P: fn.ord_at(P) for P in places})


def oracle(fn) -> Divisor:
    return line_oracle(fn) if isinstance(fn.model, ProjectiveLine) \
        else oracle_divisor(fn)


def factor(model, rng):
    q = model.field.q

    def poly(d):
        return poly_norm(tuple(rng.randrange(q) for _ in range(d)) +
                         (1 + rng.randrange(q - 1),))

    if isinstance(model, EllipticModel) and rng.randrange(2):
        return model.from_pair(poly(rng.randrange(3)), poly(rng.randrange(2)))
    return model.from_poly(poly(rng.randrange(1, 4)))


@pytest.mark.parametrize("kind,arg", MODELS)
def test_the_kept_divisor_is_fresh_and_the_oracles(kind, arg):
    model = make(kind, arg)
    rng = random.Random("%s %s" % (kind, arg))
    for _ in range(15):
        a, b = factor(model, rng), factor(model, rng)
        for fn in (a * b, a * b.inverse(), a / b, a ** 3, b ** -2,
                   (a * b) ** 2 / a):
            first = fn.divisor()
            assert fn._divisor is not None
            kept = fn.divisor()
            assert kept is not first and kept == first
            assert kept == fn._atoms_divisor() == oracle(fn), str(fn)
            assert list(kept.coeffs) == list(first.coeffs)
