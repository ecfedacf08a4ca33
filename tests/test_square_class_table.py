"""square_class_table against local_square_class, entry by entry.

The table reads each (atom, place) character once per call and combines
the entries from them; local_square_class, which reads every character
afresh, is the oracle.  The functions are seeded products over a shared
pool, so atoms repeat within a table, with even and negative exponents,
nonsquare constants, place bases and, on the curves, pair atoms; the
places have degrees 1 to 3 and include infinity and, on the curves,
places of each kind.
"""

from __future__ import annotations

import collections
import random

import pytest

from wildsets.base_algebra import GF, poly_neg, poly_norm, poly_parse
from wildsets.elliptic_curve import EllipticModel
from wildsets.local_symbols import local_square_class, square_class_table
from wildsets.projective_line import ProjectiveLine

MODELS = [("line", q) for q in (3, 5, 7, 9, 11, 13)] + \
    [("curve", "t^3 + 4t"), ("curve", "t^3 + 2")]


def make(kind, arg):
    if kind == "line":
        return ProjectiveLine(GF(arg))
    return EllipticModel(GF(5), poly_parse(arg, GF(5)))


def random_poly(rng, q, d):
    return poly_norm(tuple(rng.randrange(q) for _ in range(d)) +
                     (1 + rng.randrange(q - 1),))


def sample_places(model, rng):
    """Every place of degree 1, infinity first, a few of degrees 2 and 3,
    and on the curve the first inert place of degree 2 or 4."""
    places = model.places_of_degree(1)
    for d in (2, 3):
        of_degree = model.places_of_degree(d)
        places += rng.sample(of_degree, min(4, len(of_degree)))
    inert = [P for d in (2, 4) for P in model.places_of_degree(d)
             if getattr(P, "kind", None) == "inert"]
    if inert and inert[0] not in places:
        places.append(inert[0])
    return places


def pool(model, rng, places):
    """Factors to multiply: place bases, random polynomials and, on the
    curve, y, primitive pairs and the peel lines of split places."""
    q = model.field.q
    out = [model.from_poly(P.base) for P in places if not P.is_infinite]
    out += [model.from_poly(random_poly(rng, q, rng.randrange(1, 4)))
            for _ in range(6)]
    if isinstance(model, EllipticModel):
        F = model.field
        out.append(model.y())
        out += [model.from_pair(random_poly(rng, q, rng.randrange(3)),
                                random_poly(rng, q, rng.randrange(2)))
                for _ in range(6)]
        out += [model.from_pair(poly_neg(P.branch, F), (1,))
                for P in places if getattr(P, "kind", None) == "split"]
    return out


def products(model, rng, factors, count=24):
    F = model.field
    out = []
    for _ in range(count):
        fn = model.constant(1 + rng.randrange(F.q - 1))
        for g in rng.sample(factors, rng.randrange(0, 4)):
            fn = fn * g ** rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(fn)
    out.append(model.constant(F.nonsquare()))
    out.append(out[0] * out[1] ** 2)
    return out


@pytest.mark.parametrize("kind,arg", MODELS)
def test_the_table_is_local_square_class_entry_by_entry(kind, arg):
    model = make(kind, arg)
    rng = random.Random("%s %s" % (kind, arg))
    places = sample_places(model, rng)
    elements = products(model, rng, pool(model, rng, places))
    table = square_class_table(elements, places)
    assert table == [[local_square_class(g, P) for P in places]
                     for g in elements]

    seen = collections.Counter()
    F = model.field
    atoms = collections.Counter(a for g in elements for a in g.factors)
    bases = {getattr(P, "base", None) for P in places}
    for g in elements:
        seen["nonsquare constant"] += F.quad_char(g.constant) < 0
        for atom, e in g.factors.items():
            seen["repeated atom"] += atoms[atom] > 1
            seen["even exponent"] += e % 2 == 0
            seen["negative exponent"] += e < 0
            seen["pair atom"] += atom[0] == "lin"
            seen["place base"] += atom in bases or atom[1] in bases
    for P in places:
        seen["degree %d" % P.degree] += 1
        seen["infinity"] += P.is_infinite
        seen[getattr(P, "kind", "line")] += 1
    want = ["nonsquare constant", "repeated atom", "even exponent",
            "negative exponent", "place base", "degree 1", "degree 2",
            "degree 3", "infinity"]
    if kind == "curve":
        want += ["pair atom", "split", "inert", "ramified"]
    assert all(seen[k] for k in want), seen


def test_an_empty_table():
    line = ProjectiveLine(GF(5))
    places = line.places_of_degree(1)
    assert square_class_table([], places) == []
    assert square_class_table([line.from_poly((1, 1))], []) == [[]]
