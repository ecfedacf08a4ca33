"""The construction searches on class tables against the product walks.

Seeded pairs of 2-divisible places on the F_5 and F_9 lines and on the
curve y^2 = t^3 + 4t over F_5 go through smile, _sing_element and
_aux_point_and_witness, and so does every curve place of degree 2 for
_sing_element; seeded rank-1 triples without a 2-divisible member are
constructed, and every call of _sing_element, _aux_point_and_witness
and _fit_triple_images that _triple makes is replayed.  Each search
must give the oracle's value (its text, for functions) or raise the
oracle's exception with the same message.
"""

from __future__ import annotations

import random

import search_oracle as oracle
from wildsets import constructions, equivalence_core
from wildsets.base_algebra import GF, poly_parse
from wildsets.constructions import (
    _aux_point_and_witness,
    _fit_triple_images,
    _sing_element,
)
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import PreEquivalence
from wildsets.errors import HypothesisError, SearchExhausted
from wildsets.function_field import Divisor
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import (
    _even_class_witness,
    _global_even_generators,
    g_rank,
    smile,
)

F5, F9, F13 = GF(5), GF(9), GF(13)
CURVE = EllipticModel(F5, poly_parse("t^3 + 4t", F5))
L5, L9, L13 = ProjectiveLine(F5), ProjectiveLine(F9), ProjectiveLine(F13)


def _text(value):
    if isinstance(value, PreEquivalence):
        return (value.places, value.images,
                tuple(map(str, value.quotient_basis)),
                tuple(map(str, value.quotient_images)),
                tuple((m.image_of_u, m.image_of_pi) for m in value.local_maps))
    if isinstance(value, tuple):  # an auxiliary point and its witness
        return value[0], str(value[1])
    return value if isinstance(value, bool) else str(value)


def _outcome(search, *args):
    try:
        return _text(search(*args))
    except (HypothesisError, SearchExhausted) as exc:
        return type(exc), str(exc)


def test_pair_searches_match_the_product_walks(monkeypatch):
    rng = random.Random("search pairs")
    tally = {"smile": 0, "no smile": 0, "point": 0, "no point": 0}
    # the curve has no 2-divisible place below degree 4; the point
    # search scans up to the degree of the pair
    for model, degree, count in ((L5, 2, 10), (L9, 2, 10), (CURVE, 4, 6)):
        monkeypatch.setattr(equivalence_core, "DEGREE_CAP", degree)
        divisible = [P for P in model.places_of_degree(degree)
                     if model.pic_mod2(P) == 0]
        for _ in range(count):
            q1, q2 = rng.sample(divisible, 2)
            for a, b in ((q1, q2), (q2, q1)):
                related = smile(model, a, b)
                assert related == oracle.smile(model, a, b), (a, b)
                tally["smile" if related else "no smile"] += 1
            for p in (q1, q2):  # every global even class is a square here
                found = _outcome(_sing_element, model, p)
                assert found == _outcome(oracle.sing_element, model, p), p
            mu = _even_class_witness(model, Divisor({q1: 1}))
            args = (model, (q1, q2), mu)
            found = _outcome(_aux_point_and_witness, *args)
            assert found == _outcome(oracle.aux_point_and_witness, *args)
            tally["no point" if found[0] is SearchExhausted else "point"] += 1
    assert min(tally.values()) >= 1, tally


def test_sing_element_past_the_first_generator():
    # the constant is a square at a place of even degree, so a 2-torsion
    # witness is the first nonsquare generator there, when there is one
    first = str(_global_even_generators(CURVE)[0])
    later = 0
    for P in CURVE.places_of_degree(2):
        found = _outcome(_sing_element, CURVE, P)
        assert found == _outcome(oracle.sing_element, CURVE, P), P
        later += found != first
    assert later >= 2


def _triples(rng):
    """Rank-1 triples of places whose classes are not 2-divisible.

    Degree 1 on the F_9 and F_13 lines, degrees 1 and 3 on the F_5
    line and degrees 1-3 on the curve; -1 is a local square at all of
    them, since 4 divides q - 1.
    """
    for model, degrees, count in ((L5, (1, 3), 4), (L9, (1,), 2),
                                  (L13, (1,), 2), (CURVE, (1, 2, 3), 4)):
        odd = [P for d in degrees for P in model.places_of_degree(d)
               if model.pic_mod2(P) != 0]
        for _ in range(count):
            S = rng.sample(odd, 3)
            while g_rank(model, S).rank != 1:
                S = rng.sample(odd, 3)
            yield model, S


def test_triple_searches_match_the_product_walks(monkeypatch):
    searches = {_sing_element: oracle.sing_element,
                _aux_point_and_witness: oracle.aux_point_and_witness,
                _fit_triple_images: oracle.fit_triple_images}
    calls = []
    for search in searches:
        def recording(*args, search=search):
            calls.append((search, args))
            return search(*args)
        monkeypatch.setattr(constructions, search.__name__, recording)
    for model, S in _triples(random.Random("search triples")):
        constructions.construct_rank1_triple(model, *S)
    assert len(calls) == 3 * 12
    for search, args in calls:
        assert _outcome(search, *args) == _outcome(searches[search], *args), \
            (search.__name__, args[1])
