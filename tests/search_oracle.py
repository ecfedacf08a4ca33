"""The construction searches as product walks: the test oracle for the
searches on class tables.

The package reads each function's local classes once and combines
classes by mask, multiplying out only the answer; `smile` reads the
witness alone, since every global even generator is a local square at
a 2-divisible place.  This module keeps the walks that multiplied out
every candidate first and then read its classes: `smile` over the whole
coset of the new even classes,
`sing_element` and `aux_point_and_witness` over every product of the
global even generators in mask order, and `fit_triple_images` over the
images of every invertible combination of the pool.
"""

from __future__ import annotations

from wildsets.constructions import _places_by_degree
from wildsets.equivalence_core import PreEquivalence, verify_pre_equivalence
from wildsets.errors import HypothesisError, SearchExhausted
from wildsets.function_field import Divisor
from wildsets.local_symbols import ONE, LocalMap, local_square_class
from wildsets.square_class_spaces import (
    _even_class_witness,
    _f2_rank,
    _global_even_generators,
    _product,
)


def global_even_elements(model) -> list:
    """Every product of the global even generators, in mask order."""
    gens = _global_even_generators(model)
    return [_product(model, gens, mask) for mask in range(1 << len(gens))]


def smile(model, q1, q2) -> bool:
    if q1 == q2:
        raise ValueError("the relation compares two distinct places")
    for P in (q1, q2):
        if not model.two_divisible(Divisor({P: 1})):
            raise HypothesisError(
                "the class of %s is not 2-divisible, so the relation is "
                "undefined" % P)
    lam = _even_class_witness(model, Divisor({q1: 1}))
    return all(local_square_class(elem * lam, q2) == (0, 0)
               for elem in global_even_elements(model))


def sing_element(model, p):
    for elem in global_even_elements(model):
        if local_square_class(elem, p) != ONE:
            return elem
    raise HypothesisError(
        "no everywhere-even-order element is a nonsquare at {%s}" % p)


def aux_point_and_witness(model, S, mu, degree_cap: int):
    goal = local_square_class(mu, S[1])
    corrections = global_even_elements(model)
    for P in _places_by_degree(model, degree_cap):
        if P in S or model.pic_mod2(P) != 0:
            continue
        base = _even_class_witness(model, Divisor({P: 1}))
        for sigma in corrections:
            nu = base * sigma
            if local_square_class(nu, S[0]) == ONE and \
                    local_square_class(nu, S[1]) == goal:
                return P, nu
    raise SearchExhausted(
        "no point of degree <= %d admits the witness the three-point "
        "construction needs; raise the degree cap" % degree_cap)


def fit_triple_images(model, S, p4, basis, pool) -> PreEquivalence:
    targets = (S[0], S[1], p4)
    for code in range(1 << 9):
        rows = (code & 7, code >> 3 & 7, code >> 6 & 7)
        if _f2_rank(rows) != 3:
            continue
        images = tuple(_product(model, pool, row) for row in rows)
        maps = []
        for P, Q in zip(S, targets):
            pairs = [(local_square_class(b, P), local_square_class(g, Q))
                     for b, g in zip(basis, images)]
            lm = LocalMap.from_pairs(pairs)
            if lm is None or not lm.is_wild:
                break
            maps.append(lm)
        else:
            pe = PreEquivalence(model, S, targets, basis, images, tuple(maps))
            if verify_pre_equivalence(pe)["passes"]:
                return pe
    raise SearchExhausted(
        "no combination of the witnesses realizes a wild triple; the "
        "search space is complete, so a hypothesis must have failed "
        "undetected")
