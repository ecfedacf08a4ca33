"""Divisors of curve functions factored afresh: the test oracle for divisor().

The package computes the divisor of a pair atom a + b*y once per model
and keeps it, and reads orders off divisors.  This module keeps the
route it replaced: the order of each atom at each place by a closed form
per kind of place, and on every call a fresh factorization of the norm
a^2 - b^2 f of every pair atom, whose factors' places carry the pair's
finite divisor.  Poly atoms are read off the places above them.
"""

from __future__ import annotations

from typing import Dict

from wildsets.base_algebra import ResidueField, poly_deg, poly_factor
from wildsets.elliptic_curve import CurveFunction, CurvePlace, _pair_norm
from wildsets.function_field import Divisor

from residue_oracle import _vp


def atom_ord(atom, place: CurvePlace, model) -> int:
    """The order of one atom at a place, by the closed form for its kind."""
    kind, data = atom
    F = model.field
    if kind == "poly":
        g = data
        if place.kind == "infinite":
            return -2 * poly_deg(g)
        hit = 1 if g == place.base else 0
        return 2 * hit if place.kind == "ramified" else hit
    a, b = data
    if place.kind == "infinite":
        vb = -2 * poly_deg(b) - 3
        return vb if not a else min(-2 * poly_deg(a), vb)
    p = place.base
    if place.kind == "inert":
        return min(_vp(a, p, F), _vp(b, p, F))
    if place.kind == "ramified":
        return min(2 * _vp(a, p, F), 2 * _vp(b, p, F) + 1)
    rf = ResidueField(F, p)
    if rf.add(rf.reduce(a), rf.mul(rf.reduce(b), place.branch)):
        return 0
    return _vp(_pair_norm(a, b, model), p, F)


def oracle_ord(fn: CurveFunction, place: CurvePlace) -> int:
    """The order of fn at a place, summed over its atoms' closed forms."""
    return sum(e * atom_ord(atom, place, fn.model) for atom, e in fn.factors.items())


def oracle_divisor(fn: CurveFunction) -> Divisor:
    """The divisor of fn, with every pair atom's norm factored again."""
    model = fn.model
    coeffs: Dict[CurvePlace, int] = {}

    def bump(P, n):
        if n:
            coeffs[P] = coeffs.get(P, 0) + n

    for atom, e in fn.factors.items():
        kind, data = atom
        if kind == "poly":
            for P in model._places_over_irreducible(data):
                bump(P, e * (2 if P.kind == "ramified" else 1))
            bump(model.infinity, -2 * poly_deg(data) * e)
        else:
            a, b = data
            n = _pair_norm(a, b, model)
            for p, _ in poly_factor(n, model.field)[1]:
                for P in model._places_over_irreducible(p):
                    assert P.kind != "inert", "a primitive pair has no inert zeros"
                    bump(P, e * atom_ord(atom, P, model))
            bump(model.infinity, e * atom_ord(atom, model.infinity, model))
    D = Divisor(coeffs)
    assert D.degree == 0
    return D
