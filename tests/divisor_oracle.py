"""Divisors of curve functions factored afresh: the test oracle for divisor().

The package computes the divisor of a pair atom a + b*y once per model
and keeps it.  This module keeps the route it replaced: on every call it
factors the norm a^2 - b^2 f of every pair atom, takes the order of the
atom at each place over each factor and at infinity, and reads poly
atoms off the places above them.
"""

from __future__ import annotations

from typing import Dict

from wildsets.base_algebra import poly_deg, poly_factor
from wildsets.elliptic_curve import CurveFunction, CurvePlace, _atom_ord, _pair_norm
from wildsets.function_field import Divisor


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
                    bump(P, e * _atom_ord(atom, P, model))
            bump(model.infinity, e * _atom_ord(atom, model.infinity, model))
    D = Divisor(coeffs)
    assert D.degree == 0
    return D
