"""Unit-part residues and the Euler criterion: the test oracle for residue_char.

The package decides local square classes by Jacobi symbols and never
forms a residue.  This module keeps the route it replaced: it computes
the residue of f / uniformizer**ord in the residue field -- F_q at
infinity, F_q[t]/(p) at finite places of the line and at split and
ramified places of the curve, and the quadratic extension of F_q[t]/(p)
by a root of f at inert places -- and decides its square class by
raising it to (Q - 1)/2.
"""

from __future__ import annotations

from typing import Tuple

from wildsets.base_algebra import (
    Poly,
    ResidueField,
    poly_deg,
    poly_divmod,
    poly_factor,
    poly_mul,
    poly_strip,
)
from wildsets.elliptic_curve import CurveFunction, CurvePlace, _pair_norm
from wildsets.local_symbols import ONE, PI, U


def _vp(g: Poly, p: Poly, F) -> int:
    """Exact power of p dividing g, with a huge sentinel when g = 0."""
    return poly_strip(g, p, F)[0] if g else 10 ** 9


def euler_jacobi(a, m, F):
    """(a/m) as the product of a^((|P|-1)/2) mod P over the factors P^e of m."""
    out = 1
    for P, e in poly_factor(m, F)[1]:
        RF = ResidueField(F, P)
        r = RF.reduce(a)
        if not r:
            return 0
        chi = 1 if RF.pow(r, (RF.size - 1) // 2) == (1,) else -1
        out *= chi ** e
    return out


class QuadExtField:
    """RF[y]/(y^2 - s) for a non-square s in the residue field RF.

    Elements are pairs (a, b) meaning a + b*y.
    """

    def __init__(self, rf: ResidueField, s: Poly):
        self.rf = rf
        self.s = rf.reduce(s)
        self.size = rf.size ** 2

    def one(self) -> Tuple[Poly, Poly]:
        return ((1,), ())

    def mul(self, x, y):
        a, b = x
        c, d = y
        rf = self.rf
        return (
            rf.add(rf.mul(a, c), rf.mul(rf.mul(b, d), self.s)),
            rf.add(rf.mul(a, d), rf.mul(b, c)),
        )

    def inv(self, x):
        a, b = x
        rf = self.rf
        # 1 / (a + b*y) = (a - b*y) / (a^2 - s b^2); the norm is nonzero
        norm = rf.sub(rf.mul(a, a), rf.mul(self.s, rf.mul(b, b)))
        n = rf.inv(norm)
        return (rf.mul(a, n), rf.neg(rf.mul(b, n)))

    def pow(self, x, e: int):
        if e < 0:
            return self.pow(self.inv(x), -e)
        r = self.one()
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def quad_char(self, x) -> int:
        if not x[0] and not x[1]:
            return 0
        v = self.pow(x, (self.size - 1) // 2)
        return 1 if v == self.one() else -1


def residue_field(place):
    """F_q at infinity, F_q[t]/(p) at a finite place of the line or at a
    split or ramified place of the curve, and its quadratic extension by
    a root of f mod p at an inert place."""
    if place.is_infinite:
        return place.field
    if not isinstance(place, CurvePlace):
        return ResidueField(place.field, place.poly)
    rf = ResidueField(place.field, place.base)
    if place.kind == "inert":
        return QuadExtField(rf, rf.reduce(place.model.f))
    return rf


def euler_char(place, x) -> int:
    """The quadratic character of a residue, as x^((Q-1)/2)."""
    K = residue_field(place)
    if place.is_infinite:
        if x == 0:
            return 0
        return 1 if K.pow(x, (K.q - 1) // 2) == 1 else -1
    if isinstance(K, QuadExtField):
        return K.quad_char(x)
    x = K.reduce(x)
    if not x:
        return 0
    return 1 if K.pow(x, (K.size - 1) // 2) == (1,) else -1


def euler_square_class(elem, place):
    """local_square_class by the Euler criterion on the unit residue."""
    chi = euler_char(place, unit_residue(elem, place))
    assert chi != 0, "unit residue of a nonzero function cannot vanish"
    return elem.ord_at(place) & PI | (U if chi < 0 else ONE)


def unit_residue(elem, place):
    """Residue of elem / uniformizer**ord in the residue field.

    Uniformizers are canonical, so this is well-defined and
    multiplicative; on the line at infinity it is the constant.
    """
    if isinstance(elem, CurveFunction):
        return _curve_unit_residue(elem, place)
    if place.is_infinite:
        return elem.constant
    rf = ResidueField(elem.field, place.poly)
    res = rf.reduce((elem.constant,))
    for p, e in elem.factors.items():
        if p != place.poly:
            res = rf.mul(res, rf.pow(rf.reduce(p), e))
    return res


def _curve_unit_residue(elem, place):
    K = residue_field(place)
    if place.kind == "infinite":
        res = elem.constant
    elif place.kind == "inert":
        res = (K.rf.reduce((elem.constant,)), ())
    else:
        res = K.reduce((elem.constant,))
    for atom, e in elem.factors.items():
        res = K.mul(res, K.pow(_atom_residue(atom, place, elem.model), e))
    return res


def _atom_residue(atom, place, model):
    kind, data = atom
    F = model.field
    if place.kind == "infinite":
        lcf = model.f[-1]
        if kind == "poly":
            return F.pow(lcf, -poly_deg(data))
        a, b = data
        if a and 2 * poly_deg(a) > 2 * poly_deg(b) + 3:
            return F.mul(a[-1], F.pow(lcf, -poly_deg(a)))
        return F.mul(b[-1], F.pow(lcf, -(poly_deg(b) + 1)))
    p = place.base
    rf = ResidueField(F, p)
    if kind == "poly":
        g = data
        if g != p:
            gbar = rf.reduce(g)
            return (gbar, ()) if place.kind == "inert" else gbar
        if place.kind == "split":
            return (1,)
        if place.kind == "inert":
            return ((1,), ())
        # ramified base: p = y^2 / (f/p)
        f1, r = poly_divmod(model.f, p, F)
        assert not r
        return rf.inv(rf.reduce(f1))
    a, b = data
    if place.kind == "inert":
        # primitive pairs are units at inert places
        return (rf.reduce(a), rf.reduce(b))
    if place.kind == "ramified":
        va, vb = _vp(a, p, F), _vp(b, p, F)
        f1, _ = poly_divmod(model.f, p, F)
        f1bar = rf.reduce(f1)
        if 2 * va <= 2 * vb + 1:
            a1, _ = poly_divmod(a, _poly_power(p, va, F), F)
            return rf.mul(rf.reduce(a1), rf.pow(f1bar, -va))
        b1, _ = poly_divmod(b, _poly_power(p, vb, F), F)
        return rf.mul(rf.reduce(b1), rf.pow(f1bar, -vb))
    # split
    abar, bbar = rf.reduce(a), rf.reduce(b)
    r = rf.add(abar, rf.mul(bbar, place.branch))
    if r:
        return r
    # the residue of the norm splits across the two branches
    n = _pair_norm(a, b, model)
    v = _vp(n, p, F)
    m, _ = poly_divmod(n, _poly_power(p, v, F), F)
    conj = rf.sub(abar, rf.mul(bbar, place.branch))
    return rf.mul(rf.reduce(m), rf.inv(conj))


def _poly_power(p: Poly, e: int, F) -> Poly:
    out: Poly = (1,)
    for _ in range(e):
        out = poly_mul(out, p, F)
    return out
