"""Method-call polynomial arithmetic: the test oracle for the F_q[t] kernel.

The package's polynomial helpers work on plain ints over prime fields
and on table rows over extension fields, and Fq.inv reads a table.  This
module keeps the route they replaced: every coefficient operation is a
call of an Fq method, and an inverse is the power a^(q-2) by
square-and-multiply.  Above the coefficient loops it keeps the plain
forms of the modular helpers: a remainder read off a division that
builds the quotient too, a product reduced only after it is formed, a
power that starts from 1 and squares once past its top bit, a
distinct-degree stage that raises to the q-th power at every degree
and takes every gcd (the d = 1 gcd of a rootless input too), and a
strip that divides out one power at a time.  `install` swaps
these functions into `wildsets.base_algebra`, so that the higher
helpers built on them (gcd, factor, jacobi, irreducibility, residue
fields) can be run on the old route too.

`poly_factor` is the factorization with no root stage: every input goes
through the squarefree, distinct-degree and equal-degree stages of
`wildsets.base_algebra`, on small fields as on large ones.  It is the
reference the root stage is held to, and `install` leaves it out.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from wildsets import base_algebra
from wildsets.base_algebra import Fq, Poly, poly_deg


def field_pow(F: Fq, a: int, e: int) -> int:
    if e < 0:
        return field_pow(F, field_inv(F, a), -e)
    r, b = 1, a
    while e:
        if e & 1:
            r = F.mul(r, b)
        b = F.mul(b, b)
        e >>= 1
    return r


def field_inv(F: Fq, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero in F_%d" % F.q)
    return field_pow(F, a, F.q - 2)


def poly_norm(f: Sequence[int]) -> Poly:
    """Strip trailing zero coefficients."""
    f = tuple(f)
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def poly_add(f: Poly, g: Poly, F: Fq) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return poly_norm(out)


def poly_neg(f: Poly, F: Fq) -> Poly:
    return tuple(F.neg(c) for c in f)


def poly_sub(f: Poly, g: Poly, F: Fq) -> Poly:
    return poly_add(f, poly_neg(g, F), F)


def poly_scalar(f: Poly, c: int, F: Fq) -> Poly:
    if c == 0:
        return ()
    return poly_norm(tuple(F.mul(a, c) for a in f))


def poly_mul(f: Poly, g: Poly, F: Fq) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_norm(out)


def poly_divmod(f: Poly, g: Poly, F: Fq) -> Tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = poly_deg(g)
    # monic divisors (irreducibles, residue-field moduli) need no inverse
    inv_lc = 1 if g[-1] == 1 else field_inv(F, g[-1])
    q = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        if inv_lc != 1:
            c = F.mul(c, inv_lc)
        q[i - dg] = c
        for j, b in enumerate(g):
            r[i - dg + j] = F.sub(r[i - dg + j], F.mul(c, b))
    return poly_norm(q), poly_norm(r)


def poly_eval(f: Poly, x: int, F: Fq) -> int:
    r = 0
    for c in reversed(f):
        r = F.add(F.mul(r, x), c)
    return r


def poly_mod(f: Poly, g: Poly, F: Fq) -> Poly:
    return poly_divmod(f, g, F)[1]


def poly_mulmod(f: Poly, g: Poly, m: Poly, F: Fq) -> Poly:
    return poly_mod(poly_mul(f, g, F), m, F)


def poly_pow_mod(f: Poly, e: int, m: Poly, F: Fq) -> Poly:
    # never returns for e < 0, since -1 >> 1 is -1
    r, b = (1,), poly_mod(f, m, F)
    while e:
        if e & 1:
            r = poly_mod(poly_mul(r, b, F), m, F)
        b = poly_mod(poly_mul(b, b, F), m, F)
        e >>= 1
    return r


def poly_strip(f: Poly, g: Poly, F: Fq) -> Tuple[int, Poly]:
    """(e, f / g^e) for the largest e with g^e dividing f; f != 0, deg g >= 1."""
    e = 0
    while True:
        q, r = poly_divmod(f, g, F)
        if r:
            return e, f
        f, e = q, e + 1


def _ddf(f: Poly, F: Fq, rootless: bool = False) -> Iterator[Tuple[Poly, int]]:
    # distinct-degree, x^(q^d) mod f as a fresh q-th power at every d;
    # the gcd at d = 1 is taken even when rootless says it is 1
    h = (0, 1)
    d = 0
    while poly_deg(f) > 0:
        d += 1
        if 2 * d > poly_deg(f):
            yield f, poly_deg(f)
            return
        h = poly_pow_mod(h, F.q, f, F)
        g = base_algebra.poly_gcd(poly_sub(h, (0, 1), F), f, F)
        if poly_deg(g) > 0:
            yield g, d
            f = poly_divmod(f, g, F)[0]
            h = poly_mod(h, f, F)


def poly_factor(f: Poly, F: Fq) -> Tuple[int, List[Tuple[Poly, int]]]:
    """poly_factor by the distinct-degree route alone, on every field."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    ba = base_algebra
    lc = f[-1]
    f = ba.poly_monic(f, F)
    seed = ("poly_factor", F.q, f)
    made: List[random.Random] = []

    def rng() -> random.Random:
        if not made:
            made.append(random.Random(repr(seed)))
        return made[0]

    found: dict = {}
    while poly_deg(f) > 0:
        s = ba._squarefree_part(f, F)
        for block, d in ba._ddf(s, F):
            for g in ba._edf(block, d, F, rng):
                e, f = ba.poly_strip(f, g, F)
                found[g] = found.get(g, 0) + e
    out = sorted(found.items(),
                 key=lambda it: (poly_deg(it[0]), ba.poly_to_int(it[0], F)))
    return lc, out


KERNEL = ("poly_norm", "poly_add", "poly_neg", "poly_sub", "poly_scalar",
          "poly_mul", "poly_divmod", "poly_eval", "poly_mod", "poly_mulmod",
          "poly_pow_mod", "poly_strip", "_ddf")


def install(monkeypatch) -> None:
    """Run base_algebra on this module's kernel until the test ends."""
    for name in KERNEL:
        monkeypatch.setattr(base_algebra, name, globals()[name])
    monkeypatch.setattr(Fq, "inv", field_inv)
