"""Arithmetic groundwork: finite fields, polynomials, residue fields.

Elements of F_q (q = p^k odd) are encoded as integers in range(q).  For
k = 1 this is the usual residue 0..p-1; for k > 1 the integer is read in
base p, digit i being the coefficient of x^i in F_p[x]/(modulus).  The
modulus is the first monic irreducible of degree k in the canonical
enumeration order, so the encoding is reproducible across runs.

Polynomials over F_q are tuples of element codes, lowest degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  All
polynomial helpers take the field as their last argument, e.g.
``poly_mul(f, g, F)``.  Their coefficient loops call no Fq method, in
one of two regimes.  Over a prime field the codes are plain ints:
products and differences accumulate unreduced and are reduced mod p
once, when a coefficient is read as a pivot and at the end.  Over an
extension field they are read from the field's tables, one row of the
multiplication table per scalar.  Remainders come from one reduction
loop, which writes a quotient only for poly_divmod; poly_mulmod hands
it a product that is neither reduced nor normalized.  Inverses come
from a table of q entries built with the field: from the logarithm
tables on extension fields, and by pairing a with a^(q-2) on prime
fields, which build no table of q^2 entries.

Quadratic characters modulo a polynomial come from one kernel,
``poly_jacobi``: the Jacobi symbol of F_q[t], computed by a Euclid
descent with quadratic reciprocity instead of a power to (Q-1)/2.
Residue fields F_q[t]/(m) are a small wrapper class over the same tuple
representation, with the arithmetic that square roots and Frobenius
orbits need.

Text is read by one recursive-descent parser of quotient expressions,
which hands back the product at the top of an expression as (base,
exponent) factors, so a caller that factors each base never multiplies
the product out.  rat_parse multiplies the factors out, and poly_parse
is rat_parse plus the check that the denominator is a nonzero constant.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "GF",
    "MAX_FIELD_SIZE",
    "checked_field",
    "Fq",
    "ResidueField",
    "poly_deg",
    "poly_norm",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_mul",
    "poly_scalar",
    "poly_divmod",
    "poly_mod",
    "poly_mulmod",
    "poly_gcd",
    "poly_pow_mod",
    "poly_strip",
    "poly_jacobi",
    "poly_eval",
    "poly_deriv",
    "poly_monic",
    "poly_is_irreducible",
    "poly_factor",
    "poly_from_int",
    "poly_to_int",
    "poly_str",
    "poly_parse",
    "irreducibles_of_degree",
]

Poly = Tuple[int, ...]


# ---------------------------------------------------------------------------
# base field contexts


def _int_factor_prime_power(q: int) -> Tuple[int, int]:
    """Write q as p**k with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError("field size must be a prime power >= 2")
    p = None
    for d in range(2, q + 1):
        if d * d > q:
            p = q
            break
        if q % d == 0:
            p = d
            break
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError("field size %d is not a prime power" % q)
    return p, k


class Fq:
    """The finite field with q elements, q an odd prime power.

    Do not instantiate directly; use GF(q) so contexts are shared.
    Characteristic two is rejected: square classes, quadratic characters
    and the non-square constant all need an odd field.
    """

    def __init__(self, q: int):
        p, k = _int_factor_prime_power(q)
        if p == 2:
            raise ValueError("characteristic 2 is not supported, got q = %d" % q)
        self.q = q
        self.p = p
        self.k = k
        self.modulus: Optional[Poly] = None
        if k > 1:
            # the first monic irreducible of degree k over F_p
            self.modulus = next(irreducibles_of_degree(GF(self.p), self.k))
            self._build_tables()
        else:
            # pair a with a^(q-2), so each power serves two codes
            self._inv = [0] * q
            for a in range(1, q):
                if not self._inv[a]:
                    b = pow(a, q - 2, q)
                    self._inv[a], self._inv[b] = b, a
        # the quadratic character of every code, read by quad_char
        self._chi = [0] + [-1] * (q - 1)
        for a in range(1, q):
            self._chi[self.mul(a, a)] = 1

    # -- construction helpers ------------------------------------------------

    def _build_tables(self) -> None:
        # Addition and negation act digit by digit in base p, so their
        # tables grow one digit at a time.  Multiplication goes through
        # discrete logarithms: a * b = g^(log a + log b) for a primitive g.
        p, q = self.p, self.q
        digit_add = [[(a + b) % p for b in range(p)] for a in range(p)]
        digit_neg = [(-a) % p for a in range(p)]
        codes = list(range(q))  # one int object per code for all q^2 entries
        add, neg, size = digit_add, digit_neg, p
        while size < q:
            add = [[codes[lo + size * hi] for hi in digit_add[a // size]
                    for lo in add[a % size]] for a in range(size * p)]
            neg = [lo + size * hi for hi in digit_neg for lo in neg]
            size *= p
        exp = self._antilogs()
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp += exp  # so that exp[la + lb] needs no reduction mod q - 1
        logs = log[1:]
        self._add = add
        self._neg = neg
        self._inv = [0] + [exp[q - 1 - la] for la in logs]
        self._mul = [[0] * q] + [[0] + [exp[la + lb] for lb in logs]
                                 for la in logs]

    def _antilogs(self) -> List[int]:
        """Codes of g^0, ..., g^(q-2) for the first primitive element g.

        Candidates run in code order from the generator x (code p); each
        walk of powers takes one product in F_p[x]/(modulus) per step.
        """
        Fp = GF(self.p)
        for code in range(self.p, self.q):
            g = poly_norm(_digits(code, self.p, self.k))
            out, power = [], (1,)
            while True:
                out.append(poly_to_int(power, Fp))
                power = poly_mulmod(power, g, self.modulus, Fp)
                if power == (1,):
                    break
            if len(out) == self.q - 1:
                return out
        raise AssertionError("no primitive element found")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.q)
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, b = 1, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def quad_char(self, a: int) -> int:
        """+1 for nonzero squares, -1 for non-squares, 0 for zero."""
        return self._chi[a]

    def nonsquare(self) -> int:
        """The least non-square element code (deterministic)."""
        return self._chi.index(-1)

    def sqrt(self, a: int) -> int:
        """A square root of a square a; raises ValueError for non-squares."""
        if a == 0:
            return 0
        if self.quad_char(a) != 1:
            raise ValueError("not a square in F_%d" % self.q)
        return _tonelli(a, self.q, 1, self.mul, self.pow, self.nonsquare())

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return "GF(%d)" % self.q


@functools.lru_cache(maxsize=None)
def GF(q: int) -> Fq:
    """Shared field context for F_q: one Fq per q, built on first use.

    Raises ValueError unless q is an odd prime power.
    """
    return Fq(q)


MAX_FIELD_SIZE = 1024


def checked_field(q) -> Fq:
    """GF(q) for a size read from untrusted input (flags, certificate files).

    Anything but an int that is an odd prime power up to MAX_FIELD_SIZE
    raises ValueError, so a huge or malformed size never reaches the
    table builder.
    """
    if isinstance(q, bool) or not isinstance(q, int) or q % 2 == 0 \
            or q > MAX_FIELD_SIZE:
        raise ValueError(
            "the field size must be an odd prime power up to %d, got %s"
            % (MAX_FIELD_SIZE, _quoted(q)))
    return GF(q)


def _digits(n: int, base: int, width: int) -> List[int]:
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def _tonelli(a, m: int, one, mul, powf, z):
    """Square root in a field of odd size m, given a non-square z."""
    if m % 4 == 3:
        return powf(a, (m + 1) // 4)
    s, t = 0, m - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    c = powf(z, t)
    x = powf(a, (t + 1) // 2)
    b = powf(a, t)
    while b != one:
        i, v = 0, b
        while v != one:
            v = mul(v, v)
            i += 1
        g = c
        for _ in range(s - i - 1):
            g = mul(g, g)
        x = mul(x, g)
        c = mul(g, g)
        b = mul(b, c)
        s = i
    return x


# ---------------------------------------------------------------------------
# polynomials over F_q


def poly_norm(f: Sequence[int]) -> Poly:
    """Strip trailing zero coefficients."""
    f = tuple(f)
    if f and not f[-1]:
        n = len(f) - 1
        while n and f[n - 1] == 0:
            n -= 1
        return f[:n]
    return f


def poly_deg(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(f: Poly, g: Poly, F: Fq) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    if not g:
        return poly_norm(f)
    if F.k == 1:
        p = F.p
        out = [(a + b) % p for a, b in zip(f, g)]
    else:
        add = F._add
        out = [add[a][b] for a, b in zip(f, g)]
    out.extend(f[len(g):])
    return poly_norm(out)


def poly_neg(f: Poly, F: Fq) -> Poly:
    if F.k == 1:
        p = F.p
        return tuple(p - c if c else 0 for c in f)
    neg = F._neg
    return tuple(neg[c] for c in f)


def poly_sub(f: Poly, g: Poly, F: Fq) -> Poly:
    if F.k == 1:
        p = F.p
        out = [(a - b) % p for a, b in zip(f, g)]
    else:
        add, neg = F._add, F._neg
        out = [add[a][neg[b]] for a, b in zip(f, g)]
    out.extend(f[len(g):])
    out.extend(poly_neg(g[len(f):], F))
    return poly_norm(out)


def poly_scalar(f: Poly, c: int, F: Fq) -> Poly:
    if c == 0:
        return ()
    if F.k == 1:
        p = F.p
        return poly_norm([a * c % p for a in f])
    row = F._mul[c]
    return poly_norm([row[a] for a in f])


def _product(f: Poly, g: Poly, F: Fq) -> List[int]:
    """The coefficients of f * g for nonzero f and g, not normalized;
    on prime fields plain unreduced integer sums of products."""
    out = [0] * (len(f) + len(g) - 1)
    if F.k == 1:
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return out
    add, mul = F._add, F._mul
    for i, a in enumerate(f):
        if a:
            row = mul[a]
            for j, b in enumerate(g, i):
                out[j] = add[out[j]][row[b]]
    return out


def poly_mul(f: Poly, g: Poly, F: Fq) -> Poly:
    if not f or not g:
        return ()
    out = _product(f, g, F)
    if F.k == 1:
        p = F.p
        return poly_norm([c % p for c in out])
    return poly_norm(out)


def _reduce(r: List[int], g: Poly, F: Fq,
            quotient: Optional[List[int]] = None) -> Poly:
    """The remainder of r modulo a nonzero g; r is consumed.

    On prime fields r may hold unreduced integers: a coefficient is
    reduced when it becomes a pivot, and the remainder once at the end.
    Given a list of len(r) - deg g zeros, the quotient is written into it.
    """
    dg = len(g) - 1
    # monic divisors (irreducibles, residue-field moduli) need no inverse
    inv_lc = 1 if g[-1] == 1 else F.inv(g[-1])
    low = g[:-1]
    if F.k == 1:
        p = F.p
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i] % p
            if c:
                if inv_lc != 1:
                    c = c * inv_lc % p
                if quotient is not None:
                    quotient[i - dg] = c
                for j, b in enumerate(low, i - dg):
                    r[j] -= c * b
        return poly_norm([c % p for c in r[:dg]])
    # extension fields: subtract c*g as c*(-g), one table row per pivot
    add, mul, neg = F._add, F._mul, F._neg
    low = [neg[b] for b in low]
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            if inv_lc != 1:
                c = mul[c][inv_lc]
            if quotient is not None:
                quotient[i - dg] = c
            row = mul[c]
            for j, b in enumerate(low, i - dg):
                r[j] = add[r[j]][row[b]]
    return poly_norm(r[:dg])


def poly_divmod(f: Poly, g: Poly, F: Fq) -> Tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), poly_norm(f)
    q = [0] * (len(f) - len(g) + 1)
    r = _reduce(list(f), g, F, q)
    return poly_norm(q), r


def poly_mod(f: Poly, g: Poly, F: Fq) -> Poly:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return poly_norm(f)
    return _reduce(list(f), g, F)


def poly_mulmod(f: Poly, g: Poly, m: Poly, F: Fq) -> Poly:
    """f * g mod m, the product reduced before it is normalized."""
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    if not f or not g:
        return ()
    return _reduce(_product(f, g, F), m, F)


def poly_monic(f: Poly, F: Fq) -> Poly:
    if not f or f[-1] == 1:
        return f
    return poly_scalar(f, F.inv(f[-1]), F)


def poly_gcd(f: Poly, g: Poly, F: Fq) -> Poly:
    while g:
        f, g = g, poly_mod(f, g, F)
    return poly_monic(f, F)


def poly_pow_mod(f: Poly, e: int, m: Poly, F: Fq) -> Poly:
    """f^e mod m for e >= 0, by left-to-right square-and-multiply."""
    if e < 0:
        raise ValueError("poly_pow_mod needs an exponent >= 0, got %d" % e)
    if e == 0:
        return (1,)
    b = poly_mod(f, m, F)
    r = b
    for bit in bin(e)[3:]:
        r = poly_mulmod(r, r, m, F)
        if bit == "1":
            r = poly_mulmod(r, b, m, F)
    return r


def poly_strip(f: Poly, g: Poly, F: Fq) -> Tuple[int, Poly]:
    """(e, f / g^e) for the largest e with g^e dividing f; f != 0, deg g >= 1.

    After the first division by g, it divides by g^e while that is
    exact, doubling e, then by the lower powers g^(e/2), ..., g where
    each still divides: e is read off in binary in about 2 log2(e)
    divisions, and a factor of multiplicity one costs two.
    """
    q, r = poly_divmod(f, g, F)
    if r:
        return 0, f
    f, e = q, 1
    powers = [g]  # g, g^2, g^4, ..., g^e
    while len(powers[-1]) <= len(f):
        q, r = poly_divmod(f, powers[-1], F)
        if r:
            break
        f, e = q, 2 * e
        powers.append(poly_mul(powers[-1], powers[-1], F))
    k = e
    for h in reversed(powers[:-1]):  # g^e does not divide f here
        k //= 2
        q, r = poly_divmod(f, h, F)
        if not r:
            f, e = q, e + k
    return e, f


def poly_eval(f: Poly, x: int, F: Fq) -> int:
    r = 0
    if F.k == 1:
        p = F.p
        for c in reversed(f):
            r = (r * x + c) % p
        return r
    add, row = F._add, F._mul[x]
    for c in reversed(f):
        r = add[row[r]][c]
    return r


def poly_deriv(f: Poly, F: Fq) -> Poly:
    # i mod p < p is its own element code, in the prime subfield
    return poly_norm(tuple(F.mul(f[i], i % F.p) for i in range(1, len(f))))


def poly_from_int(code: int, F: Fq) -> Poly:
    """Decode an integer to a polynomial; digit i (base q) = coefficient i."""
    out = []
    while code:
        out.append(code % F.q)
        code //= F.q
    return tuple(out)


def poly_to_int(f: Poly, F: Fq) -> int:
    code = 0
    for c in reversed(f):
        code = code * F.q + c
    return code


# ---------------------------------------------------------------------------
# irreducibility, enumeration, factorization
#
# Factorization is squarefree, distinct-degree, equal-degree; on fields of
# at most _ROOT_SCAN_MAX_Q elements a root stage reads the linear factors
# off F_q first, and only a rootless cofactor of degree >= 4 goes on to
# the distinct-degree stage, so a cubic needs no x^q power.  A single
# polynomial (a parsed place, a factor) is tested by the first block of
# the distinct-degree stage (Ben-Or's test); a whole degree is enumerated
# by a sieve over the codes, which runs no such test.  The distinct-degree
# stage raises x to the q-th power once; every later x^(q^d) is one
# product with the Frobenius rows x^(iq) mod f (von zur Gathen and Shoup,
# 1992), so a step costs about deg(f)^2 coefficient products whatever q.


def poly_is_irreducible(f: Poly, F: Fq) -> bool:
    """Ben-Or's test: f has no factor of degree at most deg f / 2.

    The distinct-degree stage meets the first such factor, repeated or
    not, within deg f / 2 Frobenius steps; an irreducible f is its own
    first block.
    """
    f = poly_monic(f, F)
    return poly_deg(f) >= 1 and next(_ddf(f, F)) == (f, poly_deg(f))


def irreducibles_of_degree(F: Fq, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d, in canonical (integer code) order.

    A sieve, with no irreducibility test: by unique factorization every
    reducible monic f of degree d is g*h with g monic irreducible of
    degree k <= d/2 (from this same sieve at degree k) and h monic of
    degree d - k.  Each such product is struck off a bytearray indexed
    by the code of f's d low coefficients, the cofactors h streamed
    from their coefficients, and the codes left standing are yielded in
    increasing order.
    """
    if d < 1:
        return
    q, top = F.q, F.q ** d
    struck = bytearray(top)
    for k in range(1, d // 2 + 1):
        for g in irreducibles_of_degree(F, k):
            for low in itertools.product(range(q), repeat=d - k):
                struck[poly_to_int(poly_mul(g, low + (1,), F), F) - top] = 1
    for code in range(top):
        if not struck[code]:
            yield tuple(_digits(code, q, d)) + (1,)


def _pth_root(f: Poly, F: Fq) -> Poly:
    # f is a polynomial in t^p; return its p-th root.
    out = []
    e = F.q // F.p  # x -> x^(q/p) inverts x -> x^p on F_q
    for i in range(0, len(f), F.p):
        out.append(F.pow(f[i], e) if f[i] else 0)
    return poly_norm(out)


def _squarefree_part(f: Poly, F: Fq) -> Poly:
    # monic f; returns the product of its distinct irreducible factors
    while True:
        fp = poly_deriv(f, F)
        if fp:
            g = poly_gcd(f, fp, F)
            return f if g == (1,) else poly_divmod(f, g, F)[0]
        f = _pth_root(f, F)


def _frobenius_rows(h: Poly, f: Poly, F: Fq) -> List[Poly]:
    # the rows x^(iq) mod f, i < deg f, from h = x^q mod f
    rows = [(1,), h]
    for _ in range(poly_deg(f) - 2):
        rows.append(poly_mulmod(h, rows[-1], f, F))
    return rows


def _frobenius(h: Poly, rows: List[Poly], F: Fq) -> Poly:
    # h^q mod f = h(x^q) mod f = sum of h_i * x^(iq) mod f, as h_i^q = h_i
    out = [0] * len(rows)
    if F.k == 1:
        for c, row in zip(h, rows):
            if c:
                for j, b in enumerate(row):
                    out[j] += c * b
        p = F.p
        return poly_norm([c % p for c in out])
    add, mul = F._add, F._mul
    for c, row in zip(h, rows):
        if c:
            m = mul[c]
            for j, b in enumerate(row):
                out[j] = add[out[j]][m[b]]
    return poly_norm(out)


def _ddf(f: Poly, F: Fq, rootless: bool = False) -> Iterator[Tuple[Poly, int]]:
    # distinct-degree: yields (product of the factors of degree d, d) by
    # increasing d, f squarefree monic; for any monic f of degree >= 1 the
    # first block holds the distinct factors of its least degree.  h is
    # x^(q^d) mod f: one power for d = 1, then each step applies the
    # Frobenius map through the rows x^(iq) mod f, built at d = 2 and
    # reduced mod f when a block divides out.  rootless says f has no
    # root in F_q, so the gcd at d = 1 is 1 and is skipped; the power
    # is still taken, for the rows.
    h = (0, 1)
    rows: List[Poly] = []
    d = 0
    while poly_deg(f) > 0:
        d += 1
        if 2 * d > poly_deg(f):
            yield f, poly_deg(f)
            return
        if d == 1:
            h = poly_pow_mod(h, F.q, f, F)
            if rootless:
                continue
        else:
            if not rows:
                rows = _frobenius_rows(h, f, F)
            elif len(rows) > poly_deg(f):
                rows = [poly_mod(r, f, F) for r in rows[:poly_deg(f)]]
            h = _frobenius(h, rows, F)
        g = poly_gcd(poly_sub(h, (0, 1), F), f, F)
        if poly_deg(g) > 0:
            yield g, d
            f = poly_divmod(f, g, F)[0]
            h = poly_mod(h, f, F)


def _edf(f: Poly, d: int, F: Fq, rng: Callable[[], random.Random]) -> List[Poly]:
    # equal-degree splitting (Cantor-Zassenhaus, odd q); rng() gives the
    # generator, made only once a block has to be split
    n = poly_deg(f)
    if n == d:
        return [f]
    e = (F.q ** d - 1) // 2
    draw = rng().randrange
    while True:
        r = poly_norm(tuple(draw(F.q) for _ in range(n)))
        if poly_deg(r) < 1:
            continue
        w = poly_pow_mod(r, e, f, F)
        g = poly_gcd(poly_sub(w, (1,), F), f, F)
        if 0 < poly_deg(g) < n:
            rest = poly_divmod(f, g, F)[0]
            return _edf(g, d, F, rng) + _edf(rest, d, F, rng)


# The root stage runs on fields of at most this many elements.  Above it,
# scanning F_q costs more than the distinct-degree stage it saves, first
# for the longer polynomials: see the crossover table in BENCH_29.json.
_ROOT_SCAN_MAX_Q = 31


def _root_stage(f: Poly, F: Fq, found: Dict[Poly, int]) -> Poly:
    # Divides monic f by every power of t - a that divides it, for each
    # root a in F_q in code order, and adds t - a with that multiplicity
    # to found.  A simple root costs one division by t - a; a repeated
    # one is stripped by poly_strip.  The scan stops once the cofactor has
    # degree <= 1.  A cofactor of degree 1, 2 or 3 is then irreducible and
    # is added too.  Returns what is left to factor: (1,), or a cofactor
    # of degree >= 4 with no root.
    for a in range(F.q):
        if len(f) <= 2:
            break
        if poly_eval(f, a, F):
            continue
        g = (F.neg(a), 1)
        f, e = poly_divmod(f, g, F)[0], 1
        if not poly_eval(f, a, F):
            k, f = poly_strip(f, g, F)
            e += k
        found[g] = e
    if len(f) > 4:
        return f
    if len(f) > 1:
        found[f] = 1
    return (1,)


def poly_factor(f: Poly, F: Fq) -> Tuple[int, List[Tuple[Poly, int]]]:
    """Factor f as lc * prod(g_i^e_i); factors monic irreducible, sorted.

    On fields of at most _ROOT_SCAN_MAX_Q elements a root stage runs
    first: it evaluates f at each element a of F_q in code order and, at
    a root, divides out t - a (poly_strip takes the rest of a repeated
    root), until the cofactor has degree <= 1.
    A cofactor of degree 2 or 3 with no root is irreducible, since any
    factorization of it has a factor of degree 1.  A longer one, and
    every f over a larger field, goes through the squarefree,
    distinct-degree and equal-degree stages; after a root stage the
    distinct-degree stage skips its d = 1 gcd, as the cofactor has no
    root.  The equal-degree stage is randomized but seeded from the
    input, so the call is deterministic.  The generator is seeded on the
    first split it is asked for: most inputs need none.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc = f[-1]
    f = poly_monic(f, F)
    seed = ("poly_factor", F.q, f)
    made: List[random.Random] = []

    def rng() -> random.Random:
        if not made:
            made.append(random.Random(repr(seed)))
        return made[0]

    found: Dict[Poly, int] = {}
    rootless = F.q <= _ROOT_SCAN_MAX_Q
    if rootless:
        f = _root_stage(f, F, found)
    while poly_deg(f) > 0:
        s = _squarefree_part(f, F)
        for block, d in _ddf(s, F, rootless):
            for g in _edf(block, d, F, rng):
                e, f = poly_strip(f, g, F)
                found[g] = found.get(g, 0) + e
    out = sorted(found.items(), key=lambda it: (poly_deg(it[0]), poly_to_int(it[0], F)))
    return lc, out


# ---------------------------------------------------------------------------
# display and parsing of polynomials in t


def const_str(c: int, F: Optional[Fq] = None) -> str:
    """Render a field element code.

    Prime-subfield elements print as plain integers.  Elements of a proper
    extension print as parenthesized polynomials in the generator g, e.g.
    code 5 of GF(9) becomes '(g + 2)'.
    """
    if F is None or c < F.p:
        return str(c)
    return "(%s)" % poly_str(poly_norm(_digits(c, F.p, F.k)), "g")


def _coeff_str(c: int, i: int, var: str, F: Optional[Fq]) -> str:
    cs = const_str(c, F)
    if i == 0:
        return cs
    v = var if i == 1 else "%s^%d" % (var, i)
    if cs == "1":
        return v
    return "%s*%s" % (cs, v)


def poly_str(f: Poly, var: str = "t", F: Optional[Fq] = None) -> str:
    """Human-readable form, highest degree first, e.g. 't^2 + 4*t + 1'.

    Pass the field when coefficients may live outside the prime subfield;
    they are then written in terms of the generator g so the string can be
    parsed back.
    """
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        if f[i]:
            parts.append(_coeff_str(f[i], i, var, F))
    return " + ".join(parts) if parts else "0"


# parser values are dicts {y_degree: coefficient polynomial in t}

# Degree bound on every power and product in parsed text, in t and in y.
MAX_PARSED_DEGREE = 4096
# Bound on the nesting of parentheses in parsed text; each level costs
# the recursive-descent parser three stack frames.
MAX_PARSED_NESTING = 100


def _ydict_mul(a, b, F: Fq):
    out: Dict[int, Poly] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            s = poly_add(out.get(k, ()), poly_mul(c1, c2, F), F)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _ydict_pow(a, e: int, F: Fq):
    """a^e by square-and-multiply."""
    out: Dict[int, Poly] = {0: (1,)}
    while e:
        if e & 1:
            out = _ydict_mul(out, a, F)
        e >>= 1
        if e:
            a = _ydict_mul(a, a, F)
    return out


def _ydict_degrees(a) -> Optional[Tuple[int, int]]:
    """(degree in y, degree in t) of a nonzero value, None for zero.

    Over a field both are additive under products.
    """
    if not a:
        return None
    return max(a), max(map(len, a.values())) - 1


def _ydict_degree(a) -> int:
    """The larger of the degrees in t and in y; 0 for zero."""
    return max(_ydict_degrees(a) or (0,))


def _ydict_product(factors: List, F: Fq):
    """The product of the factors, multiplied as a balanced tree."""
    while len(factors) > 1:
        pairs = zip(factors[::2], factors[1::2])
        factors = ([_ydict_mul(a, b, F) for a, b in pairs]
                   + factors[len(factors) & ~1:])
    return factors[0]


def _ydict_add(a, b, F: Fq):
    out = dict(a)
    for k, c in b.items():
        s = poly_add(out.get(k, ()), c, F)
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _ydict_neg(a, F: Fq):
    return {k: poly_neg(c, F) for k, c in a.items()}


def _cut(text: str) -> str:
    """Text for an error message, cut after 60 characters."""
    if len(text) <= 60:
        return text
    return "%s... (%d characters)" % (text[:60], len(text))


def _quoted(value) -> str:
    """An input value for an error message: its repr, cut after 60
    characters (a string's after 60 of its own)."""
    if not isinstance(value, str):
        return _cut(repr(value))
    if len(value) <= 60:
        return repr(value)
    return "%r... (%d characters)" % (value[:60], len(value))


class _RatParser:
    """Recursive-descent parser for quotient expressions in t (and y).

    Values are fractions, i.e. pairs (numerator, denominator) of y-degree
    dicts; nothing is ever inverted during parsing, so the result is exact
    over any coefficient field.  ``parse`` returns the product at the top
    of the text as (base, exponent) factors, base^exponent each; a sum or
    a minus sign there makes it one base.  A product is multiplied out
    only where a sum, a sign or the parentheses around it need its value,
    and its degree is bounded from those of its factors.  Parsers with
    the same field and allow_y that share the dict ``groups`` parse each
    parenthesized group with no group inside once: it maps their texts
    to their values.
    """

    ONE = {0: (1,)}

    def __init__(self, s: str, F: Fq, allow_y: bool = False,
                 groups: Optional[Dict] = None):
        self.s = s.replace(" ", "")
        self.i = 0
        self.depth = 0
        self.F = F
        self.allow_y = allow_y
        self.groups = {} if groups is None else groups

    def error(self, msg: str):
        raise ValueError("bad polynomial %s: %s (at index %d)"
                         % (_quoted(self.s), msg, self.i))

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def at(self, chars: str) -> bool:
        c = self.peek()
        return bool(c) and c in chars

    def parse(self):
        factors = self.expr()
        if self.i != len(self.s):
            self.error("trailing input")
        return factors

    def expr(self):
        """The factors of a lone term; a sum or a negated term is one base."""
        sign = 1
        if self.at("+-"):
            sign = -1 if self.peek() == "-" else 1
            self.i += 1
        factors = self.term()
        if sign > 0 and not self.at("+-"):
            return factors
        v = _multiplied(factors, self.F)
        if sign < 0:
            v = (_ydict_neg(v[0], self.F), v[1])
        while self.at("+-"):
            op = self.peek()
            self.i += 1
            w = _multiplied(self.term(), self.F)
            if op == "-":
                w = (_ydict_neg(w[0], self.F), w[1])
            n = _ydict_add(_ydict_mul(v[0], w[1], self.F),
                           _ydict_mul(w[0], v[1], self.F), self.F)
            v = (n, _ydict_mul(v[1], w[1], self.F))
            self.bound_product(max(map(_ydict_degree, v)))
        return [(v, 1)]

    def term(self):
        """A product of atoms, each checked against the degree bound as it
        is read."""
        factors = [self.atom()]
        while True:
            op = self.peek()
            if op in ("*", "/"):
                self.i += 1
            elif not self.at("t(yg"):
                return factors
            base, e = self.atom()
            if op == "/":
                if e > 0 and not base[0]:
                    self.error("division by zero")
                e = -e
            if len(factors) == 1:
                num_deg, den_deg = _power_degrees(*factors[0])  # dens are nonzero
            factors.append((base, e))
            n, d = _power_degrees(base, e)
            # zero times anything is zero, of degree 0
            num_deg = num_deg and n and (num_deg[0] + n[0], num_deg[1] + n[1])
            den_deg = (den_deg[0] + d[0], den_deg[1] + d[1])
            self.bound_product(max(den_deg + (num_deg or ())))

    def bound_product(self, degree: int) -> None:
        """Refuse a product whose degree is above MAX_PARSED_DEGREE."""
        if degree > MAX_PARSED_DEGREE:
            self.error("the product has degree %d, above the bound %d"
                       % (degree, MAX_PARSED_DEGREE))

    def atom(self):
        """One atom with its exponent, as a (base, exponent) factor."""
        c = self.peek()
        if c == "(":
            self.depth += 1
            if self.depth > MAX_PARSED_NESTING:
                self.error("parentheses nested deeper than %d"
                           % MAX_PARSED_NESTING)
            end = self.s.find(")", self.i) + 1
            group = self.s[self.i:end]
            v = self.groups.get(group)
            if v is None:
                self.i += 1
                v = _multiplied(self.expr(), self.F)
                if self.peek() != ")":
                    self.error("expected ')'")
                self.i += 1
                if self.i == end:  # no group nested inside
                    self.groups[group] = v
            else:
                self.i = end
            self.depth -= 1
            return self.power(v)
        if c == "t":
            self.i += 1
            return self.power(({0: (0, 1)}, self.ONE))
        if c == "y":
            if not self.allow_y:
                self.error("'y' not allowed here")
            self.i += 1
            return self.power(({1: (1,)}, self.ONE))
        if c == "g":
            if self.F.k == 1:
                self.error("'g' is only defined over extension fields")
            self.i += 1
            # the generator's code is p: digits (0, 1) in base p
            return self.power(({0: (self.F.p,)}, self.ONE))
        if c.isdigit():
            j = self.i
            while self.peek().isdigit():
                self.i += 1
            # integer literals live in the prime subfield
            code = int(self.s[j:self.i]) % self.F.p
            num = {0: (code,)} if code else {}
            return self.power((num, self.ONE))
        self.error("unexpected character %r" % c)

    def power(self, v):
        if self.peek() != "^":
            return v, 1
        e, negative = self.exponent(max(map(_ydict_degree, v)))
        if negative:
            if e and not v[0]:
                self.error("division by zero")
            e = -e
        return v, e

    def exponent(self, degree: int) -> Tuple[int, bool]:
        """The exponent after '^', and whether a minus sign preceded it.

        A power of a value of the given degree must stay within
        MAX_PARSED_DEGREE, so that no input text asks for more work than
        its length and that bound allow.
        """
        self.i += 1
        negative = self.peek() == "-"
        if negative:
            self.i += 1
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i:
            self.error("expected exponent")
        e = int(self.s[j:self.i])
        if degree * e > MAX_PARSED_DEGREE:
            self.error("the power has degree %d, above the bound %d"
                       % (degree * e, MAX_PARSED_DEGREE))
        return e, negative


def _power_degrees(base, e: int):
    """The _ydict_degrees of the numerator and the denominator of base^e."""
    if e < 0:
        base, e = base[::-1], -e
    if not e:
        return (0, 0), (0, 0)
    return tuple(d and (d[0] * e, d[1] * e) for d in map(_ydict_degrees, base))


def _multiplied(factors: List, F: Fq):
    """The fraction that (base, exponent) factors multiply out to."""
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    halves: Tuple[List, List] = ([], [])
    for base, e in factors:
        for half, out in zip(base if e >= 0 else base[::-1], halves):
            out.append(_ydict_pow(half, abs(e), F))
    return tuple(_ydict_product(out, F) for out in halves)


def rat_parse(s: str, F: Fq, allow_y: bool = False):
    """Parse a quotient expression into a (numerator, denominator) pair.

    Both halves are dicts {y_degree: coefficient polynomial}; with the
    default allow_y=False only y-degree 0 can appear.  The denominator is
    guaranteed nonzero, the numerator may be zero (an empty dict).
    """
    return _multiplied(_RatParser(s, F, allow_y).parse(), F)


def poly_parse(s: str, F: Fq) -> Poly:
    """Parse a polynomial in t with integer coefficients (reduced mod q).

    The text is read as a quotient expression whose denominator must be
    a nonzero constant, which the numerator is then divided by.
    """
    num, den = rat_parse(s, F)
    den = den[0]
    if len(den) != 1:
        raise ValueError("bad polynomial %s: the denominator %s is not a "
                         "constant" % (_quoted(s), poly_str(den, "t", F)))
    return poly_scalar(num.get(0, ()), F.inv(den[0]), F)


# ---------------------------------------------------------------------------
# quadratic characters and residue fields


def poly_jacobi(a: Poly, m: Poly, F: Fq) -> int:
    """The Jacobi symbol (a/m) for a monic m of positive degree.

    It is 0 when a and m share a factor, and otherwise the product of
    the quadratic characters of a modulo the irreducible factors of m,
    so for an irreducible m it is the character of F_q[t]/(m).  The
    value comes from a Euclid descent on two rules: a constant c gives
    chi(c)^deg(m), and monic coprime A and M satisfy the reciprocity law
    (A/M)(M/A) = (-1)^((q-1)/2 * deg A * deg M) (Rosen, Number Theory in
    Function Fields, ch. 3).  Modulo a degree-one m = t - r the symbol is
    the character of the value a(r), read without the descent.
    """
    if len(m) == 2:
        return F.quad_char(poly_eval(a, F.neg(m[0]), F))
    sign = 1
    odd_half = F.q % 4 == 3  # whether (q-1)/2 is odd
    while True:
        a = poly_mod(a, m, F)
        if not a:
            return 0
        da, dm = len(a) - 1, len(m) - 1
        c = a[-1]
        if dm & 1 and F.quad_char(c) < 0:
            sign = -sign
        if da == 0:
            return sign
        if odd_half and da & dm & 1:
            sign = -sign
        if c != 1:
            a = poly_scalar(a, F.inv(c), F)
        a, m = m, a


# residue fields


class ResidueField:
    """F_q[t]/(m) for a monic irreducible m; elements are reduced tuples."""

    def __init__(self, F: Fq, modulus: Poly):
        self.F = F
        self.modulus = modulus
        self.deg = poly_deg(modulus)
        self.size = F.q ** self.deg

    def reduce(self, f: Poly) -> Poly:
        return poly_mod(f, self.modulus, self.F)

    def add(self, a: Poly, b: Poly) -> Poly:
        return poly_add(a, b, self.F)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return poly_sub(a, b, self.F)

    def neg(self, a: Poly) -> Poly:
        return poly_neg(a, self.F)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return poly_mulmod(a, b, self.modulus, self.F)

    def inv(self, a: Poly) -> Poly:
        """a^(Q - 2) for Q = size: the inverse, by Fermat."""
        a = self.reduce(a)
        if not a:
            raise ZeroDivisionError("inverse of zero in residue field")
        return poly_pow_mod(a, self.size - 2, self.modulus, self.F)

    def pow(self, a: Poly, e: int) -> Poly:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return poly_pow_mod(a, e, self.modulus, self.F)

    def quad_char(self, a: Poly) -> int:
        """+1 / -1 / 0 on squares / non-squares / zero."""
        return poly_jacobi(a, self.modulus, self.F)

    def nonsquare(self) -> Poly:
        for code in range(1, self.size):
            a = poly_from_int(code, self.F)
            if self.quad_char(a) == -1:
                return a
        raise AssertionError("no non-square found")

    def sqrt(self, a: Poly) -> Poly:
        a = self.reduce(a)
        if not a:
            return ()
        if self.quad_char(a) != 1:
            raise ValueError("not a square in the residue field")
        return _tonelli(a, self.size, (1,), self.mul, self.pow, self.nonsquare())

    def frobenius(self, a: Poly) -> Poly:
        return self.pow(a, self.F.q)

    def constant_down(self, a: Poly) -> Optional[int]:
        """The F_q element a equals, or None if a is not constant."""
        if poly_deg(a) > 0:
            return None
        return a[0] if a else 0
