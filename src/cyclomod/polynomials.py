"""Univariate polynomials over a FieldSpec, with exact factorization.

A Polynomial stores its coefficients the way DenseMatrix stores its
rows: as canonical raw values, low degree first with no trailing zeros,
ints in [0, p) for GF(p) and Fractions for Q.  The zero polynomial has
no coefficients and degree -1.  The constructor unboxes its arguments
once, and `coeffs` and `leading` box on read.

All coefficient arithmetic is one small set of helpers on linalg's raw
operations (_trim, _padd, _pmul, _pdivmod), each taking a modulus m:
m = p for GF(p), m = p^k inside the Hensel lift, and m = 0 for exact
arithmetic over Q.  Division needs a divisor whose leading coefficient
is a unit modulo m.

Factorization routes:
  * GF(p): squarefree split, then Berlekamp.  The dimension r of the
    splitting algebra counts the irreducible factors, and its elements
    h split f until there are r pieces: by gcds with h and h + 1 for
    p = 2, and for odd p by Cantor-Zassenhaus, gcds with
    h^((p-1)/2) - 1 for seeded random h, so the cost grows with log p
    rather than p.
  * Q: squarefree split (Yun), clear denominators, factor modulo a good
    prime, Hensel lift to a coefficient bound, exhaustive subset
    recombination.
Factors are returned monic with multiplicities; the product times the
leading unit reconstructs the input.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd as int_gcd, isqrt

from .fields import FieldScalar, FieldSpec, QQ, _is_prime, gf
from .linalg import (
    DenseMatrix,
    _addmul,
    _box,
    _inv,
    _kernel_from_rref,
    _neg,
    _scale,
    _times,
    _unbox,
    _zero,
    rref,
)


# ---------------------------------------------------------------------------
# raw coefficient lists modulo m (m = 0: exact)


def _trim(a: list) -> list:
    """Drop trailing zeros in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _padd(m: int, a: list, c, b: list) -> list:
    """a + c*b as a new trimmed list."""
    out = list(a) + [_zero(m)] * (len(b) - len(a))
    if c:
        out[: len(b)] = _addmul(m, out[: len(b)], c, b)
    return _trim(out)


def _pmul(m: int, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_zero(m)] * (len(a) + len(b) - 1)
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = _addmul(m, out[i : i + nb], x, b)
    return _trim(out)


def _pdivmod(m: int, a: list, b: list):
    """Quotient and remainder of a by a nonzero b whose leading coefficient is a unit mod m."""
    db = len(b) - 1
    inv = _inv(m, b[-1])
    rem = list(a)
    quo = [_zero(m)] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        if c:
            q = quo[k] = _times(m, c, inv)
            rem[k : k + db + 1] = _addmul(m, rem[k : k + db + 1], _neg(m, q), b)
    return _trim(quo), _trim(rem[:db])


class Polynomial:
    __slots__ = ("field", "_raw")

    def __init__(self, field: FieldSpec, coeffs):
        self._store(field, _trim(_unbox(field, coeffs)))

    @classmethod
    def _from_raw(cls, field: FieldSpec, raw: list) -> "Polynomial":
        """A polynomial from trimmed canonical raw coefficients, which the caller hands over."""
        f = object.__new__(cls)
        f._store(field, raw)
        return f

    def _store(self, field: FieldSpec, raw: list):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_raw", raw)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        return _box(self.field, self._raw)

    @property
    def degree(self) -> int:
        return len(self._raw) - 1

    @property
    def is_zero(self) -> bool:
        return not self._raw

    @property
    def leading(self) -> FieldScalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldScalar(self.field, self._raw[-1])

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self._raw[-1] == 1

    def _check_field(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")

    def _new(self, raw: list) -> "Polynomial":
        return Polynomial._from_raw(self.field, raw)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        return self._new(_padd(self.field.characteristic, self._raw, 1, other._raw))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        p = self.field.characteristic
        return self._new(_padd(p, self._raw, _neg(p, 1), other._raw))

    def __neg__(self) -> "Polynomial":
        p = self.field.characteristic
        return self._new([_neg(p, a) for a in self._raw])

    def __mul__(self, other):
        p = self.field.characteristic
        if isinstance(other, (FieldScalar, int)):
            return self._new(_trim(_scale(p, self.field.scalar(other).value, self._raw)))
        self._check_field(other)
        return self._new(_pmul(p, self._raw, other._raw))

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _pdivmod(self.field.characteristic, self._raw, other._raw)
        return self._new(q), self._new(r)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot make the zero polynomial monic")
        if self.is_monic:
            return self
        p = self.field.characteristic
        return self._new(_scale(p, _inv(p, self._raw[-1]), self._raw))

    def derivative(self) -> "Polynomial":
        p = self.field.characteristic
        return self._new(_trim([_times(p, i, c) for i, c in enumerate(self._raw)][1:]))

    def evaluate_matrix(self, m: DenseMatrix) -> DenseMatrix:
        if m.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {m.field}")
        if not m.is_square:
            raise ValueError("polynomial of a non-square matrix")
        if self.is_zero:
            return DenseMatrix.zeros(self.field, m.rows, m.cols)
        # Horner from the leading coefficient: deg f products
        ident = DenseMatrix.identity(self.field, m.rows)
        acc = ident.scale(self._raw[-1])
        for c in reversed(self._raw[:-1]):
            acc = acc * m
            if c:
                acc = acc + ident.scale(c)
        return acc

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial powers")
        acc = Polynomial(self.field, [1])
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return other.field == self.field and other._raw == self._raw

    def __hash__(self) -> int:
        return hash((self.field, tuple(self._raw)))

    def sort_key(self):
        return (self.degree, tuple(self._raw))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._raw[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.field}, {self})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    a._check_field(b)
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def _pth_root(f: Polynomial, p: int) -> Polynomial:
    # over the prime field, (sum c_i t^{ip})^(1/p) has the same coefficients
    if any(c for i, c in enumerate(f._raw) if i % p):
        raise ValueError("polynomial is not a p-th power")
    return Polynomial._from_raw(f.field, f._raw[::p])


def squarefree_decomposition(f: Polynomial) -> list:
    """[(factor, multiplicity)] with the factors monic, squarefree, coprime.

    The product of factor^multiplicity equals f up to the leading unit.
    Characteristic p handles vanishing derivatives via p-th roots.
    """
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if f.degree == 0:
        return []
    f = f.monic()
    p = f.field.characteristic
    acc: dict[Polynomial, int] = {}

    def note(g: Polynomial, m: int):
        if g.degree > 0:
            acc[g] = acc.get(g, 0) + m

    if p == 0:
        df = f.derivative()
        g = poly_gcd(f, df)
        if g.degree == 0:
            return [(f, 1)]
        b = f.exact_div(g)
        c = df.exact_div(g)
        d = c - b.derivative()
        i = 1
        while b.degree > 0:
            a = poly_gcd(b, d)
            note(a, i)
            b = b.exact_div(a)
            c = d.exact_div(a)
            d = c - b.derivative()
            i += 1
    else:

        def sqf_p(f: Polynomial, scale: int):
            df = f.derivative()
            if df.is_zero:
                sqf_p(_pth_root(f, p), scale * p)
                return
            a = poly_gcd(f, df)
            b = f.exact_div(a)
            i = 1
            while b.degree > 0:
                c = poly_gcd(a, b)
                note(b.exact_div(c), i * scale)
                b = c
                a = a.exact_div(c)
                i += 1
            if a.degree > 0:
                sqf_p(_pth_root(a, p), scale * p)

        sqf_p(f, 1)

    out = sorted(acc.items(), key=lambda fm: fm[0].sort_key())
    return out


# ---------------------------------------------------------------------------
# Berlekamp factorization over GF(p)


def _poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    acc = Polynomial(base.field, [1])
    base = base % mod
    while e:
        if e & 1:
            acc = (acc * base) % mod
        base = (base * base) % mod if e > 1 else base
        e >>= 1
    return acc


def _gcd_split(u: Polynomial, a: Polynomial) -> list:
    """[gcd(u, a), u / gcd(u, a)] when the gcd is a proper factor of u, else [u]."""
    if u.degree == 1:
        return [u]
    g = poly_gcd(u, a)
    return [g, u.exact_div(g)] if 0 < g.degree < u.degree else [u]


def _berlekamp_splitting(f: Polynomial) -> list:
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    field = f.field
    p = field.characteristic
    d = f.degree
    if d == 1:
        return [f]
    # row i holds t^(i*p) mod f; fixed vectors of Frobenius span the
    # splitting algebra, whose dimension counts the irreducible factors
    xp = _poly_powmod(Polynomial(field, [0, 1]), p, f)
    rows = []
    power = Polynomial(field, [1])
    for i in range(d):
        rows.append(power._raw + [0] * (d - len(power._raw)))
        power = (power * xp) % f
    q = DenseMatrix._from_raw(field, rows, d)
    b = q - DenseMatrix.identity(field, d)
    kernel = _kernel_from_rref(field, d, rref(b.transpose()))
    r = len(kernel)
    factors = [f]
    if p == 2:
        # h^2 = h modulo f, so h and h + 1 share the factors of f between them
        for v in kernel:
            h = Polynomial._from_raw(field, _trim(v))
            for c in (0, 1):
                shifted = h - Polynomial(field, [c])
                factors = [g for u in factors for g in _gcd_split(u, shifted)]
            if len(factors) == r:
                break
    else:
        # Cantor-Zassenhaus: modulo each irreducible factor a random h of the
        # splitting algebra is a random constant, and h^((p-1)/2) is 1 for
        # about half of the nonzero ones
        rng = random.Random(0)
        one = Polynomial(field, [1])
        while len(factors) < r:
            h = [0] * d
            for v in kernel:
                c = rng.randrange(p)
                if c:
                    h = _addmul(p, h, c, v)
            h = Polynomial._from_raw(field, _trim(h))
            factors = [
                g for u in factors for g in _gcd_split(u, _poly_powmod(h, (p - 1) // 2, u) - one)
            ]
    if len(factors) != r:
        raise RuntimeError("Berlekamp splitting did not reach the kernel dimension")
    return sorted(factors, key=Polynomial.sort_key)


def factor_gfp(f: Polynomial) -> list:
    """Irreducible monic factors with multiplicity over a prime field."""
    if f.field.characteristic == 0:
        raise ValueError("factor_gfp needs a finite prime field")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out: dict[Polynomial, int] = {}
    for g, mult in squarefree_decomposition(f):
        for h in _berlekamp_splitting(g):
            out[h] = out.get(h, 0) + mult
    return sorted(out.items(), key=lambda fm: fm[0].sort_key())


# ---------------------------------------------------------------------------
# Rational factorization: integer coefficient lists, low degree first


def _zx_content(a: list) -> int:
    g = 0
    for c in a:
        g = int_gcd(g, abs(c))
    return g


def _zx_primitive(a: list) -> list:
    g = _zx_content(a)
    if g == 0:
        return []
    out = [c // g for c in a]
    if out and out[-1] < 0:
        out = [-c for c in out]
    return out


def _zx_quotient(b: list, a: list):
    """b / a over Z for a primitive a, or None when a does not divide b.

    By Gauss's lemma a primitive divisor over Q divides over Z, so the
    exact division over Q decides it and its quotient is integral.
    """
    q, r = _pdivmod(0, [Fraction(c) for c in b], [Fraction(c) for c in a])
    if r:
        return None
    return [int(c) for c in q]


def _symmetric_mod(c: int, m: int) -> int:
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _hensel_step(F: list, g: list, h: list, s: list, t: list, m2: int):
    """Lift F = g*h and s*g + t*h = 1 to mod m2, the square of their modulus (g, h monic)."""
    minus = _neg(m2, 1)
    e = _padd(m2, [c % m2 for c in F], minus, _pmul(m2, g, h))
    q, r = _pdivmod(m2, _pmul(m2, s, e), h)
    g1 = _padd(m2, _padd(m2, g, 1, _pmul(m2, t, e)), 1, _pmul(m2, q, g))
    h1 = _padd(m2, h, 1, r)
    b = _padd(m2, _padd(m2, _pmul(m2, s, g1), 1, _pmul(m2, t, h1)), minus, [1])
    c, d = _pdivmod(m2, _pmul(m2, s, b), h1)
    s1 = _padd(m2, s, minus, d)
    t1 = _padd(m2, _padd(m2, t, minus, _pmul(m2, t, b)), minus, _pmul(m2, c, g1))
    if g1[-1] != 1 or h1[-1] != 1:
        raise RuntimeError("Hensel step lost monicity")
    return g1, h1, s1, t1


def _gfp_extended_euclid(p: int, a: list, b: list):
    """s, t with s*a + t*b = 1 over GF(p), on raw coefficient lists."""
    minus = _neg(p, 1)
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(p, s0, minus, _pmul(p, q, s1))
        t0, t1 = t1, _padd(p, t0, minus, _pmul(p, q, t1))
    if len(r0) != 1:
        raise ValueError("polynomials are not coprime")
    inv = _inv(p, r0[0])
    return _scale(p, inv, s0), _scale(p, inv, t0)


def _hensel_lift_tree(F: list, factors: list, p: int, target: int) -> list:
    """Lift a monic coprime factorization of F from mod p to mod target = p^k."""
    if len(factors) == 1:
        return [[c % target for c in F]]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g = [1]
    for u in left:
        g = _pmul(p, g, u)
    h = [1]
    for u in right:
        h = _pmul(p, h, u)
    s, t = _gfp_extended_euclid(p, g, h)
    m = p
    while m < target:
        m = m * m
        g, h, s, t = _hensel_step(F, g, h, s, t, m)
    g = [c % target for c in g]
    h = [c % target for c in h]
    return _hensel_lift_tree(g, left, p, target) + _hensel_lift_tree(h, right, p, target)


def _choose_good_prime(g: list) -> int:
    # smallest prime keeping the leading coefficient and squarefreeness:
    # equivalently, not dividing lc(g) * disc(g)
    p = 2
    while True:
        if _is_prime(p) and g[-1] % p:
            gp = Polynomial(gf(p), g)
            if poly_gcd(gp, gp.derivative()).degree == 0:
                return p
        p += 1


def _factor_squarefree_q(g: Polynomial) -> list:
    """Monic irreducible factors of a monic squarefree g over Q."""
    if g.degree == 1:
        return [g]
    # clear denominators to a primitive integer polynomial
    lcm = 1
    for c in g._raw:
        lcm = lcm * c.denominator // int_gcd(lcm, c.denominator)
    G = _zx_primitive([int(c * lcm) for c in g._raw])
    p = _choose_good_prime(G)
    modular = [h._raw for h in _berlekamp_splitting(Polynomial(gf(p), G).monic())]
    if len(modular) == 1:
        return [g]
    # coefficient bound for lc(G) times any monic factor product
    d = len(G) - 1
    norm2 = isqrt(sum(c * c for c in G)) + 1
    bound = (2**d) * norm2 * abs(G[-1])
    target = p
    while target <= 2 * bound:
        target *= p
    lc_inv = pow(G[-1], -1, target)
    F = [c * lc_inv % target for c in G]
    F[-1] = 1
    lifted = _hensel_lift_tree(F, modular, p, target)
    # subset recombination against the shrinking integer polynomial
    pool = list(range(len(lifted)))
    found: list = []
    remaining = G
    size = 1
    while 2 * size <= len(pool):
        hit = None
        for combo in itertools.combinations(pool, size):
            cand = [remaining[-1] % target]
            for i in combo:
                cand = _pmul(target, cand, lifted[i])
            cand = _zx_primitive(_trim([_symmetric_mod(c, target) for c in cand]))
            if not cand:
                continue
            quotient = _zx_quotient(remaining, cand)
            if quotient is not None:
                hit = (combo, cand, quotient)
                break
        if hit is None:
            size += 1
            continue
        combo, cand, remaining = hit
        found.append(cand)
        pool = [i for i in pool if i not in combo]
    if len(remaining) > 1:
        found.append(_zx_primitive(remaining))
    out = [Polynomial._from_raw(QQ, [Fraction(c, h[-1]) for c in h]) for h in found]
    return sorted(out, key=Polynomial.sort_key)


def factor_q(f: Polynomial) -> list:
    """Irreducible monic factors with multiplicity over Q."""
    if f.field != QQ:
        raise ValueError("factor_q needs coefficients in Q")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out: dict[Polynomial, int] = {}
    for g, mult in squarefree_decomposition(f):
        for h in _factor_squarefree_q(g):
            out[h] = out.get(h, 0) + mult
    return sorted(out.items(), key=lambda fm: fm[0].sort_key())


def factor(f: Polynomial) -> list:
    """Field-dispatching irreducible factorization."""
    if f.degree == 1:
        return [(f.monic(), 1)]
    if f.field.characteristic == 0:
        return factor_q(f)
    return factor_gfp(f)
