"""Univariate polynomials over a FieldSpec, with exact factorization.

A Polynomial stores its coefficients the way DenseMatrix stores its
rows: as canonical raw values, low degree first with no trailing zeros,
ints in [0, p) for GF(p) and Fractions for Q.  The zero polynomial has
no coefficients and degree -1.  The constructor unboxes its arguments
once, and `coeffs` boxes on read.

All coefficient arithmetic is one small set of helpers on linalg's raw
operations (_trim, _padd, _pmul, _pdivmod, and on them _monic, _deriv,
_gcd, _powmod), each taking a modulus m: m = p for GF(p), m = p^k
inside the Hensel lift, and m = 0 for exact arithmetic over Q.
Division needs a divisor whose leading coefficient is a unit modulo m.

Factorization: `factor` is the one entry point, and everything under
it works on raw coefficient lists with the modulus m of the field.
  * Squarefree split, one loop for every field (Musser's; von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 14): gcds with the
    derivative peel off the factors of each multiplicity that p does
    not divide.  What the loop leaves, or a polynomial whose derivative
    vanishes, is a p-th power over GF(p), and its p-th root is f[::p];
    over Q it leaves 1.
  * GF(p): Berlekamp.  The dimension r of the splitting algebra counts
    the irreducible factors, and its elements h split f until there
    are r pieces: by gcds with h and h + 1 for p = 2, and for odd p by
    Cantor-Zassenhaus, gcds with h^((p-1)/2) - 1 for seeded random h,
    so the cost grows with log p rather than p.
  * Q: clear denominators, factor modulo a good prime, Hensel lift to
    a coefficient bound, exhaustive subset recombination.
Factors are returned monic with multiplicities; the product times the
leading unit reconstructs the input.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from .fields import FieldSpec, _is_prime, gf
from .linalg import (
    DenseMatrix,
    _addmul,
    _box,
    _clear_denominators,
    _inv,
    _kernel_from_rref,
    _neg,
    _one,
    _primitive,
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


def _monic(m: int, a: list) -> list:
    """a scaled to leading coefficient 1; the zero polynomial stays zero."""
    return a if not a or a[-1] == 1 else _scale(m, _inv(m, a[-1]), a)


def _deriv(m: int, a: list) -> list:
    return _trim([_times(m, i, c) for i, c in enumerate(a)][1:])


def _gcd(m: int, a: list, b: list) -> list:
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, _pdivmod(m, a, b)[1]
    return _monic(m, a)


def _powmod(m: int, a: list, e: int, f: list) -> list:
    """a^e modulo f."""
    acc = [_one(m)]
    a = _pdivmod(m, a, f)[1]
    while e:
        if e & 1:
            acc = _pdivmod(m, _pmul(m, acc, a), f)[1]
        if e > 1:
            a = _pdivmod(m, _pmul(m, a, a), f)[1]
        e >>= 1
    return acc


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return other.field == self.field and other._raw == self._raw

    def __hash__(self) -> int:
        return hash((self.field, tuple(self._raw)))

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


def _squarefree(m: int, f: list) -> list:
    """[(g, k)] with g monic, squarefree and coprime, and f the product of the g^k, for a monic f.

    Each pass peels off the factors whose multiplicity p does not divide:
    with a = gcd(f, f'), b = f / a holds each factor of f once, and
    b / gcd(a, b) the ones of multiplicity i at the i-th step.  What is
    left of a is a p-th power (1 over Q), whose p-th root the next pass
    splits with multiplicities scaled by p.
    """
    out = []
    scale = 1
    while True:
        a = _gcd(m, f, _deriv(m, f))
        b = _pdivmod(m, f, a)[0]
        i = 1
        while len(b) > 1:
            if len(a) == 1:
                # no multiplicity above i is left: b is the part of multiplicity i
                out.append((b, i * scale))
                break
            c = _gcd(m, a, b)
            g = _pdivmod(m, b, c)[0]
            if len(g) > 1:
                out.append((g, i * scale))
            b = c
            a = _pdivmod(m, a, c)[0]
            i += 1
        if len(a) == 1:
            return out
        f = a[::m]
        scale *= m


# ---------------------------------------------------------------------------
# Berlekamp factorization over GF(p)


def _gcd_split(p: int, u: list, a: list) -> list:
    """[gcd(u, a), u / gcd(u, a)] when the gcd is a proper factor of u, else [u]."""
    if len(u) == 2:
        return [u]
    g = _gcd(p, u, a)
    return [g, _pdivmod(p, u, g)[0]] if 1 < len(g) < len(u) else [u]


def _berlekamp(field: FieldSpec, f: list) -> list:
    """Monic irreducible factors of a monic squarefree f over field = GF(p)."""
    p = field.characteristic
    d = len(f) - 1
    if d == 1:
        return [f]
    # row i holds t^(i*p) mod f; fixed vectors of Frobenius span the
    # splitting algebra, whose dimension counts the irreducible factors
    xp = _powmod(p, [0, 1], p, f)
    rows = []
    power = [1]
    for i in range(d):
        rows.append(power + [0] * (d - len(power)))
        power = _pdivmod(p, _pmul(p, power, xp), f)[1]
    b = DenseMatrix._from_raw(field, rows, d) - DenseMatrix.identity(field, d)
    kernel = _kernel_from_rref(field, d, rref(b.transpose()))
    r = len(kernel)
    factors = [f]
    if p == 2:
        # h^2 = h modulo f, so h and h + 1 share the factors of f between them
        for v in kernel:
            h = _trim(list(v))
            for shifted in (h, _padd(p, h, 1, [1])):
                factors = [g for u in factors for g in _gcd_split(p, u, shifted)]
            if len(factors) == r:
                break
    else:
        # Cantor-Zassenhaus: modulo each irreducible factor a random h of the
        # splitting algebra is a random constant, and h^((p-1)/2) is 1 for
        # about half of the nonzero ones
        rng = random.Random(0)
        minus = _neg(p, 1)
        while len(factors) < r:
            h = [0] * d
            for v in kernel:
                c = rng.randrange(p)
                if c:
                    h = _addmul(p, h, c, v)
            h = _trim(h)
            factors = [
                g
                for u in factors
                for g in _gcd_split(p, u, _padd(p, _powmod(p, h, (p - 1) // 2, u), minus, [1]))
            ]
    if len(factors) != r:
        raise RuntimeError("Berlekamp splitting did not reach the kernel dimension")
    return factors


# ---------------------------------------------------------------------------
# Rational factorization: integer coefficient lists, low degree first
#
# Every integer polynomial here has a positive leading coefficient: G is
# a positive multiple of a monic g, a recombination candidate leads with
# lc(remaining) < target / 2, and exact quotients of such polynomials lead
# positive as well.  So _primitive needs no sign fix.


def _zx_quotient(b: list, a: list):
    """b / a over Z for a primitive a, or None when a does not divide b.

    By Gauss's lemma a primitive divisor over Q divides over Z, so the
    quotient is integral: a divisor's leading and constant coefficients
    divide b's, and every step of the long division divides exactly by
    the leading coefficient of a.  The first of these that fails turns a
    down, most candidates before any step.
    """
    if b[-1] % a[-1] or (b[0] % a[0] if a[0] else b[0]):
        return None
    da, lead = len(a) - 1, a[-1]
    rem = list(b)
    quo = [0] * (len(b) - da)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + da]
        if c:
            q, r = divmod(c, lead)
            if r:
                return None
            quo[k] = q
            rem[k : k + da + 1] = [x - q * y for x, y in zip(rem[k : k + da + 1], a)]
    return None if any(rem[:da]) else quo


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
            gp = [c % p for c in g]
            if len(_gcd(p, gp, _deriv(p, gp))) == 1:
                return p
        p += 1


def _factor_squarefree_q(g: list) -> list:
    """Monic irreducible factors of a monic squarefree g over Q."""
    if len(g) == 2:
        return [g]
    # clear denominators to a primitive integer polynomial
    G = _primitive(_clear_denominators([g])[0][0])
    p = _choose_good_prime(G)
    modular = _berlekamp(gf(p), _monic(p, [c % p for c in G]))
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
            cand = _primitive(_trim([_symmetric_mod(c, target) for c in cand]))
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
        found.append(remaining)
    return [[Fraction(c, h[-1]) for c in h] for h in found]


def factor(f: Polynomial) -> list:
    """Irreducible monic factors of f with multiplicity, by degree and then coefficients."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    m = field.characteristic
    out = []
    for g, k in _squarefree(m, _monic(m, f._raw)):
        out += [(h, k) for h in (_berlekamp(field, g) if m else _factor_squarefree_q(g))]
    out.sort(key=lambda hk: (len(hk[0]), hk[0]))
    return [(Polynomial._from_raw(field, h), k) for h, k in out]
