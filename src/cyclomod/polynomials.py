"""Univariate polynomials over a FieldSpec, with exact factorization.

Coefficients are stored low degree first with no trailing zeros; the
zero polynomial has an empty coefficient tuple and degree -1.

Factorization routes:
  * GF(p): squarefree split, then Berlekamp.  Irreducibility of each
    output factor is certified by its Berlekamp algebra having
    dimension 1.
  * Q: squarefree split (Yun), clear denominators, factor modulo a good
    prime, Hensel lift to a coefficient bound, exhaustive subset
    recombination.
Factors are returned monic with multiplicities; the product times the
leading unit reconstructs the input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import Optional

from .fields import FieldScalar, FieldSpec, QQ, _is_prime, gf
from .linalg import DenseMatrix, SpanSolver, kernel_basis

DEFAULT_DEGREE_CAP = 32


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [field.scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def x(cls, field: FieldSpec) -> "Polynomial":
        return cls(field, [0, 1])

    @classmethod
    def constant(cls, field: FieldSpec, c) -> "Polynomial":
        return cls(field, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FieldScalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == self.field.one()

    def coefficient(self, k: int) -> FieldScalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def _check_field(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self.coefficient(i) - other.coefficient(i) for i in range(n)])

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldScalar) or isinstance(other, int):
            c = self.field.scalar(other)
            return Polynomial(self.field, [c * a for a in self.coeffs])
        self._check_field(other)
        if self.is_zero or other.is_zero:
            return Polynomial(self.field, [])
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial"):
        self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial(self.field, []), self
        inv = other.leading.inverse()
        quo = [self.field.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if c:
                q = c * inv
                quo[k] = q
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - q * b
        return Polynomial(self.field, quo), Polynomial(self.field, rem[: other.degree])

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
        inv = self.leading.inverse()
        return Polynomial(self.field, [inv * c for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> FieldScalar:
        x = self.field.scalar(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_matrix(self, m: DenseMatrix) -> DenseMatrix:
        if m.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {m.field}")
        if not m.is_square:
            raise ValueError("polynomial of a non-square matrix")
        acc = DenseMatrix.zeros(self.field, m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m
            if c:
                ident = DenseMatrix.identity(self.field, m.rows).scale(c)
                acc = acc + ident
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
        return other.field == self.field and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == self.field.one() else f"{c}*{t}")
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
    coeffs = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            coeffs.append(c)
        elif c:
            raise ValueError("polynomial is not a p-th power")
    return Polynomial(f.field, coeffs)


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


def _berlekamp_splitting(f: Polynomial) -> list:
    """Monic irreducible factors of a monic squarefree f over GF(p)."""
    field = f.field
    p = field.characteristic
    d = f.degree
    if d == 1:
        return [f]
    # row i holds t^(i*p) mod f; fixed vectors of Frobenius span the
    # splitting algebra, whose dimension counts the irreducible factors
    xp = _poly_powmod(Polynomial.x(field), p, f)
    rows = []
    power = Polynomial(field, [1])
    for i in range(d):
        rows.append([power.coefficient(j) for j in range(d)])
        power = (power * xp) % f
    q = DenseMatrix(field, rows)
    b = q - DenseMatrix.identity(field, d)
    kernel = kernel_basis(b.transpose())
    r = len(kernel)
    if r == 1:
        return [f]
    factors = [f]
    consts = [field.scalar(c) for c in range(p)]
    for v in kernel:
        h = Polynomial(field, list(v))
        if h.degree < 1:
            continue
        next_factors = []
        for u in factors:
            if u.degree == 1:
                next_factors.append(u)
                continue
            pieces = []
            rest = u
            for c in consts:
                g = poly_gcd(rest, h - Polynomial.constant(field, c))
                if 0 < g.degree < rest.degree:
                    pieces.append(g)
                    rest = rest.exact_div(g)
                if rest.degree == 0:
                    break
            if rest.degree > 0:
                pieces.append(rest)
            next_factors.extend(pieces)
        factors = next_factors
        if len(factors) == r:
            break
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
# Rational factorization: integer polynomial helpers (coefficients low first)


def _zx_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zx_mul(a: list, b: list, mod: Optional[int] = None) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    if mod is not None:
        out = [c % mod for c in out]
    return _zx_trim(out)


def _zx_add(a: list, b: list, mod: Optional[int] = None) -> list:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    if mod is not None:
        out = [c % mod for c in out]
    return _zx_trim(out)


def _zx_sub(a: list, b: list, mod: Optional[int] = None) -> list:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    if mod is not None:
        out = [c % mod for c in out]
    return _zx_trim(out)


def _zx_divmod_monic(a: list, b: list, mod: int):
    """Divide by a monic b, all arithmetic mod `mod`."""
    a = [c % mod for c in a]
    db = len(b) - 1
    if len(a) < len(b):
        return [], _zx_trim(a)
    quo = [0] * (len(a) - db)
    rem = list(a)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db] % mod
        if c:
            quo[k] = c
            for i, bc in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bc) % mod
    return _zx_trim(quo), _zx_trim([c % mod for c in rem[:db]])


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


def _zx_divides(a: list, b: list) -> bool:
    """Exact division test of b by a over Z (both nonzero, a primitive)."""
    rem = list(b)
    da, db = len(a) - 1, len(rem) - 1
    if db < da:
        return False
    lead = a[-1]
    for k in range(db - da, -1, -1):
        c = rem[k + da]
        if c % lead:
            return False
        q = c // lead
        if q:
            for i, ac in enumerate(a):
                rem[k + i] -= q * ac
    return not any(rem)


def _zx_exact_div(a: list, b: list) -> list:
    """Exact quotient a / b over Z, assuming divisibility."""
    rem = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    lead = b[-1]
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db]
        q = c // lead
        quo[k] = q
        if q:
            for i, bc in enumerate(b):
                rem[k + i] -= q * bc
    if any(rem):
        raise ValueError("division is not exact")
    return _zx_trim(quo)


def _symmetric_mod(c: int, m: int) -> int:
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _hensel_step(F: list, g: list, h: list, s: list, t: list, m: int, m2: int):
    """Lift F = g*h and s*g + t*h = 1 from mod m to mod m2 = m^2 (g, h monic)."""
    e = _zx_sub([c % m2 for c in F], _zx_mul(g, h, m2), m2)
    q, r = _zx_divmod_monic(_zx_mul(s, e, m2), h, m2)
    g1 = _zx_add(g, _zx_add(_zx_mul(t, e, m2), _zx_mul(q, g, m2), m2), m2)
    h1 = _zx_add(h, r, m2)
    b = _zx_sub(_zx_add(_zx_mul(s, g1, m2), _zx_mul(t, h1, m2), m2), [1], m2)
    c, d = _zx_divmod_monic(_zx_mul(s, b, m2), h1, m2)
    s1 = _zx_sub(s, d, m2)
    t1 = _zx_sub(t, _zx_add(_zx_mul(t, b, m2), _zx_mul(c, g1, m2), m2), m2)
    if g1[-1] != 1 or h1[-1] != 1:
        raise RuntimeError("Hensel step lost monicity")
    return g1, h1, s1, t1


def _gfp_extended_euclid(field: FieldSpec, a: list, b: list):
    """s, t with s*a + t*b = 1 over GF(p), as int coefficient lists."""
    pa = Polynomial(field, a)
    pb = Polynomial(field, b)
    r0, r1 = pa, pb
    s0, s1 = Polynomial(field, [1]), Polynomial(field, [])
    t0, t1 = Polynomial(field, []), Polynomial(field, [1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise ValueError("polynomials are not coprime")
    inv = r0.coeffs[0].inverse()
    s0 = s0 * inv
    t0 = t0 * inv
    to_ints = lambda poly: [c.value for c in poly.coeffs]
    return to_ints(s0), to_ints(t0)


def _hensel_lift_tree(F: list, factors: list, p: int, target: int) -> list:
    """Lift a monic coprime factorization of F from mod p to mod target = p^k."""
    if len(factors) == 1:
        return [[c % target for c in F]]
    field = gf(p)
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    g = [1]
    for u in left:
        g = _zx_mul(g, u, p)
    h = [1]
    for u in right:
        h = _zx_mul(h, u, p)
    s, t = _gfp_extended_euclid(field, g, h)
    m = p
    while m < target:
        m2 = m * m
        g, h, s, t = _hensel_step(F, g, h, s, t, m, m2)
        m = m2
    g = [c % target for c in g]
    h = [c % target for c in h]
    return _hensel_lift_tree(g, left, p, target) + _hensel_lift_tree(h, right, p, target)


def _choose_good_prime(g: list) -> int:
    # smallest prime keeping the leading coefficient and squarefreeness:
    # equivalently, not dividing lc(g) * disc(g)
    p = 2
    while True:
        if _is_prime(p) and g[-1] % p:
            field = gf(p)
            gp = Polynomial(field, g)
            if poly_gcd(gp, gp.derivative()).degree == 0:
                return p
        p += 1


def _factor_squarefree_q(g: Polynomial) -> list:
    """Monic irreducible factors of a monic squarefree g over Q."""
    if g.degree == 1:
        return [g]
    field = g.field
    # clear denominators to a primitive integer polynomial
    lcm = 1
    for c in g.coeffs:
        lcm = lcm * c.value.denominator // int_gcd(lcm, c.value.denominator)
    G = _zx_primitive([int(c.value * lcm) for c in g.coeffs])
    p = _choose_good_prime(G)
    field_p = gf(p)
    monic_mod_p = Polynomial(field_p, G).monic()
    modular = [[c.value for c in h.coeffs] for h in _berlekamp_splitting(monic_mod_p)]
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
                cand = _zx_mul(cand, lifted[i], target)
            cand = _zx_trim([_symmetric_mod(c, target) for c in cand])
            if not cand:
                continue
            cand = _zx_primitive(cand)
            if _zx_divides(cand, remaining):
                hit = (combo, cand)
                break
        if hit is None:
            size += 1
            continue
        combo, cand = hit
        found.append(cand)
        remaining = _zx_exact_div(remaining, cand)
        pool = [i for i in pool if i not in combo]
    if len(remaining) > 1:
        found.append(_zx_primitive(remaining))
    out = []
    for h in found:
        lead = Fraction(h[-1])
        out.append(Polynomial(field, [Fraction(c) / lead for c in h]))
    return sorted(out, key=Polynomial.sort_key)


def factor_q(f: Polynomial, degree_cap: int = DEFAULT_DEGREE_CAP) -> list:
    """Irreducible monic factors with multiplicity over Q."""
    if f.field != QQ:
        raise ValueError("factor_q needs coefficients in Q")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > degree_cap:
        raise ValueError(f"degree cap exceeded: {f.degree} > {degree_cap}")
    if f.degree == 0:
        return []
    out: dict[Polynomial, int] = {}
    for g, mult in squarefree_decomposition(f):
        for h in _factor_squarefree_q(g):
            out[h] = out.get(h, 0) + mult
    return sorted(out.items(), key=lambda fm: fm[0].sort_key())


def factor(f: Polynomial, degree_cap: int = DEFAULT_DEGREE_CAP) -> list:
    """Field-dispatching irreducible factorization."""
    if f.field.characteristic == 0:
        return factor_q(f, degree_cap)
    return factor_gfp(f)


def min_poly(m: DenseMatrix) -> Polynomial:
    """Minimal polynomial via the first linear dependence among powers."""
    if not m.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    field = m.field
    n = m.rows
    solver = SpanSolver(field, n * n)
    power = DenseMatrix.identity(field, n)
    for k in range(n + 1):
        flat = power._flat()
        if not solver.add(flat):
            coords = solver.coordinates(flat)
            coeffs = [-c for c in coords] + [field.one()]
            return Polynomial(field, coeffs)
        power = power * m
    raise RuntimeError("no dependence among matrix powers up to the dimension")
