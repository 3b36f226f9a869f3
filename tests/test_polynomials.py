"""The raw polynomial kernel, squarefree split, factorization, and the minimal-polynomial oracle."""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import min_poly
from cyclomod import endo, polynomials
from cyclomod.fields import GF2, QQ, FieldScalar, gf
from cyclomod.linalg import DenseMatrix, _primitive, _QVector, _qvector
from cyclomod.polynomials import Polynomial, factor


def poly(field, coeffs):
    return Polynomial(field, coeffs)


# Over GF(p) the raw kernel helpers take f._raw itself; over Q they take
# integer lists, so these helpers run them on the numerators of f._raw
# and put the denominators back.


def _den(f):
    return getattr(f._raw, "den", 1)


def _wrap(field, raw, d=1):
    """A Polynomial from a helper's output: raw GF(p) values, or over Q integers over d."""
    return Polynomial._from_raw(field, raw if field.characteristic else _qvector(raw, d))


def mul(f, *gs):
    p = f.field.characteristic
    return functools.reduce(
        lambda acc, g: _wrap(f.field, polynomials._pmul(p, acc._raw, g._raw), _den(acc) * _den(g)), gs, f
    )


def power(f, k):
    return mul(poly(f.field, [1]), *[f] * k)


def monic(f):
    if f.field.characteristic or f.is_zero:
        return _wrap(f.field, polynomials._monic(f.field.characteristic, f._raw))
    return _wrap(f.field, f._raw, f._raw[-1])


def derivative(f):
    return _wrap(f.field, polynomials._deriv(f.field.characteristic, f._raw), _den(f))


def poly_gcd(a, b):
    """The monic gcd; over Q made monic from the primitive integer gcd of the numerators."""
    return monic(_wrap(a.field, polynomials._gcd(a.field.characteristic, a._raw, b._raw)))


def primitive(f):
    """The integer list, primitive with a positive lead, that a nonzero f over Q stands for."""
    g = _primitive(list(f._raw))
    return g if g[-1] > 0 else [-c for c in g]


def sort_key(f):
    return (f.degree, [c.value for c in f.coeffs])


def squarefree_decomposition(f):
    """The raw squarefree split of f as sorted (monic Polynomial, multiplicity) pairs."""
    p = f.field.characteristic
    parts = polynomials._squarefree(p, monic(f)._raw if p else primitive(f))
    return sorted(((monic(_wrap(f.field, g)), k) for g, k in parts), key=lambda gk: sort_key(gk[0]))


def reassemble(f, factors):
    """The leading coefficient of f times the product of the g^m."""
    return mul(poly(f.field, f.coeffs[-1:]), *[power(g, m) for g, m in factors])


def test_divmod_and_gcd():
    # t^2 - 1 and t + 1: over Z the quotient is exact and the gcd primitive,
    # modulo 5 the same division by the long division of _pdivmod
    f, g = [-1, 0, 1], [1, 1]
    assert polynomials._zx_quotient(f, g) == [-1, 1]
    assert polynomials._pdivmod(5, [4, 0, 1], g) == ([4, 1], [])
    assert polynomials._pdivmod(5, [0, 0, 1], g) == ([4, 1], [1])
    assert polynomials._gcd(0, f, g) == g
    assert polynomials._gcd(0, [], g) == g
    assert polynomials._gcd(0, [], [-2, -4]) == [1, 2]
    assert poly_gcd(poly(QQ, f), poly(QQ, g)) == poly(QQ, g)
    assert poly_gcd(poly(QQ, []), poly(QQ, [Fraction(1, 2), 1])) == poly(QQ, [Fraction(1, 2), 1])


def test_q_gcd_with_contents_and_leads_other_than_one():
    # (gcd, a, b) on integer coefficients with content > 1 and leads other
    # than 1 or negative, a common factor or none, and a remainder sequence
    # of several steps; the gcd over Z is primitive with a positive lead
    cases = [
        ([1, 1], [-6, 0, 6], [4, 4]),
        ([1, 1], [-1, -1], [-2, -2]),
        ([], [], []),
        ([1], [3, 0, 9], [10, 5]),
        ([-3, 2], [-18, 12, -24, 16], [-12, 8, 6, -4]),
        ([1], [-5, 2, 8, -3, -3, 0, 1, 0, 1], [21, -9, -4, 0, 5, 0, 3]),  # Knuth's example
        ([1, 0, 1], [7, -14, 7, -14], [2, 0, 4, 0, 2]),
    ]
    for want, a, b in cases:
        got = polynomials._gcd(0, a, b)
        assert got == want and all(type(c) is int for c in got)
    # over Q: the gcd of the numerators, whatever the denominators, made monic
    a = poly(QQ, [Fraction(-9, 4), Fraction(3, 2), -3, 2])
    b = poly(QQ, [Fraction(2, 3), 0, Fraction(4, 3), 0, Fraction(2, 3)])
    assert poly_gcd(a, b) == poly(QQ, [1]) and poly_gcd(a, poly(QQ, [3, -2])) == poly(QQ, [Fraction(-3, 2), 1])


def test_derivative_char_p():
    f = poly(gf(3), [1, 0, 0, 2])  # 2t^3 + 1, derivative 6t^2 = 0
    assert derivative(f).is_zero
    assert derivative(poly(GF2, [0, 1, 1])) == poly(GF2, [1])


def test_evaluate_matrix():
    m = DenseMatrix(QQ, [[0, 1], [1, 0]])
    f = poly(QQ, [-1, 0, 1])  # t^2 - 1 kills the swap matrix
    assert f.evaluate_matrix(m).is_zero()
    g = poly(QQ, [2, 3])
    assert g.evaluate_matrix(m) == DenseMatrix(QQ, [[2, 3], [3, 2]])


def test_squarefree_trivial_t3_plus_t_gf2():
    # t^3 + t = t (t+1)^2 over GF(2)
    f = poly(GF2, [0, 1, 0, 1])
    got = squarefree_decomposition(f)
    assert got == [(poly(GF2, [0, 1]), 1), (poly(GF2, [1, 1]), 2)]


def test_squarefree_pth_power_route():
    # (t+1)^4 over GF(2) has zero derivative twice over
    f = power(poly(GF2, [1, 1]), 4)
    assert squarefree_decomposition(f) == [(poly(GF2, [1, 1]), 4)]
    # mixed: t^2 (t^2+t+1)^3 over GF(2)
    f = mul(power(poly(GF2, [0, 1]), 2), power(poly(GF2, [1, 1, 1]), 3))
    got = squarefree_decomposition(f)
    assert dict((str(g), m) for g, m in got) == {"t": 2, "t^2 + t + 1": 3}


def test_squarefree_seeded_quintics_gf3():
    # seeded random quintics over GF(3): multiply back, parts coprime and squarefree
    field = gf(3)
    rng = random.Random(4021)
    for _ in range(30):
        coeffs = [rng.randrange(3) for _ in range(5)] + [rng.randrange(1, 3)]
        f = poly(field, coeffs)
        parts = squarefree_decomposition(f)
        assert reassemble(f, parts) == f
        for (g, _), (h, _) in itertools.combinations(parts, 2):
            assert poly_gcd(g, h).degree == 0
        for g, _ in parts:
            assert poly_gcd(g, derivative(g)).degree <= 0


def test_squarefree_yun_rationals():
    f = mul(power(poly(QQ, [1, 1]), 2), power(poly(QQ, [-2, 1]), 3), poly(QQ, [1, 0, 1]))
    got = squarefree_decomposition(f)
    # deterministic order: by (degree, coefficients)
    assert got == [
        (poly(QQ, [-2, 1]), 3),
        (poly(QQ, [1, 1]), 2),
        (poly(QQ, [1, 0, 1]), 1),
    ]
    # over Z the parts stay primitive integer lists: (2t + 1)^2 (3t - 1) times 4
    f = [4 * c for c in polynomials._pmul(0, polynomials._pmul(0, [1, 2], [1, 2]), [-1, 3])]
    assert sorted(polynomials._squarefree(0, _primitive(f))) == [([-1, 3], 1), ([1, 2], 2)]


def exhaustive_irreducible_check(g):
    """No monic divisor of degree 1..deg/2, by exhaustive enumeration."""
    field = g.field
    p = field.characteristic
    for d in range(1, g.degree // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            h = Polynomial(field, list(tail) + [1])
            if not polynomials._pdivmod(p, g._raw, h._raw)[1]:
                return False
    return True


def test_factor_gfp_trivial_example():
    f = mul(poly(GF2, [0, 1]), power(poly(GF2, [1, 1]), 2))
    assert factor(f) == [(poly(GF2, [0, 1]), 1), (poly(GF2, [1, 1]), 2)]


def test_factor_gfp_seeded_degree6_gf5():
    # oracle: multiply back, then certify irreducibility by exhaustive divisor search
    field = gf(5)
    rng = random.Random(98)
    for _ in range(12):
        coeffs = [rng.randrange(5) for _ in range(6)] + [rng.randrange(1, 5)]
        f = poly(field, coeffs)
        factors = factor(f)
        assert reassemble(f, factors) == f
        for g, _ in factors:
            assert monic(g) == g
            assert exhaustive_irreducible_check(g)


@pytest.mark.parametrize("p", [1000003, 2147483647])
def test_factor_gfp_splits_over_large_primes(p):
    # distinct linear and quadratic factors: the Cantor-Zassenhaus split is
    # polynomial in log p, where trying every constant c in gcd(u, h - c)
    # would take p gcds
    field = gf(p)
    nonresidues = [a for a in range(2, 60) if pow(a, (p - 1) // 2, p) == p - 1][:2]
    expected = [poly(field, [-c, 1]) for c in (1, 2, 5, 7)]
    expected += [poly(field, [-a, 0, 1]) for a in nonresidues]  # t^2 - a is irreducible
    f = mul(poly(field, [3]), *expected)
    start = time.perf_counter()
    factors = factor(f)
    assert time.perf_counter() - start < 1.0
    assert factors == sorted(((g, 1) for g in expected), key=lambda gm: sort_key(gm[0]))


def test_factor_q_trivial_examples():
    # (t^2+1)(t-3) expanded, both factors irreducible over Q
    f = mul(poly(QQ, [1, 0, 1]), poly(QQ, [-3, 1]))
    assert factor(f) == [(poly(QQ, [-3, 1]), 1), (poly(QQ, [1, 0, 1]), 1)]
    # cyclotomic-style: t^4 + t^3 + t^2 + t + 1 irreducible
    f = poly(QQ, [1, 1, 1, 1, 1])
    assert factor(f) == [(f, 1)]
    # non-monic with rational coefficients
    f = mul(poly(QQ, [Fraction(1, 2), 1]), poly(QQ, [2, 1]), poly(QQ, [3]))
    got = factor(f)
    assert reassemble(f, got) == f
    assert all(monic(g) == g for g, _ in got)


def test_factor_q_needs_recombination():
    # x^4 + 1 is irreducible over Q but splits modulo every prime
    f = poly(QQ, [1, 0, 0, 0, 1])
    assert factor(f) == [(f, 1)]
    # (x^2-2)(x^2-3): each quadratic stays whole only after recombination
    f = mul(poly(QQ, [-2, 0, 1]), poly(QQ, [-3, 0, 1]))
    assert factor(f) == [(poly(QQ, [-3, 0, 1]), 1), (poly(QQ, [-2, 0, 1]), 1)]


def test_factor_q_seeded_products():
    rng = random.Random(314)
    pool = [
        poly(QQ, [1, 1]),
        poly(QQ, [-1, 1]),
        poly(QQ, [2, 1]),
        poly(QQ, [1, 0, 1]),
        poly(QQ, [-2, 0, 1]),
        poly(QQ, [1, 1, 1]),
        poly(QQ, [-1, 3, 1]),
    ]
    for _ in range(10):
        picks = [rng.choice(pool) for _ in range(rng.randrange(2, 5))]
        lead = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        f = mul(poly(QQ, [lead]), *picks)
        got = factor(f)
        assert reassemble(f, got) == f
        total = sum(g.degree * m for g, m in got)
        assert total == f.degree
    # t^12 - 1: six cyclotomic factors, recombined from more modular ones
    cyclotomic = [[-1, 1], [1, 1], [1, -1, 1], [1, 0, 1], [1, 1, 1], [1, 0, -1, 0, 1]]
    got = factor(poly(QQ, [-1] + [0] * 11 + [1]))
    assert sorted(g._raw for g, _ in got) == sorted(poly(QQ, c)._raw for c in cyclotomic)
    assert all(k == 1 for _, k in got)
    # a product whose integer form is not monic: its factors lead with 2, 3 and 1
    parts = [poly(QQ, [1, 2]), poly(QQ, [5, -1, 3]), poly(QQ, [-2, 0, 0, 1])]
    f = mul(poly(QQ, [Fraction(5, 7)]), *parts)
    assert sorted(g._raw for g, _ in factor(f)) == sorted(monic(g)._raw for g in parts)
    assert reassemble(f, factor(f)) == f


def test_zx_quotient_divides_exactly_on_integers():
    quotient = polynomials._zx_quotient
    # (2t + 1)(3t^2 - t + 5) = 6t^3 + t^2 + 9t + 5
    b = [5, 9, 1, 6]
    assert quotient(b, [1, 2]) == [5, -1, 3]
    assert quotient(b, [5, -1, 3]) == [1, 2]
    assert quotient(b, [1, 4]) is None          # 4 does not divide the leading 6
    assert quotient(b, [2, 1]) is None          # 2 does not divide the constant 5
    assert quotient(b, [5, 0, 3]) is None       # a step that does not divide by 3
    assert quotient(b, [1, 1]) is None          # exact steps, a remainder of -9
    # a divisor with a zero constant: t divides b only when b(0) = 0
    assert quotient([0, 3, 0, 6], [0, 1]) == [3, 0, 6]
    assert quotient(b, [0, 1]) is None


def test_factor_q_lifts_modulo_powers_of_two(monkeypatch):
    # 2 is the smallest good prime of both products, so the Hensel lift
    # runs modulo 2^k; in the second, t^2 + t + 2 = t (t + 1) mod 2 and
    # its two lifted factors must be recombined
    primes = []
    lift = polynomials._hensel_lift_tree

    def spy(F, factors, p, target):
        primes.append(p)
        return lift(F, factors, p, target)

    monkeypatch.setattr(polynomials, "_hensel_lift_tree", spy)
    cubic = poly(QQ, [1, 1, 0, 1])
    for quadratic in (poly(QQ, [1, 1, 1]), poly(QQ, [2, 1, 1])):
        f = mul(quadratic, cubic, poly(QQ, [Fraction(-3, 7)]))
        assert factor(f) == [(quadratic, 1), (cubic, 1)]
    assert primes and set(primes) == {2}


def test_factor_q_degree_cap():
    assert factor(poly(QQ, [0] * 33 + [1])) == [(poly(QQ, [0, 1]), 33)]


def test_factor_multiplicities_past_the_characteristic():
    # multiplicities 1..9 of known irreducibles, p | k included, so the
    # squarefree loop takes p-th roots, once and twice over GF(2) and GF(3)
    rng = random.Random(77)
    cases = {
        GF2: [[0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1]],
        gf(3): [[0, 1], [1, 1], [1, 0, 1], [1, 2, 0, 1]],
        QQ: [[0, 1], [2, 1], [-2, 0, 1], [1, 1, 1]],
    }
    for field, irreducibles in cases.items():
        for _ in range(8):
            picks = rng.sample(irreducibles, rng.randrange(1, 4))
            expected = sorted(((poly(field, g), rng.randrange(1, 10)) for g in picks), key=lambda gk: sort_key(gk[0]))
            f = mul(poly(field, [2 if field.characteristic != 2 else 1]), *[power(g, k) for g, k in expected])
            assert factor(f) == expected
            assert reassemble(f, squarefree_decomposition(f)) == f


def test_factor_dispatch():
    assert factor(poly(GF2, [1, 1, 1])) == [(poly(GF2, [1, 1, 1]), 1)]
    assert factor(poly(QQ, [1, 2, 1])) == [(poly(QQ, [1, 1]), 2)]
    assert factor(poly(gf(5), [3])) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        factor(poly(GF2, []))


def test_q_polynomials_are_one_raw_vector_whoever_makes_them():
    # (t + 1/3)(t + 1/2): monic factors over denominators, in the order of
    # the rationals 1/3 < 1/2, where the primitive lists 3t + 1 and 2t + 1
    # would order the other way
    third, half = poly(QQ, [Fraction(1, 3), 1]), poly(QQ, [Fraction(1, 2), 1])
    got = factor(poly(QQ, [Fraction(1, 6), Fraction(5, 6), 1]))
    assert got == [(third, 1), (half, 1)]
    assert str(got[0][0]) == "t + 1/3" and str(poly(QQ, [Fraction(-7, 2), 0, 2])) == "2*t^2 + -7/2"
    # t + 1/3 made by the constructor, _from_raw, the minimal polynomial of
    # the 1x1 matrix (-1/3), and factor; and the zero polynomial made twice
    from_min_poly = endo._min_poly(DenseMatrix(QQ, [[Fraction(-1, 3)]]))[0]
    made = [
        [third, Polynomial._from_raw(QQ, _qvector([1, 3], 3)), from_min_poly, got[0][0]],
        [poly(QQ, []), poly(QQ, [0, Fraction(0)]), Polynomial._from_raw(QQ, _qvector([]))],
    ]
    for same in made:
        for f in same:
            assert type(f._raw) is _QVector
            assert f == same[0] and hash(f) == hash(same[0])
    assert str(made[1][0]) == "0" and made[1][0].coeffs == ()
    # every maker hands over a _QVector: a plain list is a different value
    assert Polynomial._from_raw(QQ, []) != poly(QQ, [])
    # the constructor trims a copy of a raw vector, not the vector itself
    v = _qvector([1, 2, 0], 3)
    assert poly(QQ, v) == poly(QQ, [Fraction(1, 3), Fraction(2, 3)]) and v == _qvector([1, 2, 0], 3)


def test_min_poly_three_cycle():
    # powers of the 3-cycle: I, c, c^2 independent, c^3 = I
    field = QQ
    c = DenseMatrix(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert min_poly(c) == poly(field, [-1, 0, 0, 1])
    i = DenseMatrix.identity(field, 3)
    one = c
    two = c * c
    assert two * c == i
    from cyclomod.linalg import SpanSolver

    solver = SpanSolver(field, 9)
    assert all(solver.add(oracles.flat(v)) for v in (i, one, two))


def test_min_poly_divides_and_annihilates():
    rng = random.Random(10)
    for field in (GF2, gf(5), QQ):
        for _ in range(10):
            n = rng.randrange(1, 5)
            if field.is_rational:
                m = DenseMatrix(field, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
            else:
                p = field.characteristic
                m = DenseMatrix(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            f = min_poly(m)
            assert not f.is_zero and monic(f) == f
            assert f.evaluate_matrix(m).is_zero()
            assert f.degree <= n
            # minimality: powers below the degree stay independent
            from cyclomod.linalg import SpanSolver

            solver = SpanSolver(field, n * n)
            power = DenseMatrix.identity(field, n)
            for _ in range(f.degree):
                assert solver.add(oracles.flat(power))
                power = power * m


def test_min_poly_modulo_a_span():
    # a 3x3 Jordan block aI + N: (t - a)^3 in all, t - a modulo span(N, N^2)
    for field, a in ((QQ, Fraction(-2, 3)), (gf(5), 4)):
        n = DenseMatrix(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        m = DenseMatrix.identity(field, 3).scale(a) + n
        root = poly(field, [-field.scalar(a), 1])
        assert min_poly(m) == power(root, 3)
        assert min_poly(m, (n, n * n)) == root
        assert min_poly(m, (n * n,)) == power(root, 2)


def test_min_poly_nilpotent():
    n = DenseMatrix(QQ, [[0, 1], [0, 0]])
    assert min_poly(n) == poly(QQ, [0, 0, 1])
    assert min_poly(DenseMatrix.identity(QQ, 4)) == poly(QQ, [-1, 1])


ORACLE_FIELDS = (GF2, gf(3), gf(2147483647), QQ)


def _oracle_coeffs(field, rng, degree):
    """degree + 1 coefficients with some zeros; GF(p) ints are shifted by p so they need reducing."""
    p = field.characteristic
    out = []
    for i in range(degree + 1):
        if rng.random() < 0.3:
            out.append(0)
        elif p:
            out.append(rng.randrange(p) + p * (i % 3 - 1))
        else:
            out.append(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)))
    if out and rng.random() < 0.5:
        out[-1] = field.one()
    return out


def _assert_raw_canonical(f):
    p = f.field.characteristic
    assert not f._raw or f._raw[-1]
    assert all(type(c) is int for c in f._raw)
    if p:
        assert all(0 <= c < p for c in f._raw)
    else:
        assert type(f._raw) is _QVector and f._raw.den > 0 and gcd(f._raw.den, *f._raw) == 1


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    field=st.sampled_from(ORACLE_FIELDS),
    da=st.integers(min_value=-1, max_value=6),
    db=st.integers(min_value=-1, max_value=4),
)
def test_raw_polynomial_kernel_matches_boxed_reference(seed, field, da, db):
    rng = random.Random(seed)
    a, b = _oracle_coeffs(field, rng, da), _oracle_coeffs(field, rng, db)
    f, g = Polynomial(field, a), Polynomial(field, b)
    fa = oracles.boxed_poly_trim(field.scalar(x) for x in a)
    gb = oracles.boxed_poly_trim(field.scalar(x) for x in b)
    p = field.characteristic

    def check(raw, want):
        got = _wrap(field, raw)
        assert got.coeffs == want
        assert all(type(c) is FieldScalar for c in got.coeffs)
        _assert_raw_canonical(got)

    assert f.coeffs == fa and g.coeffs == gb
    _assert_raw_canonical(f)
    _assert_raw_canonical(g)
    if p:
        x, y, xa, yb = f._raw, g._raw, fa, gb
        c = field.scalar(_oracle_coeffs(field, rng, 0)[0])
    else:
        # over Q the helpers run on integer lists: the numerators of f and g,
        # checked against the boxed reference on the same integer polynomials
        x, y = list(f._raw), list(g._raw)
        xa, yb = [oracles.boxed_poly_trim(field.scalar(v) for v in r) for r in (x, y)]
        c = field.scalar(rng.randrange(-9, 10))
    check(polynomials._padd(p, x, 1, y), oracles.boxed_poly_add(field, xa, yb))
    minus = oracles.boxed_poly_scale(-field.one(), yb)
    # int() of a GF(p) value, or of an integer over Q
    check(polynomials._padd(p, x, int((-field.one()).value), y), oracles.boxed_poly_add(field, xa, minus))
    check(polynomials._padd(p, [], int(c.value), x), oracles.boxed_poly_scale(c, xa))
    check(polynomials._pmul(p, x, y), oracles.boxed_poly_mul(field, xa, yb))
    check(polynomials._deriv(p, x), oracles.boxed_poly_derivative(xa))
    if p:
        check(polynomials._gcd(p, x, y), oracles.boxed_poly_gcd(field, xa, yb))
    else:
        # the gcd over Z is primitive with a positive lead, and its monic
        # multiple is the gcd over Q; besides the pairs above, whose gcd is
        # mostly 1, give it a common factor h and integer multiples, so
        # contents are > 1 and leads are not 1
        h = list(Polynomial(field, _oracle_coeffs(field, rng, rng.randrange(3)))._raw)
        pairs = [(x, y), (polynomials._pmul(p, [6 * v for v in x], h), polynomials._pmul(p, [-10 * v for v in y], h))]
        for u, v in pairs:
            got = polynomials._gcd(p, u, v)
            assert all(type(e) is int for e in got) and (not got or (got[-1] > 0 and gcd(*got) == 1))
            boxed = [oracles.boxed_poly_trim(field.scalar(e) for e in r) for r in (u, v)]
            assert monic(_wrap(field, got)).coeffs == oracles.boxed_poly_gcd(field, *boxed)
    if not g.is_zero:
        if p:
            q, r = polynomials._pdivmod(p, x, y)
            want_q, want_r = oracles.boxed_poly_divmod(field, xa, yb)
            check(q, want_q)
            check(r, want_r)
            k = rng.randrange(1, 4)
            want = oracles.boxed_poly_divmod(field, oracles.boxed_poly_pow(field, xa, k), yb)[1]
            check(polynomials._powmod(p, x, k, y), want)
        elif x:
            # over Z division serves exact quotients by a primitive divisor
            divisor = primitive(g)
            assert polynomials._zx_quotient(polynomials._pmul(p, x, divisor), divisor) == x
    if p and not f.is_zero:
        check(polynomials._monic(p, x), oracles.boxed_poly_monic(xa))
    n = rng.randrange(4)
    m = DenseMatrix(field, [_oracle_coeffs(field, rng, n - 1) for _ in range(n)], cols=n)
    assert f.evaluate_matrix(m).entries == oracles.boxed_poly_of_matrix(field, fa, m)
