"""The raw polynomial kernel, squarefree split, factorization, and the minimal-polynomial oracle."""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import min_poly
from cyclomod import polynomials
from cyclomod.fields import GF2, QQ, FieldScalar, gf
from cyclomod.linalg import DenseMatrix
from cyclomod.polynomials import Polynomial, factor


def poly(field, coeffs):
    return Polynomial(field, coeffs)


def _on_raw(helper, f, *args):
    """A raw kernel helper applied to f's coefficients and args, as a Polynomial."""
    return Polynomial._from_raw(f.field, helper(f.field.characteristic, f._raw, *args))


def mul(f, *gs):
    return functools.reduce(lambda acc, g: _on_raw(polynomials._pmul, acc, g._raw), gs, f)


def power(f, k):
    return mul(poly(f.field, [1]), *[f] * k)


def monic(f):
    return _on_raw(polynomials._monic, f)


def derivative(f):
    return _on_raw(polynomials._deriv, f)


def poly_gcd(a, b):
    return _on_raw(polynomials._gcd, a, b._raw)


def sort_key(f):
    return (f.degree, f._raw)


def squarefree_decomposition(f):
    """The raw squarefree split of f as sorted (Polynomial, multiplicity) pairs."""
    parts = polynomials._squarefree(f.field.characteristic, monic(f)._raw)
    return sorted(((Polynomial._from_raw(f.field, g), k) for g, k in parts), key=lambda gk: sort_key(gk[0]))


def reassemble(f, factors):
    """The leading coefficient of f times the product of the g^m."""
    return mul(poly(f.field, f.coeffs[-1:]), *[power(g, m) for g, m in factors])


def test_divmod_and_gcd():
    f = poly(QQ, [-1, 0, 1])  # t^2 - 1
    g = poly(QQ, [1, 1])  # t + 1
    q, r = polynomials._pdivmod(0, f._raw, g._raw)
    assert q == poly(QQ, [-1, 1])._raw and not r
    assert poly_gcd(f, g) == monic(g)
    assert poly_gcd(poly(QQ, []), g) == g


def test_q_gcd_with_contents_and_leads_other_than_one():
    # (gcd, a, b) on integer coefficients with content > 1 and leads other
    # than 1, a common factor or none, and a remainder sequence of several steps
    cases = [
        ([1, 1], [-6, 0, 6], [4, 4]),
        ([], [], []),
        ([1], [3, 0, 9], [10, 5]),
        ([-Fraction(3, 2), 1], [-18, 12, -24, 16], [-12, 8, 6, -4]),
        ([1], [-5, 2, 8, -3, -3, 0, 1, 0, 1], [21, -9, -4, 0, 5, 0, 3]),  # Knuth's example
        ([1, 0, 1], [7, -14, 7, -14], [Fraction(2, 3), 0, Fraction(4, 3), 0, Fraction(2, 3)]),
    ]
    for want, a, b in cases:
        got = poly_gcd(poly(QQ, a), poly(QQ, b))
        assert got == poly(QQ, want) and all(type(c) is Fraction for c in got._raw)


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
    for c in f._raw:
        if p:
            assert type(c) is int and 0 <= c < p
        else:
            assert type(c) is Fraction


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
        got = Polynomial._from_raw(field, raw)
        assert got.coeffs == want
        assert all(type(c) is FieldScalar for c in got.coeffs)
        _assert_raw_canonical(got)

    check(f._raw, fa)
    check(g._raw, gb)
    check(polynomials._padd(p, f._raw, 1, g._raw), oracles.boxed_poly_add(field, fa, gb))
    minus = oracles.boxed_poly_scale(-field.one(), gb)
    check(polynomials._padd(p, f._raw, (-field.one()).value, g._raw), oracles.boxed_poly_add(field, fa, minus))
    c = field.scalar(_oracle_coeffs(field, rng, 0)[0])
    check(polynomials._padd(p, [], c.value, f._raw), oracles.boxed_poly_scale(c, fa))
    check(polynomials._pmul(p, f._raw, g._raw), oracles.boxed_poly_mul(field, fa, gb))
    check(polynomials._deriv(p, f._raw), oracles.boxed_poly_derivative(fa))
    check(polynomials._gcd(p, f._raw, g._raw), oracles.boxed_poly_gcd(field, fa, gb))
    if not p:
        # the gcd over Q runs on primitive integer lists: besides the pairs
        # above, whose gcd is mostly 1, give it a common factor h and
        # integer multiples, so contents are > 1 and leads are not 1
        h = Polynomial(field, _oracle_coeffs(field, rng, rng.randrange(3)))._raw
        fh = polynomials._pmul(p, [6 * c for c in f._raw], h)
        gh = polynomials._pmul(p, [Fraction(-10, 7) * c for c in g._raw], h)
        boxed = [oracles.boxed_poly_trim(field.scalar(x) for x in r) for r in (fh, gh)]
        check(polynomials._gcd(p, fh, gh), oracles.boxed_poly_gcd(field, *boxed))
    if not g.is_zero:
        q, r = polynomials._pdivmod(p, f._raw, g._raw)
        want_q, want_r = oracles.boxed_poly_divmod(field, fa, gb)
        check(q, want_q)
        check(r, want_r)
        k = rng.randrange(1, 4)
        want = oracles.boxed_poly_divmod(field, oracles.boxed_poly_pow(field, fa, k), gb)[1]
        check(polynomials._powmod(p, f._raw, k, g._raw), want)
    if not f.is_zero:
        check(polynomials._monic(p, f._raw), oracles.boxed_poly_monic(fa))
    n = rng.randrange(4)
    m = DenseMatrix(field, [_oracle_coeffs(field, rng, n - 1) for _ in range(n)], cols=n)
    assert f.evaluate_matrix(m).entries == oracles.boxed_poly_of_matrix(field, fa, m)
