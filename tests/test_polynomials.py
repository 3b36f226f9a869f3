"""Polynomial arithmetic, squarefree split, factorization, and the minimal-polynomial oracle."""

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
from cyclomod.polynomials import (
    Polynomial,
    factor,
    factor_gfp,
    factor_q,
    poly_gcd,
    squarefree_decomposition,
)


def poly(field, coeffs):
    return Polynomial(field, coeffs)


def reassemble(f, factors):
    prod = Polynomial(f.field, [f.leading])
    for g, m in factors:
        prod = prod * g**m
    return prod


def test_divmod_and_gcd():
    f = poly(QQ, [-1, 0, 1])  # t^2 - 1
    g = poly(QQ, [1, 1])  # t + 1
    q, r = divmod(f, g)
    assert q == poly(QQ, [-1, 1]) and r.is_zero
    assert poly_gcd(f, g) == g.monic()
    assert poly_gcd(poly(QQ, []), g) == g
    with pytest.raises(ZeroDivisionError):
        divmod(f, poly(QQ, []))


def test_derivative_char_p():
    f = poly(gf(3), [1, 0, 0, 2])  # 2t^3 + 1, derivative 6t^2 = 0
    assert f.derivative().is_zero
    assert poly(GF2, [0, 1, 1]).derivative() == poly(GF2, [1])


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
    f = poly(GF2, [1, 1]) ** 4
    assert squarefree_decomposition(f) == [(poly(GF2, [1, 1]), 4)]
    # mixed: t^2 (t^2+t+1)^3 over GF(2)
    f = poly(GF2, [0, 1]) ** 2 * poly(GF2, [1, 1, 1]) ** 3
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
            assert poly_gcd(g, g.derivative()).degree <= 0


def test_squarefree_yun_rationals():
    f = poly(QQ, [1, 1]) ** 2 * poly(QQ, [-2, 1]) ** 3 * poly(QQ, [1, 0, 1])
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
            if (g % h).is_zero:
                return False
    return True


def test_factor_gfp_trivial_example():
    f = poly(GF2, [0, 1]) * poly(GF2, [1, 1]) ** 2
    assert factor_gfp(f) == [(poly(GF2, [0, 1]), 1), (poly(GF2, [1, 1]), 2)]


def test_factor_gfp_seeded_degree6_gf5():
    # oracle: multiply back, then certify irreducibility by exhaustive divisor search
    field = gf(5)
    rng = random.Random(98)
    for _ in range(12):
        coeffs = [rng.randrange(5) for _ in range(6)] + [rng.randrange(1, 5)]
        f = poly(field, coeffs)
        factors = factor_gfp(f)
        assert reassemble(f, factors) == f
        for g, _ in factors:
            assert g.is_monic
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
    f = poly(field, [3])
    for g in expected:
        f = f * g
    start = time.perf_counter()
    factors = factor(f)
    assert time.perf_counter() - start < 1.0
    assert factors == sorted(((g, 1) for g in expected), key=lambda gm: gm[0].sort_key())


def test_factor_gfp_rejects_rationals():
    with pytest.raises(ValueError):
        factor_gfp(poly(QQ, [1, 1]))


def test_factor_q_trivial_examples():
    # (t^2+1)(t-3) expanded, both factors irreducible over Q
    f = poly(QQ, [1, 0, 1]) * poly(QQ, [-3, 1])
    assert factor_q(f) == [(poly(QQ, [-3, 1]), 1), (poly(QQ, [1, 0, 1]), 1)]
    # cyclotomic-style: t^4 + t^3 + t^2 + t + 1 irreducible
    f = poly(QQ, [1, 1, 1, 1, 1])
    assert factor_q(f) == [(f, 1)]
    # non-monic with rational coefficients
    f = poly(QQ, [Fraction(1, 2), 1]) * poly(QQ, [2, 1]) * 3
    got = factor_q(f)
    assert reassemble(f, got) == f
    assert all(g.is_monic for g, _ in got)


def test_factor_q_needs_recombination():
    # x^4 + 1 is irreducible over Q but splits modulo every prime
    f = poly(QQ, [1, 0, 0, 0, 1])
    assert factor_q(f) == [(f, 1)]
    # (x^2-2)(x^2-3): each quadratic stays whole only after recombination
    f = poly(QQ, [-2, 0, 1]) * poly(QQ, [-3, 0, 1])
    assert factor_q(f) == [(poly(QQ, [-3, 0, 1]), 1), (poly(QQ, [-2, 0, 1]), 1)]


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
        f = poly(QQ, [lead])
        for g in picks:
            f = f * g
        got = factor_q(f)
        assert reassemble(f, got) == f
        total = sum(g.degree * m for g, m in got)
        assert total == f.degree


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
        f = quadratic * cubic * QQ.scalar(Fraction(-3, 7))
        assert factor_q(f) == [(quadratic, 1), (cubic, 1)]
    assert primes and set(primes) == {2}


def test_factor_q_degree_cap():
    assert factor_q(poly(QQ, [0] * 33 + [1])) == [(poly(QQ, [0, 1]), 33)]


def test_factor_dispatch():
    assert factor(poly(GF2, [1, 1, 1])) == [(poly(GF2, [1, 1, 1]), 1)]
    assert factor(poly(QQ, [1, 2, 1])) == [(poly(QQ, [1, 1]), 2)]


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
            assert f.is_monic
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
        assert min_poly(m) == root**3
        assert min_poly(m, (n, n * n)) == root
        assert min_poly(m, (n * n,)) == root**2


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

    def check(got, want):
        assert got.field == field and got.coeffs == want
        assert all(type(c) is FieldScalar for c in got.coeffs)
        _assert_raw_canonical(got)

    check(f, fa)
    check(g, gb)
    check(f + g, oracles.boxed_poly_add(field, fa, gb))
    check(f - g, oracles.boxed_poly_add(field, fa, oracles.boxed_poly_scale(-field.one(), gb)))
    check(-f, oracles.boxed_poly_scale(-field.one(), fa))
    check(f * g, oracles.boxed_poly_mul(field, fa, gb))
    c = _oracle_coeffs(field, rng, 0)[0]
    check(f * field.scalar(c), oracles.boxed_poly_scale(field.scalar(c), fa))
    if type(c) is int:
        check(c * f, oracles.boxed_poly_scale(field.scalar(c), fa))
    check(f.derivative(), oracles.boxed_poly_derivative(fa))
    check(poly_gcd(f, g), oracles.boxed_poly_gcd(field, fa, gb))
    k = rng.randrange(4)
    check(f**k, oracles.boxed_poly_pow(field, fa, k))
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
    else:
        q, r = divmod(f, g)
        want_q, want_r = oracles.boxed_poly_divmod(field, fa, gb)
        check(q, want_q)
        check(r, want_r)
        check(f // g, want_q)
        check(f % g, want_r)
    if not f.is_zero:
        check(f.monic(), oracles.boxed_poly_monic(fa))
        assert f.leading == fa[-1]
    n = rng.randrange(4)
    m = DenseMatrix(field, [_oracle_coeffs(field, rng, n - 1) for _ in range(n)], cols=n)
    assert f.evaluate_matrix(m).entries == oracles.boxed_poly_of_matrix(field, fa, m)
