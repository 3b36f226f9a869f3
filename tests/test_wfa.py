"""Weighted automaton reduction against exhaustive word-weight oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclomod import GF2, QQ, gf
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.serialize import automaton_to_json, to_text
from cyclomod.linalg import DenseMatrix
from cyclomod.wfa import WeightedAutomaton, direct_sum, equivalent, minimize, scale

from oracles import all_words, boxed_apply, boxed_covering_tree, boxed_minimize, hankel_rank, naive_weight


def counting_automaton():
    """Counts occurrences of 'a'; minimal at dimension 2 over Q."""
    return WeightedAutomaton(
        QQ,
        ("a", "b"),
        [1, 0],
        {"a": [[1, 1], [0, 1]], "b": [[1, 0], [0, 1]]},
        [0, 1],
    )


def random_raw(rng, p, dim, alphabet):
    def entry():
        if rng.random() < 0.35:
            return 0
        if p == 0:
            return rng.randint(-3, 3)
        return rng.randint(0, p - 1)

    lam = [entry() for _ in range(dim)]
    gamma = [entry() for _ in range(dim)]
    mu = {a: [[entry() for _ in range(dim)] for _ in range(dim)] for a in alphabet}
    return lam, mu, gamma


def build(field, alphabet, raw):
    lam, mu, gamma = raw
    return WeightedAutomaton(field, alphabet, lam, mu, gamma)


def test_constructor_validation():
    with pytest.raises(ValueError):
        WeightedAutomaton(QQ, ("a", "a"), [1], {"a": [[1]]}, [1])
    with pytest.raises(ValueError):
        WeightedAutomaton(QQ, ("a",), [1, 0], {"a": [[1]]}, [1, 0])
    with pytest.raises(ValueError):
        WeightedAutomaton(QQ, ("a",), [1], {"a": [[1]]}, [1, 0])
    with pytest.raises(ValueError):
        WeightedAutomaton(QQ, ("a", "b"), [1], {"a": [[1]]}, [1])
    with pytest.raises(ValueError):
        WeightedAutomaton(QQ, ("a",), [1], {"a": [[1, 0]]}, [1])


def test_counting_weights():
    a = counting_automaton()
    assert a.weight("aaba").value == 3
    assert a.weight("").value == 0
    assert a.weight("bbb").value == 0
    assert a.weight("aaaa").value == 4
    with pytest.raises(ValueError):
        a.weight("ac")


def test_weight_matches_naive_oracle():
    rng = random.Random(4021)
    for field, p in [(GF2, 2), (gf(5), 5), (QQ, 0)]:
        for _ in range(8):
            raw = random_raw(rng, p, 3, ("a", "b"))
            a = build(field, ("a", "b"), raw)
            for w in all_words(("a", "b"), 3):
                assert a.weight(w).value == naive_weight(p, *raw, w)


def test_minimize_counting():
    a = counting_automaton()
    m = minimize(a)
    assert m.dim == 2
    doubled = direct_sum(a, a)
    assert doubled.dim == 4
    for w in all_words(("a", "b"), 4):
        assert doubled.weight(w) == a.weight(w) + a.weight(w)
    md = minimize(doubled)
    assert md.dim == 2
    for w in all_words(("a", "b"), 4):
        assert md.weight(w).value == 2 * a.weight(w).value


def test_direct_sum_is_the_block_diagonal_of_the_entries():
    rng = random.Random(77)
    for field, p in [(GF2, 2), (gf(3), 3), (QQ, 0)]:
        for dims in [(0, 0), (0, 2), (3, 0), (2, 3), (4, 1)]:
            a, b = (build(field, ("a", "b"), random_raw(rng, p, d, ("a", "b"))) for d in dims)
            total = direct_sum(a, b)
            assert total.lam == a.lam + b.lam and total.gamma == a.gamma + b.gamma
            zero = field.zero()
            for s in ("a", "b"):
                top = [list(r) + [zero] * b.dim for r in a.mu[s].entries]
                bottom = [[zero] * a.dim + list(r) for r in b.mu[s].entries]
                assert total.mu[s] == DenseMatrix(field, top + bottom, cols=a.dim + b.dim)
                for x in (x for row in total.mu[s].entries for x in row):
                    assert x.field == field
                    assert type(x.value) is (int if p else Fraction) and (not p or 0 <= x.value < p)
            for w in all_words(("a", "b"), 3):
                assert total.weight(w) == a.weight(w) + b.weight(w)
    a = build(GF2, ("a", "b"), random_raw(rng, 2, 2, ("a", "b")))
    with pytest.raises(ValueError, match="mixed fields"):
        direct_sum(a, build(gf(3), ("a", "b"), random_raw(rng, 3, 2, ("a", "b"))))
    with pytest.raises(ValueError, match="identical alphabets"):
        direct_sum(a, build(GF2, ("b", "a"), random_raw(rng, 2, 2, ("b", "a"))))


def test_minimize_dim_matches_hankel_oracle():
    rng = random.Random(515)
    for field, p in [(GF2, 2), (gf(3), 3), (QQ, 0)]:
        for _ in range(12):
            dim = rng.randint(1, 4)
            raw = random_raw(rng, p, dim, ("a", "b"))
            a = build(field, ("a", "b"), raw)
            m = minimize(a)
            assert m.dim == hankel_rank(p, *raw, ("a", "b"), dim)
            for w in all_words(("a", "b"), 3):
                assert m.weight(w).value == naive_weight(p, *raw, w)


def test_minimize_idempotent():
    rng = random.Random(516)
    for field, p in [(gf(7), 7), (QQ, 0)]:
        for _ in range(8):
            raw = random_raw(rng, p, 4, ("a", "b", "c"))
            a = build(field, ("a", "b", "c"), raw)
            m = minimize(a)
            again = minimize(m)
            assert again.dim == m.dim
            assert equivalent(m, a)


def test_equivalent_presentations():
    a = counting_automaton()
    # same series with a third state that is killed by every letter
    padded = WeightedAutomaton(
        QQ,
        ("a", "b"),
        [1, 0, 5],
        {
            "a": [[1, 1, 0], [0, 1, 0], [0, 0, 0]],
            "b": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        },
        [0, 1, 0],
    )
    assert equivalent(a, padded)
    assert not equivalent(a, scale(a, 2))
    with pytest.raises(ValueError):
        equivalent(a, WeightedAutomaton(QQ, ("a",), [1], {"a": [[1]]}, [1]))
    with pytest.raises(ValueError):
        equivalent(a, WeightedAutomaton(GF2, ("a", "b"), [1], {"a": [[1]], "b": [[1]]}, [1]))


def test_zero_automata():
    zero = WeightedAutomaton.zero(QQ, ("a", "b"))
    assert zero.dim == 0
    assert zero.weight("abba").value == 0
    dead_start = WeightedAutomaton(QQ, ("a",), [0, 0], {"a": [[0, 1], [1, 0]]}, [1, 1])
    assert minimize(dead_start).dim == 0
    dead_end = WeightedAutomaton(QQ, ("a",), [1, 1], {"a": [[0, 1], [1, 0]]}, [0, 0])
    assert minimize(dead_end).dim == 0
    assert equivalent(dead_end, WeightedAutomaton.zero(QQ, ("a",)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=14, max_size=14))
def test_minimize_preserves_weights_gf2(bits):
    # dim 2, alphabet {a, b}: 4 + 4 matrix bits, 2 lambda, 2 gamma -> 12, plus 2 spare
    lam = bits[0:2]
    gamma = bits[2:4]
    mu = {
        "a": [bits[4:6], bits[6:8]],
        "b": [bits[8:10], bits[10:12]],
    }
    a = WeightedAutomaton(GF2, ("a", "b"), lam, mu, gamma)
    m = minimize(a)
    assert m.dim <= a.dim
    for w in all_words(("a", "b"), 4):
        assert m.weight(w) == a.weight(w)
    assert minimize(m).dim == m.dim


def _columns(m):
    return list(zip(*m.entries))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GF2, gf(3), QQ]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([0.0, 0.25, 0.6]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_covering_trees_match_the_two_pass_boxed_oracle(field, dim, letters, density, zero_root, rng):
    # words, vectors and images of orbit_basis against the boxed tree that
    # reduces each successor with add and again with coordinates; density 0
    # gives zero generators, and zero_root a zero root
    p = field.characteristic

    def entry():
        if rng.random() >= density:
            return 0
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def vector():
        return [field.scalar(0 if zero_root else entry()) for _ in range(dim)]

    alphabet = ("a", "b")[:letters]
    mu = {s: DenseMatrix(field, [[entry() for _ in range(dim)] for _ in range(dim)], cols=dim) for s in alphabet}
    lam = vector()

    m = orbit_basis(AlgebraAction(field, list(mu.items()), dim=dim), lam)
    words, vectors, images, _ = boxed_covering_tree(
        field, dim, lam, alphabet, lambda s, v: boxed_apply(mu[s], v)
    )
    assert m.basis_words == tuple(words) and m.basis_vectors == tuple(vectors)
    assert all(_columns(m.restricted[s]) == images[s] for s in alphabet)


def _random_automaton(field, dim, alphabet, rng, density=0.65):
    """Random entries over GF(p), or over Q small fractions with denominators."""
    p = field.characteristic

    def entry():
        if rng.random() >= density:
            return 0
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    lam, gamma = [entry() for _ in range(dim)], [entry() for _ in range(dim)]
    mu = {s: [[entry() for _ in range(dim)] for _ in range(dim)] for s in alphabet}
    return WeightedAutomaton(field, alphabet, lam, mu, gamma)


def _text(a):
    return to_text(automaton_to_json(a))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GF2, gf(3), gf(2147483647), QQ]),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([("a",), ("a", "b")]),
    st.sampled_from(["random", "redundant", "zero lambda", "zero gamma"]),
    st.randoms(use_true_random=False),
)
def test_minimize_is_right_then_left_reduction_to_the_byte(field, dim, alphabet, shape, rng):
    # the Hankel-row minimization against the composition it replaced, run
    # entry by entry on FieldScalars: same kept words, same images, same JSON text
    if shape == "redundant":
        a = _random_automaton(field, (dim + 1) // 2, alphabet, rng)
        b = _random_automaton(field, dim // 2, alphabet, rng)
        source = direct_sum(direct_sum(a, b), scale(b, -1))
    else:
        source = _random_automaton(field, dim, alphabet, rng)
        zero = [0] * dim
        mu = {s: source.mu[s] for s in alphabet}
        if shape == "zero lambda":
            source = WeightedAutomaton(field, alphabet, zero, mu, source.gamma)
        elif shape == "zero gamma":
            source = WeightedAutomaton(field, alphabet, source.lam, mu, zero)
    expected = boxed_minimize(source)
    assert _text(minimize(source)) == _text(expected)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GF2, gf(3), QQ]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([("a",), ("a", "b")]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_equivalent_agrees_with_minimizing_the_difference(field, dim, alphabet, perturb, rng):
    # b is a with a redundant block c - c added, the same series; perturbed,
    # one entry of b moves by one, which may or may not change the series
    a = _random_automaton(field, dim, alphabet, rng)
    c = _random_automaton(field, rng.randint(0, 3), alphabet, rng)
    b = direct_sum(a, direct_sum(c, scale(c, -1)))
    if perturb and b.dim:
        one = field.one()
        lam, gamma = list(b.lam), list(b.gamma)
        mu = {s: [list(row) for row in b.mu[s].entries] for s in alphabet}
        i, j = rng.randrange(b.dim), rng.randrange(b.dim)
        where = rng.choice(["lambda", "gamma", "mu"])
        if where == "lambda":
            lam[i] += one
        elif where == "gamma":
            gamma[i] += one
        else:
            row = mu[rng.choice(alphabet)][i]
            row[j] += one
        b = WeightedAutomaton(field, alphabet, lam, mu, gamma)
    same = minimize(direct_sum(a, scale(b, -1))).dim == 0
    assert equivalent(a, b) == same
    assert equivalent(b, a) == same
    if not perturb:
        assert same
