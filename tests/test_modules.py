"""Orbit bases for cyclic modules, checked on a hand-worked GF(2) example.

The main fixture: n = 3 boolean inputs, the 8 ANF monomials ordered by
variable bitmask (1, x1, x2, x1*x2, x3, x1*x3, x2*x3, x1*x2*x3), and
adjacent transpositions s1 = (x1 x2), s2 = (x2 x3) permuting monomials.
For g = x1+x2+x3+x1*x3+x2*x3+x1*x2*x3 the orbit basis is
    A = g,  B = s2*A,  C = s1*B
and every further image folds back into span{A, B, C}.
"""

import random

import pytest

from cyclomod import GF2, QQ, gf
from cyclomod.modules import (
    AlgebraAction,
    action_graph,
    orbit_basis,
    render_vector,
)

from oracles import gf2_span_bitmasks, span_equal


def bit_swap(mask, i, j):
    bi = (mask >> i) & 1
    bj = (mask >> j) & 1
    if bi == bj:
        return mask
    return mask ^ ((1 << i) | (1 << j))


def transposition_matrix(n, k):
    """Permutation matrix on ANF monomials swapping variables x_k, x_{k+1}."""
    size = 1 << n
    rows = [[0] * size for _ in range(size)]
    for m in range(size):
        rows[bit_swap(m, k - 1, k)][m] = 1
    return rows


def s3_anf_action():
    return AlgebraAction(
        GF2,
        [("s1", transposition_matrix(3, 1)), ("s2", transposition_matrix(3, 2))],
    )


MONOMIALS = ["1", "x1", "x2", "x1*x2", "x3", "x1*x3", "x2*x3", "x1*x2*x3"]


def anf_vector(indices):
    return tuple(1 if i in indices else 0 for i in range(8))


G = anf_vector({1, 2, 4, 5, 6, 7})        # x1+x2+x3+x1*x3+x2*x3+x1*x2*x3
B_VEC = anf_vector({1, 2, 3, 4, 6, 7})    # s2 applied to G
C_VEC = anf_vector({1, 2, 3, 4, 5, 7})    # s1 applied to B
F_VEC = anf_vector({1, 2, 4, 7})          # x1+x2+x3+x1*x2*x3 = A+B+C


def test_action_validation():
    with pytest.raises(ValueError):
        AlgebraAction(GF2, [])
    with pytest.raises(ValueError):
        AlgebraAction(GF2, [("s1", [[1]]), ("s1", [[1]])])
    with pytest.raises(ValueError):
        AlgebraAction(GF2, [("s1", [[1, 0]])])
    with pytest.raises(ValueError):
        AlgebraAction(GF2, [("s1", [[1]]), ("s2", [[1, 0], [0, 1]])])


def test_orbit_basis_hand_worked():
    action = s3_anf_action()
    m = orbit_basis(action, G)
    assert m.dim == 3
    assert m.basis_words == ((), ("s2",), ("s2", "s1"))
    assert [tuple(int(bool(x)) for x in v) for v in m.basis_vectors] == [G, B_VEC, C_VEC]
    r1 = m.restricted["s1"]
    r2 = m.restricted["s2"]
    assert [[int(bool(x)) for x in row] for row in r1.entries] == [
        [1, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
    ]
    assert [[int(bool(x)) for x in row] for row in r2.entries] == [
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
    ]


def test_basis_words_replay():
    action = s3_anf_action()
    m = orbit_basis(action, G)
    for w, v in zip(m.basis_words, m.basis_vectors):
        assert action.apply_word(w, m.generator) == v
    # prefix closure of the kept words
    kept = set(m.basis_words)
    assert all(w[:-1] in kept for w in m.basis_words if w)


def test_contains_and_coordinates():
    m = orbit_basis(s3_anf_action(), G)
    coords = m.coordinates(F_VEC)
    assert coords is not None
    assert [int(bool(x)) for x in coords] == [1, 1, 1]
    assert tuple((a + b + c) % 2 for a, b, c in zip(G, B_VEC, C_VEC)) == F_VEC
    assert m.contains(vec := tuple(a + b for a, b in zip(G, B_VEC)))
    assert m.coordinates(vec) is not None
    # x1 alone is not in the span of {A, B, C}
    assert not m.contains(anf_vector({1}))
    mask = lambda v: sum(1 << i for i, c in enumerate(v) if c)
    span = gf2_span_bitmasks([mask(G), mask(B_VEC), mask(C_VEC)])
    assert mask(anf_vector({1})) not in span
    assert mask(F_VEC) in span


def test_restricted_matches_ambient():
    # column j of a restricted matrix holds the module coordinates of the
    # generator applied to basis vector j, so by linearity it agrees with
    # the ambient action on every vector of the module
    action = s3_anf_action()
    m = orbit_basis(action, G)
    for label in action.labels:
        for j, v in enumerate(m.basis_vectors):
            column = tuple(row[j] for row in m.restricted[label].entries)
            assert m.coordinates(action.apply_word((label,), v)) == column


def test_submodule_generated_splits():
    m = orbit_basis(s3_anf_action(), G)
    restricted = AlgebraAction(m.field, [(s, m.restricted[s]) for s in m.action.labels], dim=m.dim)
    line = orbit_basis(restricted, (1, 1, 1))
    assert line.dim == 1
    plane = orbit_basis(restricted, (1, 1, 0))
    assert plane.dim == 2
    # the line is F = A + B + C in ambient terms
    assert m.coordinates(F_VEC) == line.generator


def test_zero_generator():
    m = orbit_basis(s3_anf_action(), (0,) * 8)
    assert m.dim == 0
    assert m.contains((0,) * 8)
    assert not m.contains(G)
    assert m.coordinates((0,) * 8) == ()


def test_generator_order_changes_words_not_span():
    rng = random.Random(3110)
    for _ in range(12):
        dim = rng.randint(2, 5)
        mats = [
            [[rng.randint(0, 2) for _ in range(dim)] for _ in range(dim)]
            for _ in range(2)
        ]
        g = [rng.randint(0, 2) for _ in range(dim)]
        field = gf(3)
        fwd = orbit_basis(AlgebraAction(field, [("u", mats[0]), ("v", mats[1])]), g)
        rev = orbit_basis(AlgebraAction(field, [("v", mats[1]), ("u", mats[0])]), g)
        assert fwd.dim == rev.dim
        if fwd.dim:
            assert span_equal(field, fwd.basis_vectors, rev.basis_vectors, dim)


def test_action_graph_six_edges():
    m = orbit_basis(s3_anf_action(), G)
    graph = action_graph(m, MONOMIALS)
    assert graph.node_labels[0] == "x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"
    assert graph.node_labels[1] == "x1 + x2 + x1*x2 + x3 + x2*x3 + x1*x2*x3"
    assert graph.node_labels[2] == "x1 + x2 + x1*x2 + x3 + x1*x3 + x1*x2*x3"
    plain = [(j, i, s) for j, i, s, _ in graph.edges]
    assert plain == [
        (0, 0, "s1"),
        (1, 2, "s1"),
        (2, 1, "s1"),
        (0, 1, "s2"),
        (1, 0, "s2"),
        (2, 2, "s2"),
    ]
    assert all(c == 1 for _, _, _, c in graph.edges)


def test_render_vector():
    assert render_vector((QQ.scalar(2), QQ.scalar(0), QQ.scalar(-1)), ["e1", "e2", "e3"]) == "2*e1 + -1*e3"
    assert render_vector((QQ.scalar(0), QQ.scalar(0)), ["e1", "e2"]) == "0"
    assert render_vector((QQ.scalar(1), QQ.scalar(3))) == "(1, 3)"
    with pytest.raises(ValueError):
        render_vector((QQ.scalar(1),), ["a", "b"])


def test_rational_orbit():
    # S3 natural permutation action on Q^3 generated from a basis vector
    s1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    s2 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    action = AlgebraAction(QQ, [("s1", s1), ("s2", s2)])
    m = orbit_basis(action, (1, 0, 0))
    assert m.dim == 3
    fixed = orbit_basis(action, (1, 1, 1))
    assert fixed.dim == 1
