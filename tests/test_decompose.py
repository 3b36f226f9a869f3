"""End-to-end decomposition against brute-force subspace oracles."""

import dataclasses
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclomod import GF2, QQ, gf
from cyclomod.linalg import DenseMatrix, rref
from cyclomod.modules import AlgebraAction, CyclicModule, orbit_basis
from cyclomod.endo import Certificate, EndoAlgebra, compute_end
from cyclomod.decompose import (
    DecompositionReport,
    check_report,
    complete_decomposition,
    decompose_once,
)
from cyclomod.boolfn import parse_anf, sn_action
from cyclomod.perms import left_translation_action, permutation_module, symmetric_group
from cyclomod.serialize import presentation_from_json

from fixtures import (
    F_VEC,
    regular_s4_module,
    s3_natural_action,
    s3_regular_action,
    swap_invariant_module,
    unimodular_pair,
)

from oracles import (
    boxed_apply,
    commutant_basis,
    count_idempotents_brute,
    enumerate_idempotents,
    gf2_decomposable,
    raw_inverse,
)
from test_golden import GOLDEN


def test_swap_invariant_module_splits_one_two():
    m = swap_invariant_module()
    report = complete_decomposition(m)
    assert report.signature == (1, 2)
    assert report.fully_decomposed
    check_report(report)
    line = report.summands[0]
    assert line.dim == 1
    # the invariant line is spanned by F = A+B+C
    v = line.basis_vectors[0]
    assert tuple(int(bool(x)) for x in v) == F_VEC
    plane = report.summands[1]
    assert plane.dim == 2
    # End = F on both leaves: x is the identity and J = 0
    for cert in report.certificates:
        assert (cert.mode, cert.element, cert.radical) == ("local", None, ())
    assert len(report.split_certificates) == 1
    assert report.split_certificates[0].mode == "fitting-scan"


def test_decompose_once_pair():
    m = swap_invariant_module()
    cert, pair = decompose_once(m)
    assert cert.verdict == "decomposable"
    assert pair is not None
    dims = sorted(b.dim for b in pair)
    assert dims == [1, 2]
    with pytest.raises(ValueError):
        decompose_once(orbit_basis(m.action, (0,) * 8))


def test_decompose_once_simple_leaf():
    m = orbit_basis(s3_natural_action(), (1, -1, 0))
    cert, pair = decompose_once(m)
    assert cert.verdict == "indecomposable"
    assert pair is None


def test_rational_natural_module():
    m = orbit_basis(s3_natural_action(), (1, 0, 0))
    assert m.dim == 3
    report = complete_decomposition(m)
    assert report.signature == (1, 2)
    assert report.fully_decomposed
    check_report(report)
    line = report.summands[0]
    v = line.basis_vectors[0]
    assert v[0] == v[1] == v[2] != 0


def test_leaves_of_one_dimension_sort_as_rationals():
    # two lines, spanned by u = (1/2, 1) and w = (1/3, 5), the eigenvectors
    # of a = P diag(1, 2) P^-1; w comes first as rationals (1/3 < 1/2),
    # although its integers over its denominator, (1, 15) / 3, would sort
    # after u's, (1, 2) / 2
    u, w = (Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(5))
    det = u[0] * w[1] - w[0] * u[1]
    inverse = [[w[1] / det, -w[0] / det], [-u[1] / det, u[0] / det]]
    a = [[u[i] * inverse[0][j] + 2 * w[i] * inverse[1][j] for j in range(2)] for i in range(2)]
    m = orbit_basis(AlgebraAction(QQ, [("a", a)]), [x + y for x, y in zip(u, w)])
    report = complete_decomposition(m)
    boxed = [tuple(QQ.scalar(x) for x in v) for v in (w, u)]
    assert [leaf.basis_vectors for leaf in report.summands] == [(v,) for v in boxed]
    check_report(report)


def test_regular_module_signature():
    m = orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0))
    assert m.dim == 6
    report = complete_decomposition(m)
    assert report.signature == (1, 1, 2, 2)
    assert report.fully_decomposed
    check_report(report)


def test_reports_are_deterministic():
    m = orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0))
    a = complete_decomposition(m)
    b = complete_decomposition(m)
    assert a.signature == b.signature
    for x, y in zip(a.summands, b.summands):
        assert x.basis_vectors == y.basis_vectors
    assert a.certificates == b.certificates


def test_enumerate_idempotents_swap_module():
    e = compute_end(swap_invariant_module())
    idems = enumerate_idempotents(e)
    assert len(idems) == 4
    assert idems[0].is_zero()
    ident = DenseMatrix.identity(GF2, 3)
    assert ident in idems
    raw_basis = [[[x.value for x in row] for row in b.entries] for b in e.basis]
    assert count_idempotents_brute(2, raw_basis) == 4


def _left_multiplication(a):
    """X -> A X on 2x2 matrices X, in the coordinates X_00, X_01, X_10, X_11."""
    return [[a[i][k] if j == l else 0 for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]


def test_enumerate_idempotents_full_matrix_algebra():
    # the left regular module of M_2(GF(2)), generated by the identity:
    # the swap and E_11 generate M_2, and End is M_2 acting on the right
    swap, e11 = [[0, 1], [1, 0]], [[1, 0], [0, 0]]
    action = AlgebraAction(GF2, [("swap", _left_multiplication(swap)), ("e11", _left_multiplication(e11))])
    m = orbit_basis(action, (1, 0, 0, 1))
    assert m.dim == 4
    e = compute_end(m)
    assert e.dim == 4
    idems = enumerate_idempotents(e)
    assert len(idems) == 8
    with pytest.raises(ValueError):
        enumerate_idempotents(e, cap=8)
    report = complete_decomposition(m)
    assert report.signature == (2, 2)
    check_report(report)
    rational = EndoAlgebra(QQ, 1, [DenseMatrix.identity(QQ, 1)], (("u", DenseMatrix.identity(QQ, 1)),))
    with pytest.raises(ValueError):
        enumerate_idempotents(rational)


def test_endo_algebra_rejects_a_basis_with_dependent_first_columns():
    # all of M_2(GF(2)) commutes with the identity, but E_01 and E_11 have
    # zero first columns: no cyclic module generated by e_0 has this algebra
    basis = commutant_basis(GF2, 2, [DenseMatrix.identity(GF2, 2)])
    assert len(basis) == 4
    with pytest.raises(ValueError, match="first columns .* linearly dependent"):
        EndoAlgebra(GF2, 2, basis, (("u", DenseMatrix.identity(GF2, 2)),))


def test_zero_module_report():
    m = orbit_basis(s3_natural_action(), (0, 0, 0))
    report = complete_decomposition(m)
    assert report.signature == ()
    assert report.summands == ()
    check_report(report)


def test_check_report_catches_dropped_leaf():
    m = swap_invariant_module()
    report = complete_decomposition(m)
    broken = DecompositionReport(
        m,
        report.summands[:1],
        report.certificates[:1],
        report.split_certificates,
        report.signature[:1],
    )
    with pytest.raises(RuntimeError):
        check_report(broken)
    unchecked = DecompositionReport(
        m,
        report.summands,
        report.certificates[:1],
        report.split_certificates,
        report.signature,
    )
    with pytest.raises(RuntimeError):
        check_report(unchecked)


def test_check_report_catches_generator_of_another_leaf():
    m = orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0))
    report = complete_decomposition(m)
    assert report.signature == (1, 1, 2, 2)
    a, b = report.summands[2:]
    # each generator still regenerates a 2-dim leaf, but the other one
    swapped = (
        CyclicModule(a.action, b.generator, a.basis_words, a.basis_vectors, a.restricted, None),
        CyclicModule(b.action, a.generator, b.basis_words, b.basis_vectors, b.restricted, None),
    )
    broken = DecompositionReport(
        m,
        report.summands[:2] + swapped,
        report.certificates,
        report.split_certificates,
        report.signature,
    )
    with pytest.raises(RuntimeError):
        check_report(broken)


def _diagonal_report():
    """diag(1, 2, 3) on Q^3 and its module generated by (1, 1, 0): the lines through e_0 and e_1."""
    action = AlgebraAction(QQ, [("u", [[1, 0, 0], [0, 2, 0], [0, 0, 3]])])
    report = complete_decomposition(orbit_basis(action, (1, 1, 0)))
    assert report.signature == (1, 1)
    check_report(report)
    return action, report


def _forged(report, reason, **changes):
    with pytest.raises(RuntimeError, match=reason):
        check_report(dataclasses.replace(report, **changes))


def test_check_report_rejects_each_forged_report():
    action, report = _diagonal_report()
    first, second = report.summands
    _forged(report, "signature does not match the leaves", signature=(2,))
    # the line through e_2 regenerates itself, but lies outside the module
    outside = orbit_basis(action, (0, 0, 1))
    _forged(report, "leaf vector escapes the module", summands=(outside, second))
    _forged(report, "leaf bases overlap", summands=(first, first))
    split = report.split_certificates[0]
    _forged(report, "a leaf carries a decomposable certificate", certificates=(split,) + report.certificates[1:])


def test_check_report_rejects_a_dimension_one_label_on_a_larger_end():
    # the 2-dim Jordan block is a local leaf whose End, F[N]/N^2, has
    # dimension 2; given the certificate the dimension count gives a leaf
    # with End = F, x = 1 and J = 0, whose minimal polynomial t - 1 has
    # degree 1, not 2
    action = AlgebraAction(QQ, [("u", [[0, 0], [1, 0]])])
    report = complete_decomposition(orbit_basis(action, (1, 0)))
    assert report.certificates[0].radical and compute_end(report.summands[0]).dim == 2
    scalar = Certificate("indecomposable", "local", None, None, {"endo_dim": 1})
    _forged(report, "element does not generate a field modulo the radical", certificates=(scalar,))


def test_check_report_rejects_a_leaf_that_is_not_stable():
    # a covering tree that stopped after the generator: the line through e_0
    # is no submodule of the 2-dim Jordan block generated by e_0, and the
    # leaf regenerated from e_0, closed under u by construction, is the block
    action = AlgebraAction(QQ, [("u", [[0, 0], [1, 0]])])
    report = complete_decomposition(orbit_basis(action, (1, 0)))
    assert report.signature == (2,)

    def first_word_only(g):
        return CyclicModule(action, g, [()], [g], {}, None)

    halves = (first_word_only((1, 0)), first_word_only((0, 1)))
    certs = report.certificates * 2
    _forged(report, "leaf generator does not regenerate the leaf", summands=halves, certificates=certs, signature=(1, 1))


def test_random_gf2_corpus_matches_subspace_oracle():
    rng = random.Random(2205)
    checked = 0
    for _ in range(40):
        mats = [
            [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            for _ in range(2)
        ]
        g = [rng.randint(0, 1) for _ in range(4)]
        if not any(g):
            continue
        action = AlgebraAction(GF2, [("u", mats[0]), ("v", mats[1])])
        m = orbit_basis(action, g)
        if m.dim == 0:
            continue
        report = complete_decomposition(m)
        check_report(report)
        assert report.fully_decomposed  # finite field small cases always decide
        raw_restricted = [
            [[x.value for x in row] for row in m.restricted[s].entries]
            for s in action.labels
        ]
        expected = gf2_decomposable(m.dim, raw_restricted)
        assert (len(report.summands) > 1) == expected
        checked += 1
    assert checked >= 30


def _leaf_outcomes(report):
    return sorted((b.dim, c.verdict, c.mode) for b, c in zip(report.summands, report.certificates))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([GF2, gf(3), QQ]), st.randoms(use_true_random=False))
def test_decomposition_is_invariant_under_change_of_basis(field, rng):
    n = rng.randint(2, 4)
    lo, hi = (-1, 1) if field.characteristic == 0 else (0, field.characteristic - 1)

    def random_matrix(density):
        return DenseMatrix(
            field,
            [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)],
        )

    gens = [("u", random_matrix(0.4)), ("v", random_matrix(0.4))]
    g = tuple(field.scalar(rng.randint(lo, hi)) for _ in range(n))
    p = random_matrix(1.0)
    assume(any(g) and rref(p).rank == n)
    p_inv = DenseMatrix(field, raw_inverse(field.characteristic, [[x.value for x in row] for row in p.entries]))
    # the outcome, undecided leaves included, must not depend on the basis
    base = complete_decomposition(orbit_basis(AlgebraAction(field, gens), g))
    moved_gens = [(s, p * mat * p_inv) for s, mat in reversed(gens)]
    moved = complete_decomposition(orbit_basis(AlgebraAction(field, moved_gens), boxed_apply(p, g)))
    check_report(moved)
    assert moved.signature == base.signature
    assert _leaf_outcomes(moved) == _leaf_outcomes(base)


def _splits(m):
    """(block, half) for every split of m's decomposition tree, run step by step
    as complete_decomposition runs it, internal nodes included."""
    stack = [m]
    while stack:
        block = stack.pop()
        _, halves = decompose_once(block)
        if halves is not None:
            for half in halves:
                yield block, half
            stack.extend(halves)


def _split_corpus():
    yield GF2, swap_invariant_module()
    yield GF2, orbit_basis(sn_action(5), parse_anf("x1*x2*x3 + x4*x5", 5).vector())
    yield QQ, orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0))
    elements = symmetric_group(4)
    s4 = left_translation_action(elements, [elements.index((1, 0, 2, 3)), elements.index((1, 2, 3, 0))])
    yield QQ, permutation_module(s4, [1] + [0] * 23)
    for field in (GF2, gf(3)):
        # regular S4 in characteristics dividing its order
        action = AlgebraAction.from_permutations(field, [(s, s4.generators[s]) for s in s4.labels], 24)
        yield field, orbit_basis(action, [1] + [0] * 23)
    rng = random.Random(6007)
    for field in (GF2, gf(3), QQ):
        lo, hi = (-1, 1) if field.characteristic == 0 else (0, field.characteristic - 1)
        for _ in range(12):
            n = rng.randint(3, 6)
            gens = [
                (s, [[rng.randint(lo, hi) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])
                for s in ("u", "v")
            ]
            yield field, orbit_basis(AlgebraAction(field, gens), [rng.randint(lo, hi) for _ in range(n)])


def test_every_split_half_is_the_ambient_orbit_of_its_generator():
    # halves are spun in block coordinates; each must be, field by field,
    # the module an orbit over the ambient action gives for its generator.
    # check_report regenerates only the leaves, so this covers the
    # internal nodes too.
    halves, internal = {GF2: 0, gf(3): 0, QQ: 0}, 0
    for field, m in _split_corpus():
        if m.dim == 0:
            continue
        count = 0
        for block, half in _splits(m):
            ref = orbit_basis(block.action, half.generator)
            assert half.action is ref.action and half.generator == ref.generator
            assert half.basis_words == ref.basis_words
            assert half.basis_vectors == ref.basis_vectors
            assert half.restricted == ref.restricted
            assert [half.coordinates(v) for v in ref.basis_vectors] == [
                ref.coordinates(v) for v in ref.basis_vectors
            ]
            count += 1
        halves[field] += count
        # two halves per split; every split after the first splits a half
        internal += max(0, count // 2 - 1)
    assert min(halves.values()) >= 8, halves
    assert internal >= 10


def _dicyclic_elements(n):
    """Dic_n, of order 4n, as the permutations of its own elements a^k x^e by left multiplication.

    x a = a^-1 x and x^2 = a^n; the element list holds a = a^1 at index 1
    and x at index 2n.
    """
    pairs = [(k, e) for e in (0, 1) for k in range(2 * n)]
    index = {g: i for i, g in enumerate(pairs)}

    def times(g, h):
        (k, e), (m, f) = g, h
        if not e:
            return (k + m) % (2 * n), f
        return (k - m + n * f) % (2 * n), 1 - f

    return [tuple(index[times(g, h)] for h in pairs) for g in pairs]


def _group_action(group, field):
    """The regular module's action over field, by permutations, and its dimension."""
    if group == "Q8":
        with open(os.path.join(GOLDEN, "regular_q8.json"), encoding="utf-8") as handle:
            presentation = presentation_from_json(json.load(handle))
    elif group == "Dic3":
        elements = _dicyclic_elements(3)
        presentation = left_translation_action(elements, [1, 6])
    elif group == "S3":
        # left translation by (1, 0, 2) and (1, 2, 0)
        presentation = left_translation_action(symmetric_group(3), [2, 3])
    else:
        return regular_s4_module(field).action, 24
    gens = [(s, presentation.generators[s]) for s in presentation.labels]
    return AlgebraAction.from_permutations(field, gens, presentation.degree), presentation.degree


@pytest.mark.parametrize("field", [QQ, GF2, gf(3)], ids=str)
@pytest.mark.parametrize("group", ["Q8", "Dic3", "S4"])
def test_group_module_decomposition_is_invariant_under_basis_order_and_generator(group, field):
    # the regular module of a group, generated by e_0: its signature and the
    # multiset of (dim, verdict) must not depend on the order or names of the
    # generators, on which point generates it, or on the basis of the space
    action, n = _group_action(group, field)
    matrices = [(s, action.matrices[s]) for s in action.labels]
    rng = random.Random(f"{group} {field}")
    e0 = [1] + [0] * (n - 1)
    point = [0] * n
    point[rng.randrange(n)] = 1
    p, q = unimodular_pair(rng, n)
    p_mat, q_mat = DenseMatrix(field, p), DenseMatrix(field, q)
    variants = {
        "as given": (matrices, e0),
        "reversed": (matrices[::-1], e0),
        "renamed": ([(f"t{len(matrices) - i}", m) for i, (_, m) in enumerate(matrices)], e0),
        "a random point": (matrices, point),
        "conjugated": ([(s, p_mat * m * q_mat) for s, m in matrices[::-1]], [row[0] for row in p]),
    }
    outcomes = set()
    for name, (gens, g) in variants.items():
        report = complete_decomposition(orbit_basis(AlgebraAction(field, gens), g))
        check_report(report)
        verdicts = sorted((b.dim, c.verdict) for b, c in zip(report.summands, report.certificates))
        outcomes.add((report.signature, tuple(verdicts)))
    assert len(outcomes) == 1, outcomes


def _dimension_count_corpus():
    for group in ("S3", "S4", "Q8", "Dic3"):
        for field in (QQ, GF2, gf(3)):
            action, n = _group_action(group, field)
            yield f"regular {group} over {field}", orbit_basis(action, [1] + [0] * (n - 1))
    for n in range(4, 9):
        for text in ("x1", "x1 + x2*x3", "x1*x2 + x3*x4", "x1*x2*x3 + x3*x4"):
            yield f"{text} for n = {n}", orbit_basis(sn_action(n), parse_anf(text, n).vector())


def test_halves_of_a_two_dimensional_end_have_end_f():
    # complete_decomposition certifies both halves of a block whose End has
    # dimension 2 as dimension-1 leaves, and every 1-dimensional block, with
    # no compute_end; the End computed here is the oracle for that count,
    # and each leaf's certificate is the one the full step makes for it
    counted = 0
    for name, m in _dimension_count_corpus():
        for block, half in _splits(m):
            if compute_end(block).dim == 2:
                assert compute_end(half).dim == 1, name
                counted += 1
        report = complete_decomposition(m)
        for leaf, cert in zip(report.summands, report.certificates):
            assert decompose_once(leaf) == (cert, None), name
    assert counted >= 30, counted
