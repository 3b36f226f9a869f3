"""End-to-end decomposition against brute-force subspace oracles."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclomod import GF2, QQ, gf
from cyclomod.linalg import DenseMatrix, rref
from cyclomod.modules import AlgebraAction, CyclicModule, orbit_basis
from cyclomod.endo import EndoAlgebra, SearchConfig, compute_end
from cyclomod.decompose import (
    DecompositionReport,
    check_report,
    complete_decomposition,
    decompose_once,
)
from cyclomod.boolfn import parse_anf, sn_action
from cyclomod.perms import left_translation_action, permutation_module, symmetric_group

from fixtures import (
    F_VEC,
    s3_natural_action,
    s3_regular_action,
    swap_invariant_module,
)

from oracles import (
    commutant_basis,
    count_idempotents_brute,
    enumerate_idempotents,
    gf2_decomposable,
    raw_inverse,
)


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
    assert report.certificates[0].mode == "dimension-1"
    assert report.certificates[1].mode == "dimension-1"
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
    assert a.config.seed == 0
    assert a.config == b.config


def test_enumerate_idempotents_swap_module():
    e = compute_end(swap_invariant_module())
    idems = enumerate_idempotents(e)
    assert len(idems) == 4
    assert idems[0].is_zero()
    ident = DenseMatrix.identity(GF2, 3)
    assert ident in idems
    raw_basis = [[[x.value for x in row] for row in b.entries] for b in e.basis]
    assert count_idempotents_brute(2, raw_basis) == 4


def test_enumerate_idempotents_full_matrix_algebra():
    basis = commutant_basis(GF2, 2, [DenseMatrix.identity(GF2, 2)])
    e = EndoAlgebra(GF2, 2, basis, (("u", DenseMatrix.identity(GF2, 2)),))
    assert e.dim == 4
    idems = enumerate_idempotents(e)
    assert len(idems) == 8
    with pytest.raises(ValueError):
        enumerate_idempotents(e, cap=8)
    rational = EndoAlgebra(QQ, 1, [DenseMatrix.identity(QQ, 1)], (("u", DenseMatrix.identity(QQ, 1)),))
    with pytest.raises(ValueError):
        enumerate_idempotents(rational)


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
        report.config,
    )
    with pytest.raises(RuntimeError):
        check_report(broken)
    unchecked = DecompositionReport(
        m,
        report.summands,
        report.certificates[:1],
        report.split_certificates,
        report.signature,
        report.config,
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
        report.config,
    )
    with pytest.raises(RuntimeError):
        check_report(broken)


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
    # small characteristic-0 budgets keep undecided leaves cheap; the
    # outcome must not depend on the basis whatever the budgets are
    config = SearchConfig(random_trials=8)
    base = complete_decomposition(orbit_basis(AlgebraAction(field, gens), g), config)
    moved_gens = [(s, p * mat * p_inv) for s, mat in reversed(gens)]
    moved = complete_decomposition(orbit_basis(AlgebraAction(field, moved_gens), p.apply(g)), config)
    check_report(moved)
    assert moved.signature == base.signature
    assert _leaf_outcomes(moved) == _leaf_outcomes(base)


def _splits(m, config):
    """(block, half) for every split of m's decomposition tree, run step by step
    as complete_decomposition runs it, internal nodes included."""
    stack = [m]
    while stack:
        block = stack.pop()
        _, halves = decompose_once(block, config)
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
    config = SearchConfig(random_trials=8)
    halves, internal = {GF2: 0, gf(3): 0, QQ: 0}, 0
    for field, m in _split_corpus():
        if m.dim == 0:
            continue
        count = 0
        for block, half in _splits(m, config):
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
