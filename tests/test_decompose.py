"""End-to-end decomposition against brute-force subspace oracles."""

import dataclasses
import random

import pytest

from cyclomod import GF2, QQ
from cyclomod.linalg import DenseMatrix
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.endo import EndoAlgebra, SearchConfig, commutant_basis, compute_end
from cyclomod.decompose import (
    DecompositionReport,
    block_from_vectors,
    check_report,
    complete_decomposition,
    decompose_once,
    enumerate_idempotents,
)

from fixtures import (
    F_VEC,
    s3_natural_action,
    s3_regular_action,
    swap_invariant_module,
)

from oracles import count_idempotents_brute, gf2_decomposable


def test_swap_invariant_module_splits_one_two():
    m = swap_invariant_module()
    report = complete_decomposition(m)
    assert report.signature == (1, 2)
    assert report.fully_decomposed
    check_report(report)
    line = report.summands[0]
    assert line.dim == 1
    assert line.is_cyclic
    # the invariant line is spanned by F = A+B+C
    v = line.ambient_basis[0]
    assert tuple(int(bool(x)) for x in v) == F_VEC
    plane = report.summands[1]
    assert plane.dim == 2
    assert plane.is_cyclic
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
    v = line.ambient_basis[0]
    assert v[0] == v[1] == v[2] != 0
    assert all(b.is_cyclic for b in report.summands)


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
        assert x.ambient_basis == y.ambient_basis
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


def test_block_from_vectors_rejects_unstable_span():
    action = s3_natural_action()
    with pytest.raises(RuntimeError):
        block_from_vectors(action, [(1, 0, 0)])
    block = block_from_vectors(action, [(1, 1, 1)])
    assert block.dim == 1 and block.is_cyclic


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


def test_check_report_catches_generator_of_another_leaf():
    m = orbit_basis(s3_regular_action(), (1, 0, 0, 0, 0, 0))
    report = complete_decomposition(m)
    assert report.signature == (1, 1, 2, 2)
    a, b = report.summands[2:]
    # each generator still regenerates a 2-dim leaf, but the other one
    swapped = (
        dataclasses.replace(a, module=b.module, generator=b.generator),
        dataclasses.replace(b, module=a.module, generator=a.generator),
    )
    broken = dataclasses.replace(report, summands=report.summands[:2] + swapped)
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
