"""ANF parsing, the variable-swap action, and truth-table cross-checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclomod import GF2
from cyclomod.boolfn import (
    MAX_VARIABLES,
    BooleanFunction,
    ParseError,
    decompose_boolean,
    monomial_name,
    monomial_names,
    parse_anf,
    sn_action,
)
from cyclomod.decompose import check_report, complete_decomposition
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.serialize import report_to_json, to_text

from fixtures import G, transposition_matrix
from oracles import anf_from_truth_table, permute_function_truth_table, truth_table


def test_monomial_names():
    assert monomial_names(2) == ["1", "x1", "x2", "x1*x2"]
    assert monomial_name(0b101) == "x1*x3"
    assert monomial_names(3)[7] == "x1*x2*x3"
    for n in range(9):
        assert monomial_names(n) == [monomial_name(m) for m in range(1 << n)]


def test_parse_simple():
    f = parse_anf("x1*x2 + x3", 3)
    assert f.support() == (0b011, 0b100)
    assert f.anf() == "x1*x2 + x3"
    assert parse_anf("1", 2) == BooleanFunction.from_indices(2, {0})
    assert parse_anf("0", 2).is_zero()
    assert parse_anf("0 + x1", 2).support() == (1,)


def test_parse_juxtaposition_and_spacing():
    assert parse_anf("x1x2", 2) == parse_anf("x1*x2", 2)
    assert parse_anf("  x1 *x2+ x2 ", 2) == parse_anf("x1x2 + x2", 2)
    assert parse_anf("x2x1", 2) == parse_anf("x1*x2", 2)
    # squaring collapses and repeated terms cancel, as ANF demands
    assert parse_anf("x1x1", 2) == parse_anf("x1", 2)
    assert parse_anf("x1 + x1", 2).is_zero()


def test_parse_round_trip_fixture():
    text = "x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"
    f = parse_anf(text, 3)
    assert tuple(f.coeffs) == G
    assert f.anf() == text
    assert parse_anf(f.anf(), 3) == f


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("   ", 3),
        ("x4", 0),
        ("x0", 0),
        ("x", 0),
        ("y1", 0),
        ("x1 + + x2", 5),
        ("x1 +", 3),
        ("1*x1", 2),
        ("x1*1", 3),
        ("x1*", 3),
        ("x1 & x2", 3),
    ],
)
def test_parse_errors_with_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_anf(text, 3)
    assert err.value.position == position
    assert "position" in str(err.value)


def test_parse_error_is_value_error():
    with pytest.raises(ValueError):
        parse_anf("zz", 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_anf_round_trip(bits):
    f = BooleanFunction(3, [bits >> k & 1 for k in range(8)])
    assert parse_anf(f.anf(), 3) == f


def test_evaluate_matches_truth_table_oracle():
    rng = random.Random(411)
    for _ in range(12):
        support = {m for m in range(8) if rng.random() < 0.5}
        f = BooleanFunction.from_indices(3, support)
        table = truth_table(3, support)
        assert [f.evaluate(a) for a in range(8)] == table
        assert anf_from_truth_table(3, table) == support


def test_swap_action_braid_relations():
    action = sn_action(4)
    s1, s2, s3 = (action.matrices[f"s{k}"] for k in (1, 2, 3))
    ident = s1 * s1
    from cyclomod.linalg import DenseMatrix
    from cyclomod import GF2

    assert ident == DenseMatrix.identity(GF2, 16)
    assert s2 * s2 == DenseMatrix.identity(GF2, 16)
    assert s1 * s2 * s1 == s2 * s1 * s2
    assert s1 * s3 == s3 * s1


def test_swap_action_matches_truth_table_oracle():
    rng = random.Random(412)
    action = sn_action(3)
    perms = {"s1": (1, 0, 2), "s2": (0, 2, 1)}
    for _ in range(10):
        support = {m for m in range(8) if rng.random() < 0.5}
        f = BooleanFunction.from_indices(3, support)
        for label in ("s1", "s2"):
            image = action.apply_word((label,), f.vector())
            g = BooleanFunction(3, image)
            expected_table = permute_function_truth_table(
                3, truth_table(3, support), perms[label]
            )
            assert [g.evaluate(a) for a in range(8)] == expected_table
        # a two-letter word, applied first letter first
        image = action.apply_word(("s1", "s2"), f.vector())
        g = BooleanFunction(3, image)
        table = permute_function_truth_table(3, truth_table(3, support), perms["s1"])
        table = permute_function_truth_table(3, table, perms["s2"])
        assert [g.evaluate(a) for a in range(8)] == table


def test_sn_action_guards():
    with pytest.raises(ValueError):
        sn_action(1)
    with pytest.raises(ValueError):
        sn_action(13)
    assert sn_action(4).dim == 16


def test_sn_action_index_maps_match_dense_generators():
    # the swaps as gathers against the same swaps as dense GF(2) matrices
    rng = random.Random(4402)
    for n in (3, 4):
        action = sn_action(n)
        dense = AlgebraAction(GF2, [(f"s{k}", transposition_matrix(n, k)) for k in range(1, n)])
        names = monomial_names(n)
        for _ in range(6):
            f = BooleanFunction(n, [rng.randint(0, 1) for _ in range(1 << n)])
            if f.is_zero():
                continue
            a, b = orbit_basis(action, f.vector()), orbit_basis(dense, f.vector())
            assert (a.basis_words, a.basis_vectors, a.restricted) == (b.basis_words, b.basis_vectors, b.restricted)
            report = complete_decomposition(a)
            assert to_text(report_to_json(report, names)) == to_text(report_to_json(complete_decomposition(b), names))
        assert action.matrices == dense.matrices


def test_max_variables_is_reachable_without_dense_generators(monkeypatch):
    # at the cap the ambient space has 4096 monomials; a dense generator
    # would be 4096 x 4096, so reading .matrices anywhere fails the test
    def no_dense(self):
        raise AssertionError("a dense generator matrix was built")

    monkeypatch.setattr(AlgebraAction, "matrices", property(no_dense))
    report = decompose_boolean(parse_anf("x1", MAX_VARIABLES))
    # span{x1, ..., x12} is the natural permutation module of S12 over
    # GF(2): the all-ones vector lies in the sum-zero submodule, so it does not split
    assert report.signature == (MAX_VARIABLES,)
    check_report(report)


def test_decompose_symmetric_function():
    f = parse_anf("x1 + x2 + x3", 3)
    report = decompose_boolean(f)
    assert report.signature == (1,)
    assert report.fully_decomposed


def test_decompose_swap_invariant_generator():
    f = parse_anf("x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3", 3)
    report = decompose_boolean(f)
    assert report.signature == (1, 2)
    assert report.fully_decomposed
    line = report.summands[0]
    g = BooleanFunction(3, line.basis_vectors[0])
    assert g.anf() == "x1 + x2 + x3 + x1*x2*x3"


def test_decompose_zero_function():
    report = decompose_boolean(BooleanFunction(3, [0] * 8))
    assert report.signature == ()


def test_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, [])
    with pytest.raises(ValueError):
        BooleanFunction(2, [0, 1])
    with pytest.raises(ValueError):
        BooleanFunction(1, [0, 2])
    with pytest.raises(ValueError):
        BooleanFunction(2, [0, 1, 0, 1]).evaluate(4)
