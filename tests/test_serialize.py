"""JSON and DOT format tests: round trips, path-tagged errors, determinism."""

import json
import os
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomod.decompose import complete_decomposition
from cyclomod.endo import compute_end, find_splitting_element
from cyclomod.fields import GF2, QQ, gf
from cyclomod.linalg import DenseMatrix
from cyclomod.modules import AlgebraAction, action_graph, graph_from_parts, orbit_basis
from cyclomod.perms import PermutationPresentation, permutation_module
from cyclomod.serialize import (
    FormatError,
    automaton_from_json,
    automaton_to_json,
    certificate_to_json,
    field_from_str,
    field_to_str,
    graph_to_dot,
    matrix_from_json,
    presentation_from_json,
    presentation_to_json,
    report_to_json,
    scalar_from_json,
    to_text,
    _raw_scalar_from_json,
    _raw_vector_from_json,
)
from cyclomod.wfa import WeightedAutomaton

from fixtures import G, conjugated_jordan_module, quaternion_module, s3_anf_action, MONOMIALS


def counting_json():
    return {
        "field": "0",
        "alphabet": ["a", "b"],
        "dim": 2,
        "lambda": ["1", "0"],
        "mu": {
            "a": [["1", "1"], ["0", "1"]],
            "b": [["1", "0"], ["0", "1"]],
        },
        "gamma": ["0", "1"],
    }


def test_field_string_round_trip():
    assert field_to_str(QQ) == "0"
    assert field_to_str(gf(7)) == "p:7"
    assert field_from_str("0") is QQ or field_from_str("0") == QQ
    assert field_from_str("p:2") == GF2
    assert field_from_str("p:101") == gf(101)


@pytest.mark.parametrize("bad", ["q", "p:", "p:4", "p:-3", "2", "", "p:two"])
def test_field_string_rejects(bad):
    with pytest.raises(FormatError):
        field_from_str(bad)


def test_scalar_parsing_paths():
    assert str(scalar_from_json(QQ, "-7/2", "x").value) == "-7/2"
    assert scalar_from_json(gf(5), "7", "x").value == 2
    assert scalar_from_json(QQ, 3, "x").value == 3
    with pytest.raises(FormatError) as err:
        scalar_from_json(QQ, True, "cfg.t")
    assert err.value.path == "cfg.t"
    with pytest.raises(FormatError):
        scalar_from_json(QQ, 1.5, "x")
    with pytest.raises(FormatError):
        scalar_from_json(gf(5), "1/2x", "x")


def test_automaton_round_trip():
    a = automaton_from_json(counting_json())
    assert isinstance(a, WeightedAutomaton)
    assert a.dim == 2
    assert str(a.weight(("a", "a", "a")).value) == "3"
    again = automaton_to_json(a)
    assert again == counting_json()
    # byte-identical re-serialization
    assert to_text(again) == to_text(automaton_to_json(automaton_from_json(again)))


def test_automaton_missing_key():
    obj = counting_json()
    del obj["gamma"]
    with pytest.raises(FormatError) as err:
        automaton_from_json(obj)
    assert err.value.path == "gamma"


def test_automaton_bad_entry_has_full_path():
    obj = counting_json()
    obj["mu"]["a"][0][1] = "one"
    with pytest.raises(FormatError) as err:
        automaton_from_json(obj)
    assert err.value.path == "mu.a[0][1]"


def test_automaton_mu_keys_must_match_alphabet():
    obj = counting_json()
    obj["mu"]["c"] = obj["mu"]["b"]
    with pytest.raises(FormatError) as err:
        automaton_from_json(obj)
    assert err.value.path == "mu"


def test_automaton_wrong_lengths():
    obj = counting_json()
    obj["lambda"] = ["1"]
    with pytest.raises(FormatError) as err:
        automaton_from_json(obj)
    assert err.value.path == "lambda"
    obj = counting_json()
    obj["mu"]["b"] = [["1", "0"]]
    with pytest.raises(FormatError) as err:
        automaton_from_json(obj)
    assert err.value.path == "mu.b"


@pytest.mark.parametrize(
    "field,dim,alphabet",
    [(3.0, 2, ["a", "b"]), ("0", True, ["a", "b"]), ("0", 2, ["a", "a"]), ("0", 2, "ab")],
)
def test_automaton_header_validation(field, dim, alphabet):
    obj = counting_json()
    obj["field"], obj["dim"], obj["alphabet"] = field, dim, alphabet
    if isinstance(alphabet, list) and len(set(alphabet)) == len(alphabet):
        obj["mu"] = {s: obj["mu"]["a"] for s in alphabet}
    with pytest.raises(FormatError):
        automaton_from_json(obj)


def test_vector_matrix_helpers():
    assert _raw_vector_from_json(GF2, ["1", "0", "1"], 3, "v") == [1, 0, 1]
    with pytest.raises(FormatError) as err:
        _raw_vector_from_json(GF2, ["1", "0"], 3, "v")
    assert err.value.path == "v"
    m = matrix_from_json(QQ, [["1", "2"], ["3", "4"]], 2, 2, "m")
    assert isinstance(m, DenseMatrix)
    with pytest.raises(FormatError) as err:
        matrix_from_json(QQ, [["1", "2"]], 2, 2, "m")
    assert err.value.path == "m"


MIXED_ENTRIES = ["3", " 3", "-7", "1/3", "-7/2", 3, -1, "x", "", "4/0", True, 1.5, None, [1]]


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(st.sampled_from(MIXED_ENTRIES), max_size=6),
    field=st.sampled_from([GF2, gf(3), QQ]),
)
def test_vector_parse_matches_the_per_entry_parse(entries, field):
    """The whole-vector fast path gives the raw values, or the FormatError, of parsing entry by entry."""
    path = "mu.a[0]"
    try:
        expected = [_raw_scalar_from_json(field, x, f"{path}[{i}]") for i, x in enumerate(entries)]
    except FormatError as err:
        with pytest.raises(FormatError) as got:
            _raw_vector_from_json(field, entries, len(entries), path)
        assert (got.value.path, str(got.value)) == (err.path, str(err))
    else:
        got = _raw_vector_from_json(field, entries, len(entries), path)
        if field.characteristic:
            assert [(type(x), x) for x in got] == [(type(x), x) for x in expected]
        else:
            # over Q: integer numerators over one positive denominator, in lowest terms
            assert all(type(x) is int for x in got) and gcd(got.den, *got) == 1 <= got.den
            assert [Fraction(x, got.den) for x in got] == expected


def test_vector_parse_mixed_entries():
    got = _raw_vector_from_json(QQ, ["3", " 3", "1/3", 3], 4, "v")
    assert (list(got), got.den) == ([9, 9, 1, 9], 3)
    assert _raw_vector_from_json(gf(5), ["3", " 8", "1/3", -2], 4, "v") == [3, 3, 2, 3]
    with pytest.raises(FormatError) as err:
        _raw_vector_from_json(QQ, ["3", " 3", "1/3", 3, "x"], 5, "mu.a[0]")
    assert err.value.path == "mu.a[0][4]"
    with pytest.raises(FormatError) as err:
        _raw_vector_from_json(gf(3), ["3", " 3", "1/3", 3, "x"], 5, "mu.a[0]")
    assert err.value.path == "mu.a[0][2]" and "denominator vanishes" in str(err.value)


def test_presentation_round_trip():
    p = PermutationPresentation(3, [("s1", [1, 0, 2]), ("s2", [0, 2, 1])])
    obj = presentation_to_json(p)
    assert obj == {"degree": 3, "generators": {"s1": [1, 0, 2], "s2": [0, 2, 1]}}
    q = presentation_from_json(obj)
    assert q.degree == 3
    assert q.labels == ("s1", "s2")
    assert q.generators["s2"] == (0, 2, 1)


def test_presentation_rejects_non_bijection():
    with pytest.raises(FormatError) as err:
        presentation_from_json({"degree": 3, "generators": {"s1": [0, 0, 2]}})
    assert err.value.path == "generators"
    with pytest.raises(FormatError):
        presentation_from_json({"degree": 0, "generators": {}})
    with pytest.raises(FormatError):
        presentation_from_json({"degree": 3, "generators": {"s1": [0, 1, True]}})
    with pytest.raises(FormatError):
        presentation_from_json({"degree": 3})


def test_report_json_shape_and_determinism():
    m = orbit_basis(s3_anf_action(), G)
    report = complete_decomposition(m)
    names = MONOMIALS
    obj = report_to_json(report, names)
    assert obj["field"] == "p:2"
    assert obj["ambient_dim"] == 8
    assert obj["generators"] == ["s1", "s2"]
    assert obj["signature"] == [1, 2]
    assert obj["fully_decomposed"] is True
    assert obj["undecided_count"] == 0
    assert obj["module"]["dim"] == 3
    assert len(obj["summands"]) == 2
    one_dim = obj["summands"][0]
    assert one_dim["dim"] == 1
    assert one_dim["certificate"]["verdict"] == "indecomposable"
    assert "generator_display" in one_dim
    # the whole report re-serializes to identical bytes
    obj2 = report_to_json(complete_decomposition(orbit_basis(s3_anf_action(), G)), names)
    assert to_text(obj) == to_text(obj2)
    # and it is plain JSON: a dump/load cycle preserves it
    assert json.loads(to_text(obj)) == obj


def test_certificate_json_diagnostic_keys_sorted():
    m = orbit_basis(s3_anf_action(), G)
    report = complete_decomposition(m)
    for cert in list(report.certificates) + list(report.split_certificates):
        obj = certificate_to_json(cert)
        assert list(obj["diagnostics"]) == sorted(obj["diagnostics"])
        assert set(obj) == {
            "verdict",
            "mode",
            "element",
            "summands",
            "diagnostics",
        }


def test_only_local_certificates_carry_a_radical():
    jordan = complete_decomposition(conjugated_jordan_module(QQ, 3, seed=1))
    (local,) = jordan.certificates
    assert local.mode == "local"
    obj = certificate_to_json(local)
    assert list(obj)[-1] == "radical"
    assert obj["radical"] == [
        [[str(x.value) for x in row] for row in j.entries] for j in local.radical
    ]
    assert len(obj["radical"]) == 2
    assert json.loads(to_text(report_to_json(jordan)))["summands"][0]["certificate"] == obj

    field_line = orbit_basis(AlgebraAction(QQ, [("u", [[0, -1], [1, 0]])]), (1, 0))
    gf4_line = orbit_basis(AlgebraAction(GF2, [("u", [[0, 1], [1, 1]])]), (1, 0))
    s3 = PermutationPresentation(3, [("s1", [1, 0, 2]), ("s2", [0, 2, 1])])
    reports = [
        complete_decomposition(orbit_basis(s3_anf_action(), G)),
        complete_decomposition(permutation_module(s3, (1, 0, 0))),
        complete_decomposition(field_line),
        complete_decomposition(gf4_line),
    ]
    certs = [c for r in reports for c in list(r.certificates) + list(r.split_certificates)]
    undecided = find_splitting_element(compute_end(quaternion_module()))
    certs.append(undecided)
    modes = {c.mode for c in certs}
    assert {"dimension-1", "field-generated", "budget-exhausted"} <= modes
    assert "local" not in modes
    for cert in certs:
        assert "radical" not in certificate_to_json(cert)


def test_to_text_is_canonical():
    obj = {"b": 1, "a": [1, 2]}
    text = to_text(obj)
    assert text.endswith("\n")
    assert text == json.dumps(obj, indent=2) + "\n"
    assert to_text(obj) == to_text({"b": 1, "a": [1, 2]})


_json_keys = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\u2028'))
_json_scalars = (
    _json_keys
    | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_to_text_writes_what_json_dumps_writes(obj):
    assert to_text(obj) == json.dumps(obj, indent=2) + "\n"


def test_to_text_rejects_what_json_dumps_rejects():
    for obj in ({1, 2}, {"a": [frozenset()]}, [b"x"]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            to_text(obj)


def test_every_json_golden_round_trips_through_to_text():
    golden = os.path.join(os.path.dirname(__file__), "golden")
    checked = 0
    # the .json files are inputs, and the other .out files are --cert-only summaries or demo stdout
    for name in sorted(os.listdir(golden)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(golden, name), encoding="utf-8") as handle:
            text = handle.read()
        try:
            obj = json.loads(text)
        except ValueError:
            continue
        assert to_text(obj) == text, name
        checked += 1
    assert checked == 14


def test_dot_output_for_swap_invariant_module():
    m = orbit_basis(s3_anf_action(), G)
    graph = action_graph(m, MONOMIALS)
    text = graph_to_dot(graph, "module", gf2=True)
    lines = text.splitlines()
    assert lines[0] == "digraph module {"
    assert lines[-1] == "}"
    node_lines = [ln for ln in lines if "label=" in ln and "->" not in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    # three basis functions, two permutation generators acting on each
    assert len(node_lines) == 3
    assert len(edge_lines) == 6
    assert all(('label="s1"' in ln or 'label="s2"' in ln) for ln in edge_lines)
    # label text is the rendered boolean function
    assert 'n0 [label="x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"];' in lines[1]


def test_dot_coefficient_suffix_over_q():
    p = PermutationPresentation(3, [("s1", [1, 0, 2]), ("s2", [0, 2, 1])])
    m = permutation_module(p, tuple(QQ.scalar(c) for c in (1, 0, 0)))
    report = complete_decomposition(m)
    # scale a basis vector so some restricted entry is not 1
    graph = graph_from_parts(
        m.action.labels,
        m.basis_vectors,
        {
            label: DenseMatrix(
                QQ,
                [[c * 2 if i == j == 0 else c for j, c in enumerate(row)]
                 for i, row in enumerate(mat.entries)],
            )
            for label, mat in m.restricted.items()
        },
    )
    text = graph_to_dot(graph)
    assert ',2"' in text  # coefficient shown away from GF(2)
    assert graph_to_dot(action_graph(report.module), gf2=False).count(",") >= 0


def test_dot_escapes_quotes():
    from cyclomod.modules import ActionGraph

    graph = ActionGraph(['say "hi"'], [(0, 0, 'a"b', 1)])
    text = graph_to_dot(graph)
    assert '\\"hi\\"' in text
    assert 'a\\"b' in text
