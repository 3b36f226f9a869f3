"""End-to-end CLI tests: exit codes, deterministic stdout, file outputs."""

import json
import os
from fractions import Fraction

import pytest

from cyclomod import cli
from cyclomod.decompose import check_report, complete_decomposition
from cyclomod.fields import QQ, FieldScalar
from cyclomod.serialize import automaton_from_json
from cyclomod.wfa import equivalent

from fixtures import conjugated_jordan_module
from test_golden import GOLDEN, companion_q_module

SWAP_INVARIANT = "x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def counting_doubled():
    ident = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    shift_block = [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "1"], ["0", "0", "0", "1"]]
    return {
        "field": "0",
        "alphabet": ["a", "b"],
        "dim": 4,
        "lambda": ["1", "0", "1", "0"],
        "mu": {"a": shift_block, "b": ident},
        "gamma": ["0", "1", "0", "1"],
    }


def s3_presentation():
    return {"degree": 3, "generators": {"s1": [1, 0, 2], "s2": [0, 2, 1]}}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# minimize


def test_minimize_doubled_automaton(tmp_path, capsys):
    path = write_json(tmp_path / "doubled.json", counting_doubled())
    code, out, err = run(capsys, ["minimize", path])
    assert code == 0
    assert "minimized: dim 4 -> 2" in err
    obj = json.loads(out)
    assert obj["dim"] == 2
    # the minimized automaton computes the same weights
    assert equivalent(automaton_from_json(counting_doubled()), automaton_from_json(obj))


def test_minimize_output_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "doubled.json", counting_doubled())
    code, out, _ = run(capsys, ["minimize", path])
    assert code == 0
    out_path = tmp_path / "min.json"
    code, out2, _ = run(capsys, ["minimize", path, "-o", str(out_path)])
    assert code == 0
    assert out2 == ""
    assert out_path.read_text(encoding="utf-8") == out


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    target = str(tmp_path / "missing" / "dir" / "out.json")
    code, out, err = run(capsys, ["decompose-bool", "x1", "-n", "3", "-o", target])
    assert code == 2
    assert out == "" and f"error: cannot write {target}" in err


def test_unwritable_dot_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    target = str(blocker / "dots")
    code, _, err = run(capsys, ["decompose-bool", "x1", "-n", "3", "--dot", target])
    assert code == 2
    assert f"error: cannot write DOT files to {target}" in err


def test_minimize_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["minimize", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_minimize_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["minimize", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_minimize_malformed_automaton(tmp_path, capsys):
    obj = counting_doubled()
    obj["mu"]["a"][0][1] = "one"
    path = write_json(tmp_path / "bad.json", obj)
    code, _, err = run(capsys, ["minimize", str(path)])
    assert code == 2
    assert "mu.a[0][1]" in err


# ---------------------------------------------------------------------------
# decompose-bool


def test_decompose_bool_report(capsys):
    code, out, err = run(capsys, ["decompose-bool", SWAP_INVARIANT, "-n", "3"])
    assert code == 0
    assert "into 2 summands" in err
    obj = json.loads(out)
    assert obj["field"] == "p:2"
    assert obj["ambient_dim"] == 8
    assert obj["signature"] == [1, 2]
    assert obj["fully_decomposed"] is True
    assert obj["undecided_count"] == 0
    assert obj["module"]["dim"] == 3
    assert obj["summands"][0]["dim"] == 1
    assert obj["summands"][0]["basis_display"] == ["x1 + x2 + x3 + x1*x2*x3"]
    assert obj["summands"][0]["certificate"]["verdict"] == "indecomposable"
    assert obj["summands"][1]["certificate"]["verdict"] == "indecomposable"


def test_decompose_bool_stdout_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["decompose-bool", SWAP_INVARIANT, "-n", "3"])
    code2, out2, _ = run(capsys, ["decompose-bool", SWAP_INVARIANT, "-n", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_decompose_bool_cert_only(capsys):
    code, out, _ = run(capsys, ["decompose-bool", SWAP_INVARIANT, "-n", "3", "--cert-only"])
    assert code == 0
    assert out == "signature: 1,2\nundecided_leaves: 0\n"


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["decompose-bool", "x1*x2*x3 + x4*x5", "-n", "5", "--cert-only"], 2 ** 5),
        (["decompose-perm", os.path.join(GOLDEN, "regular_s3.json"), "--generator", "1,0,0,0,0,0", "--cert-only"], 6),
        # automata are parsed to raw values, and every entry here is an integer
        (["minimize", os.path.join(GOLDEN, "automaton_gf2.json")], 0),
        (["minimize", os.path.join(GOLDEN, "automaton_gf3.json")], 0),
        (["minimize", os.path.join(GOLDEN, "automaton_q.json")], 0),
    ],
)
def test_cert_only_boxes_no_scalar_beyond_the_parsed_input(argv, parsed, capsys, monkeypatch):
    # FieldScalars are made where input is parsed or a public accessor is
    # read; modules, automata, certificates and the kernel pass raw values
    # to each other, and neither --cert-only nor an automaton's JSON
    # prints a boxed scalar
    made = []
    init = FieldScalar.__init__

    def counting_init(self, field, value):
        made.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldScalar, "__init__", counting_init)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("signature: " if "--cert-only" in argv else "{")
    assert len(made) <= parsed


def _scalar_count(automaton):
    """The number of scalars in an automaton's JSON."""
    mu = automaton["mu"].values()
    return len(automaton["lambda"]) + len(automaton["gamma"]) + sum(len(row) for m in mu for row in m)


def _count_fractions(monkeypatch):
    """A list to which every Fraction made from now on appends its class."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        # from Python 3.12 on, Fraction arithmetic makes its results here, past __new__
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            made.append(cls)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose-perm", os.path.join(GOLDEN, "regular_s3.json"), "--generator", "1,0,0,0,0,0", "--cert-only"],
        # the quaternion leaf factors minimal polynomials over Q on integer coefficients
        ["decompose-perm", os.path.join(GOLDEN, "regular_q8.json"), "--generator", "1,0,0,0,0,0,0,0", "--cert-only"],
        ["minimize", os.path.join(GOLDEN, "automaton_q.json")],
    ],
)
def test_fractions_are_made_only_where_input_is_parsed_or_output_written(argv, capsys, monkeypatch):
    # over Q every step hands the next integer rows over one denominator;
    # a Fraction is made only for an entry parsed or printed, at most one each
    made = _count_fractions(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0
    if argv[0] == "minimize":
        with open(argv[1], encoding="utf-8") as handle:
            parsed = _scalar_count(json.load(handle))
        printed = _scalar_count(json.loads(out))
    else:
        parsed, printed = len(argv[3].split(",")), 0  # the generator's entries; --cert-only prints none
    assert len(made) <= parsed + printed


@pytest.mark.parametrize("module", [companion_q_module, lambda: conjugated_jordan_module(QQ, 10, seed=10)],
                         ids=["companion-min-poly-split", "jordan-block"])
def test_q_decompositions_make_no_fraction_between_input_and_output(module, monkeypatch):
    # a min-poly split over Q, whose parts come from a solve on the factors'
    # integer numerators, and a local leaf over Q, whose radical is tested on
    # first columns: decomposing and re-checking make no Fraction at all
    m = module()
    made = _count_fractions(monkeypatch)
    report = complete_decomposition(m)
    check_report(report)
    assert sorted(c.mode for c in report.certificates + report.split_certificates) in (
        ["local", "local", "min-poly-split"], ["local"])
    assert made == []


def test_decompose_bool_dot_directory(tmp_path, capsys):
    dot_dir = tmp_path / "dots"
    code, _, _ = run(
        capsys,
        ["decompose-bool", SWAP_INVARIANT, "-n", "3", "--dot", str(dot_dir), "--cert-only"],
    )
    assert code == 0
    names = sorted(p.name for p in dot_dir.iterdir())
    assert names == ["module.dot", "summand_00.dot", "summand_01.dot"]
    module_text = (dot_dir / "module.dot").read_text(encoding="utf-8")
    node_lines = [ln for ln in module_text.splitlines() if "label=" in ln and "->" not in ln]
    edge_lines = [ln for ln in module_text.splitlines() if "->" in ln]
    assert len(node_lines) == 3
    assert len(edge_lines) == 6
    # GF(2): no coefficient suffixes, labels are bare generator names
    assert all(('label="s1"' in ln or 'label="s2"' in ln) for ln in edge_lines)
    one_dim = (dot_dir / "summand_00.dot").read_text(encoding="utf-8")
    assert 'label="x1 + x2 + x3 + x1*x2*x3"' in one_dim


def test_decompose_bool_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["decompose-bool", SWAP_INVARIANT, "-n", "3", "-o", str(out_path)]
    )
    assert code == 0
    assert out == ""
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["signature"] == [1, 2]


def test_decompose_bool_parse_error(capsys):
    code, _, err = run(capsys, ["decompose-bool", "x1 + x9", "-n", "3"])
    assert code == 2
    assert "error:" in err and "position" in err


def test_removed_search_flags_are_rejected(capsys):
    # the search walks one fixed candidate list, so it has no budget or seed to set
    commands = [
        ["decompose-bool", "x1", "-n", "3"],
        ["decompose-perm", "s3.json", "--generator", "1,0,0"],
        ["cert", "--bool", "x1", "-n", "3"],
    ]
    for command in commands:
        for flag in (["--seed", "1"], ["--random-trials", "8"]):
            code, out, err = run(capsys, command + flag)
            assert code == 2 and out == ""
            assert "unrecognized arguments" in err and flag[0] in err


# ---------------------------------------------------------------------------
# decompose-perm


def test_decompose_perm_natural_s3(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    code, out, err = run(capsys, ["decompose-perm", path, "--generator", "1,0,0"])
    assert code == 0
    assert "into 2 summands" in err
    obj = json.loads(out)
    assert obj["field"] == "0"
    assert obj["signature"] == [1, 2]
    assert obj["fully_decomposed"] is True
    # the 1-dim summand is the invariant line
    line = obj["summands"][0]["basis"][0]
    assert line[0] == line[1] == line[2]


def test_decompose_perm_deterministic(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    args = ["decompose-perm", path, "--generator", "1,0,0"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_decompose_perm_rational_generator(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    code, out, _ = run(
        capsys, ["decompose-perm", path, "--generator", "1/2,-1/2,0", "--cert-only"]
    )
    assert code == 0
    assert out == "signature: 2\nundecided_leaves: 0\n"


def test_decompose_perm_wrong_generator_length(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    code, _, err = run(capsys, ["decompose-perm", path, "--generator", "1,0"])
    assert code == 2
    assert "expected 3" in err


def test_decompose_perm_non_bijection(tmp_path, capsys):
    path = write_json(
        tmp_path / "bad.json", {"degree": 3, "generators": {"s1": [0, 0, 2]}}
    )
    code, _, err = run(capsys, ["decompose-perm", path, "--generator", "1,0,0"])
    assert code == 2
    assert "bijection" in err


def test_decompose_perm_dot_over_q(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    dot_dir = tmp_path / "dots"
    code, _, _ = run(
        capsys,
        ["decompose-perm", path, "--generator", "1,0,0", "--dot", str(dot_dir), "--cert-only"],
    )
    assert code == 0
    assert (dot_dir / "module.dot").exists()
    text = (dot_dir / "module.dot").read_text(encoding="utf-8")
    # permutation entries are all 1, so no coefficient suffix appears
    assert ',1"' not in text
    assert "digraph module {" in text


# ---------------------------------------------------------------------------
# cert


def test_cert_bool_decomposable(capsys):
    code, out, err = run(capsys, ["cert", "--bool", SWAP_INVARIANT, "-n", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "decomposable"
    assert obj["mode"] == "fitting-scan"
    # a split is its two parts: no element is written
    assert obj["element"] is None
    assert len(obj["parts"]) == 2
    assert "verdict: decomposable" in err


def test_cert_bool_indecomposable(capsys):
    code, out, _ = run(capsys, ["cert", "--bool", "x1", "-n", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "indecomposable"
    assert obj["mode"] == "local"
    assert len(obj["radical"]) == obj["diagnostics"]["radical_dim"] == 1


def test_cert_candidates_exhausted_is_still_success(capsys):
    # the 4-dim leaf of regular Q8 whose endomorphism algebra is the quaternions
    q8 = os.path.join(GOLDEN, "regular_q8.json")
    code, out, err = run(
        capsys, ["cert", "--perm", q8, "--generator", "1/2,0,0,0,-1/2,0,0,0"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "undecided"
    assert obj["mode"] == "candidates-exhausted"
    assert obj["parts"] is None
    assert "verdict: undecided" in err


def test_cert_perm_fixed_vector(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    code, out, _ = run(capsys, ["cert", "--perm", path, "--generator", "1,1,1"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["verdict"], obj["mode"]) == ("indecomposable", "local")
    # End = F: x is the identity, written as null, and J = 0
    assert obj["element"] is None and "radical" not in obj


def test_cert_source_validation(tmp_path, capsys):
    path = write_json(tmp_path / "s3.json", s3_presentation())
    code, _, err = run(capsys, ["cert"])
    assert code == 2 and "module source" in err
    code, _, err = run(
        capsys, ["cert", "--bool", "x1", "-n", "3", "--perm", path, "--generator", "1,0,0"]
    )
    assert code == 2 and "one module source" in err
    code, _, err = run(capsys, ["cert", "--bool", "x1"])
    assert code == 2 and "-n" in err
    code, _, err = run(capsys, ["cert", "--perm", path])
    assert code == 2 and "--generator" in err
    # the other source's flag is an error, not ignored
    code, out, err = run(capsys, ["cert", "--bool", "x1", "-n", "3", "--generator", "1,0,0"])
    assert code == 2 and out == "" and "error:" in err and "--generator" in err
    code, out, err = run(capsys, ["cert", "--perm", path, "--generator", "1,0,0", "-n", "7"])
    assert code == 2 and out == "" and "error:" in err and "-n" in err


def test_cert_zero_generator(capsys):
    code, _, err = run(capsys, ["cert", "--bool", "0", "-n", "3"])
    assert code == 2
    assert "zero" in err


# ---------------------------------------------------------------------------
# top-level behavior


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_bad_flag_value_exits_2(capsys):
    assert cli.main(["decompose-bool", "x1", "-n", "three"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "minimize" in out and "decompose-bool" in out


def test_one_parser_serves_every_call_in_a_process(capsys):
    argv = ["decompose-bool", "x1*x2*x3 + x4*x5", "-n", "5"]
    cli.build_parser.cache_clear()
    fresh = run(capsys, argv)
    assert fresh[0] == 0
    with open(os.path.join(GOLDEN, "decompose_bool_split_4_6.out"), encoding="utf-8") as handle:
        assert fresh[1] == handle.read()
    parser = cli.build_parser()
    assert run(capsys, ["decompose-bool", "x1", "-n", "three"])[0] == 2
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and "decompose-bool" in out
    assert run(capsys, argv) == fresh
    assert cli.build_parser() is parser


def test_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "doubled.json", counting_doubled())

    def boom(a):
        raise RuntimeError("covering tree failed to span its own successors")

    monkeypatch.setattr(cli, "minimize", boom)
    code, _, err = run(capsys, ["minimize", path])
    assert code == 1
    assert "internal error:" in err
