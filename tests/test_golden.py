"""Exact stdout bytes of the CLI on fixed inputs.

Every case is a CLI argument list run against the input files in
tests/golden/; its stdout must equal the committed file
tests/golden/<case>.out byte for byte.  The other CLI tests check that
output repeats across runs; these pin what it is.  Two more goldens are
built in-process: minimize_gf2_160.out, the JSON text of a minimized
automaton that tests/fixtures.py builds, and decompose_regular_s4_gf3.out,
the report of the regular S4 module over GF(3), the one golden that
runs the odd-p kernel end to end (the CLI decomposes over GF(2) or Q
only).  After a change that is meant to alter the output, rewrite the
files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import sys

import pytest

from cyclomod import cli, gf
from cyclomod.decompose import check_report, complete_decomposition
from cyclomod.serialize import automaton_to_json, report_to_json, to_text
from cyclomod.wfa import equivalent, minimize

from fixtures import gf2_redundant_automaton, regular_s4_module

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SWAP_INVARIANT = "x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"
SPLIT_4_6 = "x1*x2*x3 + x4*x5"

# name -> argv; "{golden}" stands for the tests/golden directory
CASES = {
    "minimize_gf2": ["minimize", "{golden}/automaton_gf2.json"],
    "minimize_gf3": ["minimize", "{golden}/automaton_gf3.json"],
    "minimize_q": ["minimize", "{golden}/automaton_q.json"],
    "decompose_bool_swap_invariant": ["decompose-bool", SWAP_INVARIANT, "-n", "3"],
    "decompose_bool_split_4_6": ["decompose-bool", SPLIT_4_6, "-n", "5"],
    # MAX_VARIABLES: 4096 monomials, the swaps applied as index maps
    "decompose_bool_x1_n12": ["decompose-bool", "x1", "-n", "12", "--cert-only"],
    "cert_bool_swap_invariant": ["cert", "--bool", SWAP_INVARIANT, "-n", "3"],
    "cert_bool_split_4_6": ["cert", "--bool", SPLIT_4_6, "-n", "5"],
    "decompose_perm_regular_s3": [
        "decompose-perm", "{golden}/regular_s3.json", "--generator", "1,0,0,0,0,0",
    ],
    "decompose_perm_regular_q8": [
        "decompose-perm", "{golden}/regular_q8.json", "--generator", "1,0,0,0,0,0,0,0",
    ],
}


def case_argv(name):
    return [arg.replace("{golden}", GOLDEN) for arg in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden_bytes(name, capsys):
    assert cli.main(case_argv(name)) == 0
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as handle:
        assert out == handle.read()


def minimized_gf2_160():
    """A seeded 160-state GF(2) automaton a + b - b and the text of its minimization."""
    source = gf2_redundant_automaton(160, seed=1)
    result = minimize(source)
    return source, result, to_text(automaton_to_json(result))


def test_minimize_large_gf2_automaton_matches_golden_bytes():
    source, result, text = minimized_gf2_160()
    assert result.dim == 40
    with open(os.path.join(GOLDEN, "minimize_gf2_160.out"), encoding="utf-8", newline="") as handle:
        assert text == handle.read()
    assert equivalent(source, result)


def regular_s4_gf3():
    """The decomposition of the regular S4 module over GF(3), and the text of its report."""
    report = complete_decomposition(regular_s4_module(gf(3)))
    return report, to_text(report_to_json(report))


def test_regular_s4_over_gf3_matches_golden_bytes():
    report, text = regular_s4_gf3()
    assert report.signature == (3,) * 8
    modes = {c.mode for c in report.certificates + report.split_certificates}
    assert {"local", "fitting-scan", "dimension-1"} <= modes
    with open(os.path.join(GOLDEN, "decompose_regular_s4_gf3.out"), encoding="utf-8", newline="") as handle:
        assert text == handle.read()
    check_report(report)


def _write(name, text):
    with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {name}.out", file=sys.stderr)


def main():
    import contextlib
    import io

    for name in sorted(CASES):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(case_argv(name))
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        _write(name, buffer.getvalue())
    _write("minimize_gf2_160", minimized_gf2_160()[2])
    _write("decompose_regular_s4_gf3", regular_s4_gf3()[1])


if __name__ == "__main__":
    main()
