"""Exact stdout bytes of the CLI on fixed inputs.

Every case is a CLI argument list run against the input files in
tests/golden/; its stdout must equal the committed file
tests/golden/<case>.out byte for byte.  The other CLI tests check that
output repeats across runs; these pin what it is.  After a change that
is meant to alter the output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import sys

import pytest

from cyclomod import cli

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


def main():
    import contextlib
    import io

    for name in sorted(CASES):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(case_argv(name))
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
        print(f"wrote {name}.out", file=sys.stderr)


if __name__ == "__main__":
    main()
