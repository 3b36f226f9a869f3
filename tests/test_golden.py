"""Exact stdout bytes of the CLI on fixed inputs.

Every case is a CLI argument list run against the input files in
tests/golden/; its stdout must equal the committed file
tests/golden/<case>.out byte for byte.  The other CLI tests check that
output repeats across runs; these pin what it is.  More goldens
are built in-process: minimize_gf2_160.out and
minimize_gf2147483647_32.out, the JSON text of minimized automata that
tests/fixtures.py builds; decompose_regular_s4_gf3.out,
the report of the regular S4 module over GF(3), the one golden that
runs the odd-p kernel end to end (the CLI decomposes over GF(2) or Q
only); and decompose_companion_q.out, the one report that carries a
min-poly-split certificate, whose parts depend on the order of the
factors over Q.  Each demo in demos/ is run in-process as well, and its
stdout must equal tests/golden/demo_<name>.out.  After a change that is meant
to alter the output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import runpy
import sys
from fractions import Fraction

import pytest

from cyclomod import GF2, QQ, cli, gf
from cyclomod.decompose import check_report, complete_decomposition
from cyclomod.endo import _MODES
from cyclomod.modules import AlgebraAction, orbit_basis
from cyclomod.serialize import automaton_to_json, report_to_json, to_text
from cyclomod.wfa import equivalent, minimize

from fixtures import redundant_automaton, regular_s4_module

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMO_NAMES = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))

SWAP_INVARIANT = "x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3"
SPLIT_4_6 = "x1*x2*x3 + x4*x5"

# name -> argv; "{golden}" stands for the tests/golden directory
CASES = {
    "minimize_gf2": ["minimize", "{golden}/automaton_gf2.json"],
    "minimize_gf3": ["minimize", "{golden}/automaton_gf3.json"],
    # 72 states: the first covering tree's GF(3) lanes are 2 bytes wide, past 63 entries
    "minimize_gf3_72": ["minimize", "{golden}/automaton_gf3_72.json"],
    "minimize_q": ["minimize", "{golden}/automaton_q.json"],
    # entries with denominators, read into and written out of integer rows over one denominator
    "minimize_q_fractions": ["minimize", "{golden}/automaton_q_fractions.json"],
    # 64 states over Q: the spins' integers grow with the words, hundreds of bits deep
    "minimize_q_64": ["minimize", "{golden}/automaton_q_64.json"],
    # 24 states over Q with entries up to 10^12: every packed Q sum needs signed lanes past 8 bytes
    "minimize_q_wide": ["minimize", "{golden}/automaton_q_wide.json"],
    "decompose_bool_swap_invariant": ["decompose-bool", SWAP_INVARIANT, "-n", "3"],
    "decompose_bool_split_4_6": ["decompose-bool", SPLIT_4_6, "-n", "5"],
    # MAX_VARIABLES: 4096 monomials, the swaps applied as index maps
    "decompose_bool_x1_n12": ["decompose-bool", "x1", "-n", "12", "--cert-only"],
    "cert_bool_swap_invariant": ["cert", "--bool", SWAP_INVARIANT, "-n", "3"],
    "cert_bool_split_4_6": ["cert", "--bool", SPLIT_4_6, "-n", "5"],
    "decompose_perm_regular_s3": [
        "decompose-perm", "{golden}/regular_s3.json", "--generator", "1,0,0,0,0,0",
    ],
    # a generator with denominators: every basis vector and certificate carries them
    "decompose_perm_regular_s3_fractional": [
        "decompose-perm", "{golden}/regular_s3.json", "--generator=1/2,-1/3,0,0,2,0",
    ],
    # one certificate of a module with denominators: its two parts are Q vectors over a denominator
    "cert_perm_regular_s3_fractional": [
        "cert", "--perm", "{golden}/regular_s3.json", "--generator=1/2,-1/3,0,0,2,0",
    ],
    "decompose_perm_regular_q8": [
        "decompose-perm", "{golden}/regular_q8.json", "--generator", "1,0,0,0,0,0,0,0",
    ],
    # a local certificate whose radical J has a basis of two first columns, x the identity (null)
    "cert_bool_local_n4": ["cert", "--bool", "x1*x2 + x3*x4 + x1*x3", "-n", "4"],
    # a local certificate with J = 0 and x not the identity: End = Q(omega), a field of degree 2
    "cert_perm_cyclic_3_field": ["cert", "--perm", "{golden}/cyclic_3.json", "--generator=1,-1,0"],
    # the quaternion leaf of regular Q8, generated by 1 - x for the central involution x: undecided
    "cert_perm_regular_q8_quaternion": [
        "cert", "--perm", "{golden}/regular_q8.json", "--generator=1,0,0,0,-1,0,0,0",
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


# in-process minimize goldens: name -> (field, states); over GF(2^31 - 1)
# the covering trees' packed lanes are 9 bytes wide, past every struct format
MINIMIZED = {
    "minimize_gf2_160": (GF2, 160),
    "minimize_gf2147483647_32": (gf(2147483647), 32),
}


def minimized(name):
    """A seeded automaton a + b - b and the text of its minimization."""
    field, dim = MINIMIZED[name]
    source = redundant_automaton(field, dim, seed=1)
    result = minimize(source)
    return source, result, to_text(automaton_to_json(result))


def _check_minimized(name, dim):
    source, result, text = minimized(name)
    assert result.dim == dim
    with open(os.path.join(GOLDEN, f"{name}.out"), encoding="utf-8", newline="") as handle:
        assert text == handle.read()
    assert equivalent(source, result)


def test_minimize_large_gf2_automaton_matches_golden_bytes():
    _check_minimized("minimize_gf2_160", 40)


def test_minimize_over_a_large_prime_matches_golden_bytes():
    _check_minimized("minimize_gf2147483647_32", 8)


def regular_s4_gf3():
    """The decomposition of the regular S4 module over GF(3), and the text of its report."""
    report = complete_decomposition(regular_s4_module(gf(3)))
    return report, to_text(report_to_json(report))


def test_regular_s4_over_gf3_matches_golden_bytes():
    report, text = regular_s4_gf3()
    assert report.signature == (3,) * 8
    modes = {c.mode for c in report.certificates + report.split_certificates}
    assert modes == {"local", "fitting-scan"}
    assert any(c.radical for c in report.certificates) and not all(c.radical for c in report.certificates)
    with open(os.path.join(GOLDEN, "decompose_regular_s4_gf3.out"), encoding="utf-8", newline="") as handle:
        assert text == handle.read()
    check_report(report)


def companion_q_module():
    """The cyclic module of the companion matrix of (t^2 - 1/2)(t^2 - 2/9) over Q.

    f = t^4 - 13/18 t^2 + 1/9, and the companion matrix C takes e_i to
    e_(i+1) and e_3 to -(c_0 e_0 + ... + c_3 e_3), so e_0 generates Q^4
    and End = Q[C] = Q[t]/(f), a product of two quadratic fields.  The
    split is taken on the minimal polynomial of a candidate, whose first
    factor, as rationals, is t^2 - 1/2: the first part lies in its
    primary summand.
    """
    c = [Fraction(1, 9), 0, Fraction(-13, 18), 0]
    companion = [[int(j == i - 1) for j in range(3)] + [-c[i]] for i in range(4)]
    return orbit_basis(AlgebraAction(QQ, [("c", companion)]), [1, 0, 0, 0])


def companion_q():
    """The decomposition of companion_q_module() and its report's JSON text."""
    report = complete_decomposition(companion_q_module())
    return report, to_text(report_to_json(report))


def test_companion_over_q_min_poly_split_matches_golden_bytes():
    report, text = companion_q()
    assert report.signature == (2, 2)
    modes = sorted(c.mode for c in report.certificates + report.split_certificates)
    assert modes == ["local", "local", "min-poly-split"]
    # each leaf is a quadratic field, x its generator and J = 0
    assert all(c.element is not None and not c.radical for c in report.certificates)
    with open(os.path.join(GOLDEN, "decompose_companion_q.out"), encoding="utf-8", newline="") as handle:
        assert text == handle.read()
    check_report(report)


def golden_certificates():
    """Every certificate in the JSON goldens, with the characteristic of its field and its module's dimension.

    Each cert output counts, and each report's leaves and splits.  A report
    names its field; a cert output does not, and is over GF(2) for --bool
    and over Q for --perm.  The dimension is a report leaf's, and None for
    a split, whose block is not written, and for a cert output.
    """
    certs = []
    for name in sorted(os.listdir(GOLDEN)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
            text = handle.read()
        obj = json.loads(text) if text.startswith("{") else {}
        if "verdict" in obj:
            certs.append((2 if name.startswith("cert_bool") else 0, None, obj))
        elif "split_certificates" in obj:
            p = int(obj["field"].removeprefix("p:"))
            certs += [(p, leaf["dim"], leaf["certificate"]) for leaf in obj["summands"]]
            certs += [(p, None, c) for c in obj["split_certificates"]]
    return certs


def test_every_golden_certificate_carries_only_its_verdicts_witness():
    # an indecomposable certificate is "local", its witness the first column
    # of an element x, null for the identity, and the first columns of a basis
    # of a radical J, written only when J != 0; a decomposable one is its mode
    # and two parts that sum to e_0, with a null element; an undecided one
    # carries no witness at all.  Every witness is a flat list of scalar
    # strings, as long as the module
    certs = golden_certificates()
    shapes = []
    others = []
    for p, n, cert in certs:
        assert cert["mode"] in _MODES[cert["verdict"]]
        assert ("radical" in cert) <= (cert["verdict"] == "indecomposable")
        assert (cert["parts"] is not None) == (cert["verdict"] == "decomposable")
        vectors = [cert["element"]] * (cert["element"] is not None) + cert.get("radical", []) + (cert["parts"] or [])
        assert all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in vectors)
        lengths = {len(v) for v in vectors}
        assert len(lengths) <= 1 and (n is None or lengths <= {n})
        if cert["verdict"] == "indecomposable":
            shapes.append(("radical" in cert, cert["element"] is not None))
        else:
            assert cert["element"] is None
            others.append(cert["mode"])
        if cert["parts"] is not None:
            total = [Fraction(a) + Fraction(b) for a, b in zip(*cert["parts"])]
            assert [x % p if p else x for x in total] == [1] + [0] * (len(total) - 1)
    # (J != 0, x not the identity): x = 1 with J = 0 on 21 leaves, a field
    # generated by x on 3, and x = 1 with a nonzero radical on 4
    assert sorted(shapes) == [(False, False)] * 21 + [(False, True)] * 3 + [(True, False)] * 4
    assert sorted(others) == ["candidates-exhausted"] * 2 + ["fitting-scan"] * 22 + ["min-poly-split"]


def demo_stdout(name):
    """The stdout of demos/<name>.py, run as a script in this process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    return buffer.getvalue()


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_stdout_matches_golden_bytes(name):
    with open(os.path.join(GOLDEN, f"demo_{name}.out"), encoding="utf-8", newline="") as handle:
        assert demo_stdout(name) == handle.read()


def _write(name, text):
    with open(os.path.join(GOLDEN, f"{name}.out"), "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote {name}.out", file=sys.stderr)


def main():
    for name in sorted(CASES):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(case_argv(name))
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        _write(name, buffer.getvalue())
    for name in MINIMIZED:
        _write(name, minimized(name)[2])
    _write("decompose_regular_s4_gf3", regular_s4_gf3()[1])
    _write("decompose_companion_q", companion_q()[1])
    for name in DEMO_NAMES:
        _write(f"demo_{name}", demo_stdout(name))


if __name__ == "__main__":
    main()
