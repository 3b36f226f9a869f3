"""Walkthrough: a nilpotent Jordan block over Q and over GF(2), certified through its radical.

A single nilpotent Jordan block N acting on F^d is indecomposable, yet
no element of its endomorphism algebra E = F[N]/N^d witnesses that on
its own: every element is a unit or nilpotent, and every minimal
polynomial is a power of one irreducible.  The search collects the
nilpotent parts f(x) of the candidates it factors into an ideal J, here
J = (N).  The "local" certificate names J and an element x whose
minimal polynomial modulo J is irreducible of degree dim E - dim J;
then E/J is a field, E is local, and the module cannot split.  The
same certificate, checked the same way, serves over Q and over GF(2).
"""

from cyclomod import GF2, QQ
from cyclomod.decompose import check_report, complete_decomposition
from cyclomod.modules import AlgebraAction, orbit_basis

D = 4

# N conjugated by P = I + E_01 + E_23 (and P^-1 = I - E_01 - E_23), so
# the input is not already in Jordan form; P e_d generates the module.
a = [
    [0, 1, 1, -1],
    [0, 0, 1, -1],
    [0, 0, 0, 1],
    [0, 0, 0, 0],
]
g = (0, 0, 1, 1)
for field in (QQ, GF2):
    m = orbit_basis(AlgebraAction(field, [("n", a)]), g)
    print(f"module of the conjugated {D}x{D} Jordan block over {field}: dim {m.dim}")

    report = complete_decomposition(m)
    check_report(report)
    print(f"  signature: {report.signature}")
    cert = report.certificates[0]
    print(f"  verdict: {cert.verdict} ({cert.mode})")
    print(f"  dim End = {cert.diagnostics['endo_dim']}, dim J = {len(cert.radical)}")
# dim End = 4 and dim J = 3 over both fields: E/J is the prime field, so
# the identity is the element x.
