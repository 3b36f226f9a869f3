"""Walkthrough: a nilpotent Jordan block over Q, certified through its radical.

A single nilpotent Jordan block N acting on Q^d is indecomposable, yet
no element of its endomorphism algebra E = Q[N]/N^d witnesses that on
its own: every element is a unit or nilpotent, and every minimal
polynomial is a power of one irreducible.  The "local" certificate
names the radical J = (N) and an element x whose minimal polynomial
modulo J is irreducible of degree dim E - dim J; then E/J is a field,
E is local, and the module cannot split.
"""

from cyclomod import QQ
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
m = orbit_basis(AlgebraAction(QQ, [("n", a)]), g)
print(f"module of the conjugated {D}x{D} Jordan block: dim {m.dim}")

report = complete_decomposition(m)
check_report(report)
print(f"signature: {report.signature}")
cert = report.certificates[0]
print(f"verdict: {cert.verdict} ({cert.mode})")
print(f"dim End = {cert.diagnostics['endo_dim']}, dim J = {len(cert.radical)}")
# dim End = 4 and dim J = 3: E/J = Q, so the identity is the element x.
