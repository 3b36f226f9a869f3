"""Walkthrough: decomposing a boolean function module over GF(2).

The symmetric group S_n permutes variables, hence acts on the 2^n ANF
coefficients of n-variable boolean functions.  The cyclic module A*f is
everything reachable from f under that action; its direct-sum structure
is an invariant of f that survives variable renaming.
"""

from cyclomod.boolfn import decompose_boolean, monomial_names, parse_anf, sn_action
from cyclomod.modules import action_graph, orbit_basis
from cyclomod.serialize import graph_to_dot

N = 3
NAMES = monomial_names(N)

# A function fixed as a set under swapping x1, x2 but not under S_3.
f = parse_anf("x1 + x2 + x3 + x1*x3 + x2*x3 + x1*x2*x3", N)
print(f"f = {f}")

# The orbit basis: breadth-first from f, one basis vector per kept word.
action = sn_action(N)
m = orbit_basis(action, f.vector())
print(f"\nA*f has dimension {m.dim} inside the {action.dim}-dim ANF space")
for word, vec in zip(m.basis_words, m.basis_vectors):
    label = "".join(word) or "(empty)"
    terms = " + ".join(NAMES[i] for i, c in enumerate(vec) if c)
    print(f"  word {label:8}  ->  {terms}")

# Decompose completely: every leaf carries an indecomposability
# certificate, or an explicit undecided flag if a budget ran out.
report = decompose_boolean(f)
print(f"\nsignature: {report.signature}")
print(f"fully decomposed: {report.fully_decomposed}")
for k, (block, cert) in enumerate(zip(report.summands, report.certificates)):
    print(f"\nsummand {k}: dim {block.dim}, verdict {cert.verdict} ({cert.mode})")
    for v in block.basis_vectors:
        terms = " + ".join(NAMES[i] for i, c in enumerate(v) if c)
        print(f"  basis  {terms}")

# How the split was found: the endomorphism algebra of A*f contains a
# non-nilpotent, non-invertible element; Fitting's lemma splits on it.
split = report.split_certificates[0]
print(f"\nsplit certificate mode: {split.mode}")
print("splitting element on the module basis:")
for row in split.element.entries:
    print("  [" + " ".join(str(x) for x in row) + "]")

# The action graph renders with graphviz:  dot -Tpng -o module.png
dot = graph_to_dot(action_graph(m, NAMES), "module", gf2=True)
print("\nDOT source of the module action graph:")
print(dot)
