"""Walkthrough: permutation modules over the rationals.

A permutation presentation lists generators as index arrays; the module
A*g is the orbit span of a starting vector.  Over Q every permutation
module is semisimple, so complete decompositions always exist; the
search still has to find them, and every leaf is certified.
"""

from itertools import permutations

from cyclomod import QQ
from cyclomod.decompose import complete_decomposition
from cyclomod.endo import compute_end
from cyclomod.perms import PermutationPresentation, permutation_module

# --- the natural S_3 module on Q^3 --------------------------------------

natural = PermutationPresentation(3, [("s1", [1, 0, 2]), ("s2", [0, 2, 1])])
m = permutation_module(natural, (1, 0, 0))
print(f"natural module: dim {m.dim}")

e = compute_end(m)
print(f"endomorphism algebra dimension: {e.dim}")

report = complete_decomposition(m)
print(f"signature: {report.signature}")
for k, block in enumerate(report.summands):
    print(f"  summand {k}: dim {block.dim}")
    for v in block.basis_vectors:
        print(f"    ({', '.join(str(x) for x in v)})")

# Each piece is the orbit of the projection of the generator (1,0,0)
# onto it: the 1-dim piece is the invariant line Q*(1,1,1), generated by
# (1/3,1/3,1/3); the 2-dim piece is the standard representation
# {v : v1+v2+v3 = 0}, generated by (2/3,-1/3,-1/3).

# --- the regular module: S_3 acting on itself ----------------------------

elements = list(permutations(range(3)))
print(f"\ngroup elements (lexicographic): {elements}")
# left translation by g sends element e, at index j, to g o e, where
# (g o e)[i] = g[e[i]]: the generator g moves basis vector j to the index of g o e
index = {e: j for j, e in enumerate(elements)}
regular = PermutationPresentation(6, [
    (label, tuple(index[tuple(g[i] for i in e)] for e in elements))
    for label, g in [("s1", (1, 0, 2)), ("s2", (0, 2, 1))]
])
m6 = permutation_module(regular, (1, 0, 0, 0, 0, 0))
print(f"regular module: dim {m6.dim}")

report6 = complete_decomposition(m6)
print(f"signature: {report6.signature}")
print(f"fully decomposed: {report6.fully_decomposed}")
# 1 + 1 + 2 + 2: trivial, sign, and the standard representation twice,
# exactly the squares-sum-to-6 pattern of the S_3 character table.

# --- a generator that misses part of the space ---------------------------

half = permutation_module(natural, ("1/2", "-1/2", "0"))
print(f"\nmodule of (1/2, -1/2, 0): dim {half.dim}")
report_half = complete_decomposition(half)
print(f"signature: {report_half.signature}")
# The orbit of a zero-sum vector never leaves the standard plane, so the
# module is already irreducible: one leaf, certified indecomposable.
cert = report_half.certificates[0]
print(f"leaf verdict: {cert.verdict} ({cert.mode})")
