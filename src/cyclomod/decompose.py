"""Complete direct-sum decomposition of cyclic modules.

The decomposition is one step applied until nothing is left to split.
decompose_once is that step: it computes the endomorphism algebra of a
cyclic module, searches it for a splitting element, re-checks the
certificate found and, when the certificate is decomposable, splits the
module along it.  A local certificate is the one not re-checked there:
the search makes it only after it has passed the verifier's own test of
a local certificate, so each local test runs once per leaf in the
pipeline.  check_report still re-checks every leaf in full, on an
endomorphism algebra computed again from scratch.
complete_decomposition runs the step depth first from the whole module
until every leaf is certified indecomposable or the search runs out of
candidates.

Some leaves are known to have End = F, the scalars, before their End is
computed, by a dimension count.  A 1-dimensional module is one.  So are
both halves L and R of a split whose block has an End of dimension 2:
the maps that act as f on L and as g on R embed End(L) x End(R) into
End(L + R), and each factor holds its identity, so
dim End(L) + dim End(R) <= 2 forces dim End(L) = dim End(R) = 1.  Such a
leaf gets the certificate the search would make for it, "dimension-1",
with no compute_end, no search and no verifier call.  check_report
still computes every leaf's End from scratch and re-checks it there.

Every block of the tree is a CyclicModule over the original ambient
action.  A direct summand of a cyclic module A*g is cyclic, generated
by the projection of g onto it along the other summand.  The check of a
decomposable certificate writes the block's generator e_0 in the basis
of both summands and spins each part under the block's restricted
matrices; each orbit must be its summand.  Those two covering trees are
the split: only their kept vectors are mapped back to ambient
coordinates.  So no generator is searched for, no split steps a vector
of the ambient space, and the endomorphism algebra of every block is
spun from its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .endo import _dimension_one, compute_end, find_splitting_element, verify_certificate
from .linalg import DenseMatrix, Echelon
from .modules import CyclicModule, _module_from_tree, orbit_basis


def decompose_once(m: CyclicModule):
    """complete_decomposition's single step.

    Certifies m and splits it along a decomposable certificate.  Returns
    (certificate, None) for a leaf and (certificate, pair of modules)
    for a split.  verify_certificate re-checks every certificate found
    but a local or field-generated one.  The search makes a local one
    only once it has passed the verifier's own test.  A field-generated
    one is certified by construction, an element built from E's basis
    whose minimal polynomial has degree dim E, and only check_report
    checks it in full.  A 1-dimensional m is a dimension-1 leaf, and its
    End is not computed.  The halves are the covering trees that the
    certificate check spun in block coordinates; the block basis is
    injective, so their kept words and restricted matrices are the ones
    an orbit over the ambient action would give, and only the kept
    vectors are mapped to ambient coordinates through the block basis.
    """
    if m.dim == 0:
        raise ValueError("the zero module has no decomposition question")
    if m.dim == 1:
        return _dimension_one(), None
    e = compute_end(m)
    cert = find_splitting_element(e)
    if cert.mode in ("local", "field-generated"):
        return cert, None
    trees = verify_certificate(e, cert)
    if trees is None:
        return cert, None
    basis = DenseMatrix._from_vectors(m.field, m._raw_vectors, m.action.dim)
    halves = []
    for tree in trees:
        vectors = [basis._times_row(v) for v in tree.vectors]
        halves.append(_module_from_tree(m.action, vectors[0], tree, vectors, None))
    return cert, tuple(halves)


@dataclass(frozen=True)
class DecompositionReport:
    """Leaves of the decomposition tree with their certificates."""

    module: CyclicModule
    summands: tuple                 # CyclicModule leaves, sorted
    certificates: tuple             # one per leaf, same order
    split_certificates: tuple       # the decomposable certificates, in discovery order
    signature: tuple                # leaf dimensions, ascending

    @property
    def fully_decomposed(self) -> bool:
        return all(c.verdict == "indecomposable" for c in self.certificates)

    @property
    def undecided_count(self) -> int:
        return sum(1 for c in self.certificates if c.verdict == "undecided")


def complete_decomposition(m: CyclicModule) -> DecompositionReport:
    """Split until every leaf is certified indecomposable or undecided."""
    if m.dim == 0:
        return DecompositionReport(m, (), (), (), ())
    leaves = []
    splits = []
    stack = [m]
    while stack:
        block = stack.pop()
        cert, halves = decompose_once(block)
        if halves is None:
            leaves.append((block, cert))
            continue
        splits.append(cert)
        if cert.diagnostics["endo_dim"] == 2:
            # End = F on both halves (see the module docstring)
            leaves += [(h, _dimension_one()) for h in halves]
            continue
        left, right = halves
        # depth-first, left side first
        stack.append(right)
        stack.append(left)
    if m.field.characteristic:
        leaves.sort(key=lambda pair: (pair[0].dim, pair[0]._raw_vectors))
    else:
        # the basis vectors over one denominator common to every leaf, so
        # that their integers compare as the rationals do
        d = lcm(*[v.den for block, _ in leaves for v in block._raw_vectors])
        leaves.sort(key=lambda pair: (pair[0].dim, [[a * (d // v.den) for a in v] for v in pair[0]._raw_vectors]))
    blocks = tuple(pair[0] for pair in leaves)
    certs = tuple(pair[1] for pair in leaves)
    sig = tuple(sorted(b.dim for b in blocks))
    return DecompositionReport(m, blocks, certs, tuple(splits), sig)


def check_report(report: DecompositionReport):
    """Independent consistency pass over a finished report; raises on failure.

    Every leaf is regenerated from its generator; the regenerated module
    must be the leaf, and it is what the remaining checks and the
    certificate re-check run on.  Its covering tree is closed under every
    generator by construction, so the leaf is a submodule without a test
    of its own.
    """
    m = report.module
    if sum(b.dim for b in report.summands) != m.dim:
        raise RuntimeError("leaf dimensions do not sum to the module dimension")
    if report.signature != tuple(sorted(b.dim for b in report.summands)):
        raise RuntimeError("signature does not match the leaves")
    if len(report.certificates) != len(report.summands):
        raise RuntimeError("leaves and certificates differ in number")
    combined = Echelon(m.field, m.action.dim)
    for block, cert in zip(report.summands, report.certificates):
        leaf = orbit_basis(m.action, block._raw_generator)
        if leaf._raw_vectors != block._raw_vectors:
            raise RuntimeError("leaf generator does not regenerate the leaf")
        for v in leaf._raw_vectors:
            if not m.contains(v):
                raise RuntimeError("leaf vector escapes the module")
            if not combined.add(v):
                raise RuntimeError("leaf bases overlap")
        if cert.verdict == "decomposable":
            raise RuntimeError("a leaf carries a decomposable certificate")
        verify_certificate(compute_end(leaf), cert)
