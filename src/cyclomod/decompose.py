"""Complete direct-sum decomposition of cyclic modules.

The decomposition is one step applied until nothing is left to split.
decompose_once is that step: it certifies a module or block
(endo.certify: endomorphism algebra, splitting-element search, re-check
of the certificate) and, when the certificate is decomposable, splits
it along the certificate.  complete_decomposition runs the step depth
first from the whole module until every leaf is certified
indecomposable or the search budget gives out.  A split produces bases
in the coordinates of the block being split; they are pulled back to
the original ambient space so every leaf is a subspace of the input
module.

Each leaf gets a generator search: the first leaf basis vector whose
orbit under the ambient action spans the leaf.  Direct summands of a
cyclic module are always cyclic (project the generator), but the
projection is not computed here, so a leaf where no basis vector works
is kept with its basis and flagged rather than guessed at.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .endo import (
    Certificate,
    EndoAlgebra,
    SearchConfig,
    certify,
    compute_end,
    verify_certificate,
)
from .linalg import DenseMatrix, SpanSolver, Vector
from .modules import AlgebraAction, CyclicModule, orbit_basis


@dataclass(frozen=True)
class SummandBlock:
    """One stable subspace: ambient basis plus the action restricted to it."""

    action: AlgebraAction
    ambient_basis: tuple
    restricted: dict
    module: Optional[CyclicModule]
    generator: Optional[Vector]

    @property
    def dim(self) -> int:
        return len(self.ambient_basis)

    @property
    def is_cyclic(self) -> bool:
        return self.module is not None


def block_from_vectors(action: AlgebraAction, vectors: Sequence[Vector]) -> SummandBlock:
    """Restrict the action to the span of the given stable vectors.

    Raises RuntimeError when the span is not generator stable, and runs
    the generator search over the given vectors in order.
    """
    field = action.field
    vectors = [tuple(field.scalar(x) for x in v) for v in vectors]
    solver = SpanSolver(field, action.dim)
    for v in vectors:
        if not solver.add(v):
            raise RuntimeError("block basis is linearly dependent")
    n = len(vectors)
    for v in vectors:
        sub = orbit_basis(action, v)
        if sub.dim == n and all(solver.contains(w) for w in sub.basis_vectors):
            return SummandBlock(action, sub.basis_vectors, dict(sub.restricted), sub, sub.generator)
    restricted = {}
    for label in action.labels:
        mat = action.matrices[label]
        columns = []
        for v in vectors:
            coords = solver.coordinates(mat.apply(v))
            if coords is None:
                raise RuntimeError(f"block is not stable under generator {label!r}")
            columns.append(coords)
        restricted[label] = DenseMatrix.from_columns(field, columns, rows=n)
    return SummandBlock(action, tuple(vectors), restricted, None, None)


def _block_to_ambient(field, block: SummandBlock, coords: Vector) -> Vector:
    out = [field.zero()] * len(block.ambient_basis[0])
    for c, b in zip(coords, block.ambient_basis):
        if c:
            out = [acc + c * x for acc, x in zip(out, b)]
    return tuple(out)


def _split_block(block: SummandBlock, cert: Certificate):
    field = block.action.field
    halves = []
    for side in cert.summands:
        vectors = [_block_to_ambient(field, block, coords) for coords in side]
        halves.append(block_from_vectors(block.action, vectors))
    if halves[0].dim + halves[1].dim != block.dim:
        raise RuntimeError("split does not preserve dimension")
    return halves[0], halves[1]


def _root_block(m: CyclicModule) -> SummandBlock:
    return SummandBlock(m.action, m.basis_vectors, dict(m.restricted), m, m.generator)


def decompose_once(m, config: Optional[SearchConfig] = None):
    """complete_decomposition's single step, on a CyclicModule or a SummandBlock.

    Certifies m and splits it along a decomposable certificate.  Returns
    (certificate, None) for a leaf and (certificate, pair of blocks) for
    a split.
    """
    if m.dim == 0:
        raise ValueError("the zero module has no decomposition question")
    block = m if isinstance(m, SummandBlock) else _root_block(m)
    cert = certify(block, config)
    if cert.verdict != "decomposable":
        return cert, None
    return cert, _split_block(block, cert)


@dataclass(frozen=True)
class DecompositionReport:
    """Leaves of the decomposition tree with their certificates."""

    module: CyclicModule
    summands: tuple                 # SummandBlock leaves, sorted
    certificates: tuple             # one per leaf, same order
    split_certificates: tuple       # the decomposable certificates, in discovery order
    signature: tuple                # leaf dimensions, ascending
    config: SearchConfig

    @property
    def fully_decomposed(self) -> bool:
        return all(c.verdict == "indecomposable" for c in self.certificates)

    @property
    def undecided_count(self) -> int:
        return sum(1 for c in self.certificates if c.verdict == "undecided")


def _leaf_sort_key(block: SummandBlock):
    basis_key = tuple(tuple(x.sort_key() for x in v) for v in block.ambient_basis)
    return (block.dim, basis_key)


def complete_decomposition(
    m: CyclicModule, config: Optional[SearchConfig] = None
) -> DecompositionReport:
    """Split until every leaf is certified indecomposable or undecided."""
    config = config or SearchConfig()
    if m.dim == 0:
        return DecompositionReport(m, (), (), (), (), config)
    leaves = []
    splits = []
    stack = [_root_block(m)]
    while stack:
        block = stack.pop()
        cert, halves = decompose_once(block, config)
        if halves is None:
            leaves.append((block, cert))
            continue
        splits.append(cert)
        left, right = halves
        # depth-first, left side first
        stack.append(right)
        stack.append(left)
    leaves.sort(key=lambda pair: _leaf_sort_key(pair[0]))
    blocks = tuple(pair[0] for pair in leaves)
    certs = tuple(pair[1] for pair in leaves)
    sig = tuple(sorted(b.dim for b in blocks))
    return DecompositionReport(m, blocks, certs, tuple(splits), sig, config)


def enumerate_idempotents(e: EndoAlgebra, cap: int = SearchConfig.exhaustive_cap) -> list:
    """All idempotents of a finite-field algebra, lexicographic in coordinates."""
    p = e.field.characteristic
    if p == 0:
        raise ValueError("idempotent enumeration needs a finite field")
    total = p ** e.dim
    if total > cap:
        raise ValueError(f"{p}^{e.dim} elements exceed the cap of {cap}")
    elements = [e.field.scalar(v) for v in range(p)]
    out = []
    for coords in itertools.product(elements, repeat=e.dim):
        mat = e.element(coords)
        if mat * mat == mat:
            out.append(mat)
    return out


def check_report(report: DecompositionReport):
    """Independent consistency pass over a finished report; raises on failure."""
    m = report.module
    if sum(b.dim for b in report.summands) != m.dim:
        raise RuntimeError("leaf dimensions do not sum to the module dimension")
    if report.signature != tuple(sorted(b.dim for b in report.summands)):
        raise RuntimeError("signature does not match the leaves")
    combined = SpanSolver(m.field, m.action.dim)
    for block in report.summands:
        for v in block.ambient_basis:
            if not m.contains(v):
                raise RuntimeError("leaf vector escapes the module")
            if not combined.add(v):
                raise RuntimeError("leaf bases overlap")
        span = SpanSolver(m.field, m.action.dim)
        for v in block.ambient_basis:
            span.add(v)
        for label in m.action.labels:
            mat = m.action.matrices[label]
            for v in block.ambient_basis:
                if not span.contains(mat.apply(v)):
                    raise RuntimeError(f"leaf is not stable under generator {label!r}")
        if block.is_cyclic:
            if block.generator is None:
                raise RuntimeError("cyclic leaf without a generator")
            regen = orbit_basis(m.action, block.generator)
            if regen.dim != block.dim or not all(span.contains(v) for v in regen.basis_vectors):
                raise RuntimeError("leaf generator does not regenerate the leaf")
    for block, cert in zip(report.summands, report.certificates):
        if cert.verdict == "decomposable":
            raise RuntimeError("a leaf carries a decomposable certificate")
        verify_certificate(compute_end(block), cert)
