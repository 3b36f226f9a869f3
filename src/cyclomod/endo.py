"""Endomorphism algebras of cyclic modules and splitting-element search.

compute_end builds the commutant of the restricted generator matrices:
all module-coordinate matrices commuting with every generator.  An
endomorphism of a cyclic module is fixed by the image v of its
generator, so the commutant is spun from the generator along the
covering-tree words (Lux & Szoke, Exp. Math. 12, 2003): the conditions
are linear in the n entries of v rather than in all n^2 entries of the
matrix, and the result is put in the basis that n^2-unknown solve would
give, so the search sees the same candidates in the same order.  The
module decomposes exactly when that algebra holds an idempotent other
than 0 and 1, and any element M that is neither nilpotent nor invertible
yields a splitting by Fitting's lemma, so the search never needs the
idempotent itself.  A Fitting certificate's summands are the kernel and
the image of the stable power M^(2^k), found by squaring until the rank
stops falling.  linalg.stable_power hands back that power with its
reduced form: the kernel basis is read off the reduced form, and the
image basis is the first independent columns of the power.  An
invertible candidate is turned down on its rank, before any product.

find_splitting_element runs one search for every field: the
one-dimensional shortcut, a Fitting scan of the basis elements and their
pairwise sums and differences, then one loop over the scanned elements
and seeded random ones that factors each candidate's minimal polynomial
once.  Two coprime factors split the module along their kernels.  A
power f^k with k > 1 makes f(x) nilpotent, and f(x) joins a two-sided
ideal J, closed under multiplication by the basis.  Once some
candidate's f has degree dim E - dim J and J is nilpotent (checked on
J V, J J V, ... by matrix-vector products), E/J is a field generated by
x: the minimal polynomial of x modulo J divides f^k and has degree at
most dim E/J = deg f, so it is f.  Then E is local and the module
indecomposable ("field-generated" when J = 0, "local" otherwise, with
the identity as x when dim E/J = 1).  No Fitting element exists in a
local algebra with J != 0: every element is a unit or nilpotent, and
every minimal polynomial is a power of one irreducible.  Everything is
exact; when the candidates run out the verdict is "undecided", never a
guess.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .fields import FieldScalar
from .linalg import (
    DenseMatrix,
    SpanSolver,
    Vector,
    _addmul,
    _kernel_from_rref,
    _neg,
    _unbox,
    _zero,
    column_space_basis,
    kernel_basis,
    rref,
    stable_power,
)
from .modules import CyclicModule
from .polynomials import factor, min_poly


class EndoAlgebra:
    """The commutant algebra, with coordinates over a fixed matrix basis."""

    __slots__ = ("field", "module_dim", "basis", "action_mats", "_solver", "_identity_coords")

    def __init__(self, field, module_dim, basis, action_mats):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "module_dim", module_dim)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "action_mats", tuple(action_mats))
        solver = SpanSolver(field, module_dim * module_dim)
        for b in self.basis:
            if b.field != field:
                raise ValueError(f"mixed fields: {b.field} and {field}")
            if not solver.add(b._flat()):
                raise ValueError("endomorphism basis is linearly dependent")
        object.__setattr__(self, "_solver", solver)
        ident = DenseMatrix.identity(field, module_dim)
        coords = solver.coordinates(ident._flat()) if module_dim else ()
        if coords is None:
            raise ValueError("identity is outside the proposed endomorphism algebra")
        object.__setattr__(self, "_identity_coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("EndoAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def identity(self) -> DenseMatrix:
        return DenseMatrix.identity(self.field, self.module_dim)

    def identity_coords(self) -> Vector:
        return self._identity_coords

    def element(self, coords: Sequence) -> DenseMatrix:
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for a basis of {self.dim}")
        field, n = self.field, self.module_dim
        p = field.characteristic
        acc = [_zero(p)] * (n * n)
        for c, b in zip(coords, self.basis):
            c = field.scalar(c).value
            if c:
                acc = _addmul(p, acc, c, b._flat())
        return DenseMatrix._from_raw(field, [acc[i * n:(i + 1) * n] for i in range(n)], n)

    def coordinates(self, mat: DenseMatrix) -> Optional[Vector]:
        if (mat.rows, mat.cols) != (self.module_dim, self.module_dim):
            raise ValueError("matrix shape does not match the module")
        if mat.field != self.field:
            raise ValueError(f"mixed fields: {mat.field} and {self.field}")
        return self._solver.coordinates(mat._flat())

    def contains(self, mat: DenseMatrix) -> bool:
        return self.coordinates(mat) is not None

    def __repr__(self) -> str:
        return f"EndoAlgebra(dim={self.dim}, module_dim={self.module_dim}, {self.field})"


def compute_end(m: CyclicModule) -> EndoAlgebra:
    """Endomorphism algebra of a cyclic module, spun from its generator.

    For the word basis w_0 = (), ..., w_{n-1}, an endomorphism X is fixed
    by v = X e_0: when w_j = w_p a, X e_j = R_a X e_p, so spinning the
    identity along the words gives W_j with X e_j = W_j v.  X commutes
    with R_s exactly when sum_k (R_s)_{kj} W_k v = R_s W_j v for every
    label s and index j, a system in the n entries of v; a tree edge
    (w_j s is a basis word) gives an identity and is skipped.  The
    solutions are returned in the basis the n^2-unknown commutant solve
    would give: the reduced echelon form of the row-major flattened
    matrices with pivots at their last nonzero entries.
    """
    field, n = m.field, m.dim
    index = {w: j for j, w in enumerate(m.basis_words)}
    spun = []
    tree_edges = set()
    for word in m.basis_words:
        if not word:
            spun.append(DenseMatrix.identity(field, n))
            continue
        parent = index[word[:-1]]
        spun.append(m.restricted[word[-1]] * spun[parent])
        tree_edges.add((word[-1], parent))
    # each condition is n rows: (R_s W_j - sum_k (R_s)_{kj} W_k) v = 0, on raw values
    p = field.characteristic
    flat_spun = [w._flat() for w in spun]
    rows = []
    for s in m.action.labels:
        r = m.restricted[s]
        for j in range(n):
            if (s, j) in tree_edges:
                continue
            acc = (r * spun[j])._flat()
            for k, row in enumerate(r._raw):
                if row[j]:
                    acc = _addmul(p, acc, _neg(p, row[j]), flat_spun[k])
            rows.extend(acc[i * n:(i + 1) * n] for i in range(n))
    solutions = kernel_basis(DenseMatrix._from_raw(field, rows, n))
    # X_v = [W_0 v | ... | W_{n-1} v], flattened and reduced from the right
    flats = []
    for v in solutions:
        x = _unbox(field, v)
        columns = [w._times_col(x) for w in spun]
        flats.append([a for row in zip(*columns) for a in row][::-1])
    red = rref(DenseMatrix._from_raw(field, flats, n * n))
    basis = [
        DenseMatrix._from_raw(field, [flat[i * n:(i + 1) * n] for i in range(n)], n)
        for flat in (row[::-1] for row in reversed(red.matrix._raw[:red.rank]))
    ]
    labels = m.action.labels
    return EndoAlgebra(field, n, basis, tuple((s, m.restricted[s]) for s in labels))


def certify(m: CyclicModule, config: Optional[SearchConfig] = None) -> Certificate:
    """Search End(m) for a splitting element and re-check the certificate found."""
    e = compute_end(m)
    cert = find_splitting_element(e, config)
    verify_certificate(e, cert)
    return cert


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the splitting-element search; defaults decide all small cases."""

    random_trials: int = 64
    seed: int = 0

    def as_dict(self) -> dict:
        return {"random_trials": self.random_trials, "seed": self.seed}


@dataclass(frozen=True)
class Certificate:
    """Outcome of one splitting-element search, with enough data to re-check."""

    verdict: str                      # "decomposable" | "indecomposable" | "undecided"
    mode: str
    element: Optional[DenseMatrix]
    summands: Optional[tuple]         # pair of module-coordinate basis tuples
    budgets: dict
    diagnostics: dict = dc_field(default_factory=dict)
    radical: Optional[tuple] = None   # "local" only: basis matrices of the radical


def _scan_candidates(e: EndoAlgebra):
    """Basis elements, then pairwise sums, then pairwise differences."""
    for b in e.basis:
        yield b
    n = e.dim
    for i in range(n):
        for j in range(i + 1, n):
            yield e.basis[i] + e.basis[j]
    if e.field.characteristic != 2:
        for i in range(n):
            for j in range(i + 1, n):
                yield e.basis[i] - e.basis[j]


def _random_candidates(e: EndoAlgebra, config: SearchConfig):
    """Seeded random combinations of the basis: coordinates in -3..3 over Q, uniform over GF(p)."""
    rng = random.Random(config.seed)
    p = e.field.characteristic
    lo, hi = (-3, 3) if p == 0 else (0, p - 1)
    for _ in range(config.random_trials):
        coords = [rng.randint(lo, hi) for _ in range(e.dim)]
        if any(coords):
            yield e.element(coords)


def _try_fitting(e: EndoAlgebra, mat: DenseMatrix, budgets: dict, diagnostics: dict):
    """A Fitting certificate for an element of E that is neither nilpotent nor invertible.

    The summands are the kernel and the image of a stable power of mat,
    checked to fill the module.  Both are generator stable because mat
    commutes with the action, and they meet trivially because the kernel
    and the image of a stable power always do.
    """
    power, reduction = stable_power(mat)
    if reduction.rank in (0, e.module_dim):
        return None
    ker = _kernel_from_rref(e.field, power.cols, reduction)
    im = column_space_basis(power)
    if len(ker) + len(im) != e.module_dim:
        raise RuntimeError("kernel and image dimensions do not add up")
    check = SpanSolver(e.field, e.module_dim)
    for v in ker + im:
        if not check.add(v):
            raise RuntimeError("kernel and image of the stable power overlap")
    split = (tuple(ker), tuple(im))
    return Certificate("decomposable", "fitting-scan", mat, split, budgets, diagnostics)


def _coprime_split(e: EndoAlgebra, mat: DenseMatrix, mp, factors, budgets: dict, diag: dict):
    """Split along the first primary factor of the minimal polynomial and the rest."""
    f0, k0 = factors[0]
    first = f0 ** k0
    rest = mp.exact_div(first)
    ker_first = kernel_basis(first.evaluate_matrix(mat))
    ker_rest = kernel_basis(rest.evaluate_matrix(mat))
    if not ker_first or not ker_rest:
        raise RuntimeError("coprime factor kernels cannot be trivial")
    if len(ker_first) + len(ker_rest) != e.module_dim:
        raise RuntimeError("coprime factor kernels do not fill the module")
    return Certificate(
        "decomposable", "min-poly-split", mat, (tuple(ker_first), tuple(ker_rest)), budgets, diag
    )


def _grow_ideal(e: EndoAlgebra, ideal: list, span: SpanSolver, z: DenseMatrix):
    """Add z to the two-sided ideal with basis `ideal` (spanned in `span`), closing it again."""
    ident = e.identity()
    others = [b for b in e.basis if b != ident]
    queue = [z] if span.add(z._flat()) else []
    ideal.extend(queue)
    while queue:
        y = queue.pop()
        for b in others:
            for prod in (b * y, y * b):
                if span.add(prod._flat()):
                    ideal.append(prod)
                    queue.append(prod)


def _nilpotent_span(e: EndoAlgebra, ideal: Sequence) -> bool:
    """Whether J^k V = 0 for some k <= module_dim, for J = span(ideal) with J J inside J.

    J V, J J V, ... come from matrix-vector products, reduced by one rref
    per step.  Each space lies in the one before, so the chain falls to 0 within module_dim steps or
    stops at a nonzero space.  E acts faithfully on V, so J^k V = 0
    exactly when J^k = 0.
    """
    field, n = e.field, e.module_dim
    # a raw row v times j^T is (j v)^T
    transposed = [j.transpose() for j in ideal]
    space = DenseMatrix.identity(field, n)._raw
    for _ in range(n):
        images = [t._times_row(v) for t in transposed for v in space]
        step = rref(DenseMatrix._from_raw(field, images, n))
        if step.rank in (0, len(space)):
            return not step.rank
        space = step.matrix._raw[:step.rank]
    return False


def find_splitting_element(e: EndoAlgebra, config: Optional[SearchConfig] = None) -> Certificate:
    """Exact search for a decomposition witness or an indecomposability certificate."""
    config = config or SearchConfig()
    budgets = config.as_dict()
    if e.module_dim == 0:
        raise ValueError("the zero module has no decomposition question")
    if e.dim == 1:
        return Certificate("indecomposable", "dimension-1", None, None, budgets, {"endo_dim": 1})

    diagnostics = {"endo_dim": e.dim}
    scanned = 0
    for mat in _scan_candidates(e):
        scanned += 1
        cert = _try_fitting(e, mat, budgets, dict(diagnostics, scanned=scanned))
        if cert is not None:
            return cert
    diagnostics["scanned"] = scanned

    # one candidate loop for every field: factor each minimal polynomial once;
    # a power f^k with k > 1 puts the nilpotent f(x) into the ideal J
    ideal, span = [], SpanSolver(e.field, e.module_dim * e.module_dim)
    nilpotent = True            # of J; None once J has grown and is not checked yet
    best, best_degree = e.identity(), 1
    tried = 0
    for mat in itertools.chain(_scan_candidates(e), _random_candidates(e, config)):
        if mat.is_zero():
            continue
        tried += 1
        mp = min_poly(mat)
        factors = factor(mp)
        diag = dict(
            diagnostics,
            min_poly_tried=tried,
            min_poly_degree=mp.degree,
            factor_shape=[[f.degree, k] for f, k in factors],
        )
        if len(factors) >= 2:
            return _coprime_split(e, mat, mp, factors, budgets, diag)
        ((f, k),) = factors
        if k > 1 and nilpotent is not False:
            grown = len(ideal)
            _grow_ideal(e, ideal, span, f.evaluate_matrix(mat))
            if len(ideal) > grown:
                nilpotent = None
        if f.degree > best_degree:
            best, best_degree = mat, f.degree
        # x mod J has a minimal polynomial dividing f^k of degree at most
        # dim E/J = deg f, so it is f: E/J = F[x mod J] is a field
        if best_degree != e.dim - len(ideal):
            continue
        if nilpotent is None:
            nilpotent = _nilpotent_span(e, ideal)
        if not nilpotent:
            continue
        if not ideal:
            return Certificate("indecomposable", "field-generated", best, None, budgets, diag)
        diag = dict(diagnostics, min_poly_tried=tried, radical_dim=len(ideal))
        return Certificate("indecomposable", "local", best, None, budgets, diag, radical=tuple(ideal))

    diagnostics["min_poly_tried"] = tried
    return Certificate("undecided", "budget-exhausted", None, None, budgets, diagnostics)


def _generates_quotient_field(e: EndoAlgebra, mat: DenseMatrix, radical: Sequence) -> bool:
    """Whether mat modulo the radical J has an irreducible minimal polynomial of degree dim E/J.

    That polynomial has degree at most dim E/J, so one factor of degree
    dim E/J can only occur once.
    """
    factors = factor(min_poly(mat, radical))
    return len(factors) == 1 and factors[0][0].degree == e.dim - len(radical)


def _check_element(e: EndoAlgebra, element, what: str = "certificate element"):
    n = e.module_dim
    if not isinstance(element, DenseMatrix) or element.field != e.field:
        raise RuntimeError(f"{what} is not a matrix over {e.field}")
    if (element.rows, element.cols) != (n, n):
        raise RuntimeError(f"{what} is {element.rows}x{element.cols}, expected {n}x{n}")


def _check_local(e: EndoAlgebra, cert: Certificate):
    """Re-check that J is a nilpotent ideal and E/J = F[x mod J] is a field.

    Then J is the radical and E is local, so the module is indecomposable.
    Nothing about how J was found is trusted, and no step depends on the field.
    """
    radical = cert.radical
    if not isinstance(radical, (tuple, list)) or not radical:
        raise RuntimeError("local certificate is missing its radical")
    _check_element(e, cert.element)
    span = SpanSolver(e.field, e.module_dim * e.module_dim)
    for j in radical:
        _check_element(e, j, "radical matrix")
        if not e.contains(j):
            raise RuntimeError("radical matrix is not in the endomorphism algebra")
        if not span.add(j._flat()):
            raise RuntimeError("radical matrices are linearly dependent")
    ident = e.identity()
    for b in e.basis:
        if b == ident:
            continue
        for j in radical:
            if not (span.contains((b * j)._flat()) and span.contains((j * b)._flat())):
                raise RuntimeError("radical span is not a two-sided ideal")
    if not _nilpotent_span(e, radical):
        raise RuntimeError("radical span is not nilpotent")
    if not e.contains(cert.element):
        raise RuntimeError("local element is not in the endomorphism algebra")
    if not _generates_quotient_field(e, cert.element, radical):
        raise RuntimeError("element does not generate a field modulo the radical")


def verify_certificate(e: EndoAlgebra, cert: Certificate):
    """Re-check a certificate against the algebra; raises RuntimeError on failure.

    A malformed certificate (an element or a summand vector of the wrong
    shape or field) fails the check like any other wrong one.
    """
    if cert.verdict == "decomposable":
        if cert.element is None or cert.summands is None:
            raise RuntimeError("decomposable certificate is missing its witness")
        _check_element(e, cert.element)
        for label, s in e.action_mats:
            if cert.element * s != s * cert.element:
                raise RuntimeError(f"witness does not commute with generator {label!r}")
        if len(cert.summands) != 2:
            raise RuntimeError(f"{len(cert.summands)} summands, expected 2")
        left, right = cert.summands
        if not left or not right:
            raise RuntimeError("a summand is zero")
        if len(left) + len(right) != e.module_dim:
            raise RuntimeError("summand dimensions do not sum to the module dimension")
        vectors = list(left) + list(right)
        if any(len(v) != e.module_dim for v in vectors):
            raise RuntimeError(f"a summand vector does not have length {e.module_dim}")
        if any(isinstance(x, FieldScalar) and x.field != e.field for v in vectors for x in v):
            raise RuntimeError(f"a summand vector is not over {e.field}")
        solver = SpanSolver(e.field, e.module_dim)
        for v in vectors:
            if not solver.add(v):
                raise RuntimeError("summand bases are not independent")
        for part in (left, right):
            part_solver = SpanSolver(e.field, e.module_dim)
            for v in part:
                part_solver.add(v)
            for label, s in e.action_mats:
                for v in part:
                    if not part_solver.contains(s.apply(v)):
                        raise RuntimeError(f"summand is not stable under generator {label!r}")
    elif cert.verdict == "indecomposable":
        if cert.mode == "dimension-1":
            if e.dim != 1:
                raise RuntimeError("dimension-1 verdict on a larger algebra")
        elif cert.mode == "field-generated":
            if cert.element is None:
                raise RuntimeError("field-generated certificate is missing its element")
            _check_element(e, cert.element)
            if not e.contains(cert.element):
                raise RuntimeError("field-generated element is not in the endomorphism algebra")
            if not _generates_quotient_field(e, cert.element, ()):
                raise RuntimeError("element does not generate a field of full dimension")
        elif cert.mode == "local":
            _check_local(e, cert)
        else:
            raise RuntimeError(f"unknown indecomposable mode {cert.mode!r}")
    elif cert.verdict == "undecided":
        if cert.element is not None or cert.summands is not None or cert.radical is not None:
            raise RuntimeError("undecided certificate carries witness data")
    else:
        raise RuntimeError(f"unknown verdict {cert.verdict!r}")
