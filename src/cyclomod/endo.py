"""Endomorphism algebras of cyclic modules and splitting-element search.

compute_end builds the commutant of the restricted generator matrices:
all module-coordinate matrices commuting with every generator.  An
endomorphism of a cyclic module is fixed by the image v of its
generator, so the commutant is spun from the generator along the
covering-tree words (Lux & Szoke, Exp. Math. 12, 2003), in at most two
spins with one kernel between them.  Its basis is the one the n^2-unknown
solve would give, so the search sees the same candidates in the same
order; over Q no step here makes a Fraction, a minimal polynomial's
coefficients included.

An element X of E is fixed by its first column X e_0, and all work
after compute_end is on that column: EndoAlgebra's membership test (with
one exact check of the whole matrix), the span and products of the ideal J,
and the minimal polynomial of x modulo J, the first dependence among
e_0, x e_0, x^2 e_0, ... modulo J e_0.  A column step is exact only for
a matrix in E, so a certificate carries first columns and no matrix, and
the verifier reads each one back into E, as the X in E with that first
column, turning down a vector outside E e_0.

The module decomposes exactly when the algebra holds an idempotent
other than 0 and 1, and any element x that is neither nilpotent nor
invertible yields a splitting by Fitting's lemma, so the search never
needs the idempotent itself.  A split is read off a minimal polynomial
f = g h of x with g and h coprime, found on first columns: the module is
ker g(x) + ker h(x), and e(x), for e = s h with s h = 1 modulo g, is the
projection onto ker g(x) (primary decomposition; Hoffman & Kunze,
Linear Algebra, 6.8).  For f = t^k h with h(0) != 0 the two are the
kernel and the image of x^n, Fitting's split.  A certificate carries
only the two parts of the generator along it, a = e(x) e_0 and
b = e_0 - a, and the verifier spins them and adds the orbit dimensions.

find_splitting_element runs one search for every field over one fixed
candidate list, the basis elements and their pairwise sums and
differences: the one-dimensional shortcut, a Fitting scan of that list,
then one loop over the same list, and a primitive-element step after
it, that factors each candidate's minimal polynomial once.  The scan
sorts a candidate by one rank (linalg._rank_form), rank n for a unit;
a singular x of rank r is nilpotent when x^(r+1) e_0 = 0, tested once a
nilpotent candidate is kept, or when its minimal polynomial is t^k, and
a Fitting witness otherwise.  Over Q a rank is read on the fraction-free
echelon.
The first time the nilpotent candidates span a hyperplane J of E, J and
the identity go once through _indecomposable_failure, the verifier's
one test of an indecomposable certificate, which finds J a two-sided
ideal (on first columns) and nilpotent or turns it down.  If it passes,
the identity is not in J, so E = F 1 + J, E/J = F and E is local: a
"local" certificate with x the identity, written None, and no minimal
polynomial is tried.  In a local algebra with residue field F the nilpotent elements
are exactly J, so the test passes once the nilpotent candidates span J:
after about dim E rank tests on the Jordan blocks and on the local
leaves of the boolean modules and of regular S4 and S5 over GF(2) and
GF(3).  In any other algebra it fails, and the scan goes on as if it had
not been made.

In the candidate loop, a minimal polynomial with two coprime primary
factors splits the module as the scan does, with g = f^k for its first
irreducible factor f and h the rest ("min-poly-split").  A power f^k
with k > 1 makes f(x) nilpotent, and f(x) joins a two-sided ideal J,
closed under multiplication by the basis.  Once some candidate's f has degree
dim E - dim J and J is nilpotent (each basis matrix j has j^n e_0 = 0,
by the same test as the hyperplane, once for each J), E/J is a field
generated by x: the minimal polynomial of x modulo J divides
f^k and has degree at most dim E/J = deg f, so it is f.  Then E is local
and the module indecomposable.  With J = 0 the leaf is accepted on the
factors the loop has just found: x is then the candidate just factored,
and deg f = dim E leaves f its only factor; with J != 0, by the one test
itself.  This loop decides the fields, the local algebras whose
residue field is larger than F, and those whose nilpotent candidates
span less than J.  When the list
leaves E/J generated by no candidate, as for Q(sqrt 2, sqrt 3, sqrt 5)
whose elements all have degree at most 4 over Q, the loop goes on with
x + c b for the best x so far, each basis element b in turn and
c = 1, 2, ...: over Q, where E/J is a field, all but deg x (deg b - 1)
values of c give a generator of F(x, b), so after the last b the best x
generates E/J; over GF(p) only c < p exist, and no bound is promised.
No Fitting element exists in a local algebra with J != 0: every element
is a unit or nilpotent, and every minimal polynomial is a power of one
irreducible.  Everything is exact; when the candidates run out the
verdict is "undecided" ("candidates-exhausted"), never a guess.

Every indecomposable certificate has one shape and one mode, "local":
the first column x e_0 of an element x, None standing for the identity
whatever J is, and the first columns j e_0 of a basis of a nilpotent
two-sided ideal J, empty when J = 0, with E/J = F[x mod J] a field.
Then J is the radical, E is local and the module indecomposable.  The
three exits, the one-dimensional shortcut, the J = 0 exit of the
candidate loop and _local_certificate, all build their certificate
through _indecomposable: the first once E = F, the second on the
factors at hand and the third on the one test, run on the
certificate's own vectors.  So
decompose_once checks no indecomposable certificate a second time;
check_report re-checks every one with _indecomposable_failure, in full.

A certificate carries only what its check reads, and no matrix: a
split its two parts, a local leaf the first columns of x and of J's
basis, an undecided leaf nothing.  The element whose minimal polynomial
gave a split is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import compress
from math import lcm
from operator import itemgetter, xor
from typing import Optional, Sequence

from .linalg import (
    DenseMatrix,
    Echelon,
    SpanSolver,
    _kernel_from_rref,
    _lowest_terms,
    _marked,
    _neg,
    _pack_lanes,
    _primitive,
    _QVector,
    _qvector,
    _rank_form,
    _RawVector,
    _rref_packed,
    _rref_rows,
    _sum_of_multiples,
    _unbox,
    _unit,
    _unpack_columns,
    rref,
)
from .modules import CyclicModule
from .polynomials import Polynomial, _pmul, factor
from .wfa import covering_tree


class EndoAlgebra:
    """The commutant algebra, with coordinates over a fixed matrix basis.

    An element X is fixed by its first column X e_0, so _coordinates()
    solves for it over the basis' first columns, a solve of length
    module_dim, then checks exactly that the matrix is the combination
    found.  A basis with dependent first columns is turned down.
    """

    __slots__ = ("field", "module_dim", "basis", "action_mats", "_solver")

    def __init__(self, field, module_dim, basis, action_mats):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "module_dim", module_dim)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "action_mats", tuple(action_mats))
        for b in self.basis:
            if b.field != field:
                raise ValueError(f"mixed fields: {b.field} and {field}")
        solver = SpanSolver(field, module_dim)
        if not all(solver.add(_first_column(b)) for b in self.basis):
            raise ValueError("the first columns of the endomorphism basis are linearly dependent")
        object.__setattr__(self, "_solver", solver)
        if not self.contains(self.identity()):
            raise ValueError("identity is outside the proposed endomorphism algebra")

    def __setattr__(self, name, value):
        raise AttributeError("EndoAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def identity(self) -> DenseMatrix:
        return DenseMatrix.identity(self.field, self.module_dim)

    def element(self, coords: Sequence) -> DenseMatrix:
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for a basis of {self.dim}")
        field, n = self.field, self.module_dim
        p = field.characteristic
        coords = _unbox(field, coords)
        terms = [(u, b) for u, b in zip(coords, self.basis) if u]
        if not terms:
            return DenseMatrix.zeros(field, n, n)
        if len(terms) == 1 and terms[0][0] == 1 and (p or coords.den == 1):
            return terms[0][1]  # a unit coordinate vector: the basis matrix itself
        # on kernel rows, the coordinate u / q times A / e adds u (d / e) A over
        # the denominator q d, d the lcm of the e; over GF(p), q = e = d = 1
        d = lcm(*[b._den for _, b in terms])
        factors = [u * (d // b._den) for u, b in terms]
        # row i of the element sums row i of each term's matrix, reduced once
        rows = [_sum_of_multiples(p, zip(factors, r), n) for r in zip(*[b._raw for _, b in terms])]
        return DenseMatrix._from_raw(field, rows, n) if p else DenseMatrix._from_ints(field, rows, coords.den * d, n)

    def _coordinates(self, mat: DenseMatrix) -> Optional[list]:
        """The raw coordinates of mat over the basis, or None when mat is not in E."""
        if (mat.rows, mat.cols) != (self.module_dim, self.module_dim):
            raise ValueError("matrix shape does not match the module")
        if mat.field != self.field:
            raise ValueError(f"mixed fields: {mat.field} and {self.field}")
        coords = self._solver._coordinates(_first_column(mat))
        if coords is None or self.element(coords) != mat:
            return None
        return coords

    def contains(self, mat: DenseMatrix) -> bool:
        return self._coordinates(mat) is not None

    def __repr__(self) -> str:
        return f"EndoAlgebra(dim={self.dim}, module_dim={self.module_dim}, {self.field})"


def _first_column(mat: DenseMatrix) -> _RawVector:
    """X e_0 as a raw vector: for X in E, the vector that fixes X."""
    return mat._column(0)


def _image(mat: DenseMatrix, x: _RawVector) -> _RawVector:
    """mat times the raw column x, as a raw vector."""
    return _marked(mat._times_col(x))


def compute_end(m: CyclicModule) -> EndoAlgebra:
    """Endomorphism algebra of a cyclic module, as one spin solve on kernel rows.

    For the word basis w_0 = (), ..., w_{n-1}, an endomorphism X is fixed
    by v = X e_0: when w_j = w_p a, X e_j = R_a X e_p, so spinning v along
    the words gives X e_j = W_j v, with W_j the product of the R_a along
    w_j.  X commutes with R_s exactly when
    (R_s W_j - sum_h (R_s)_{hj} W_h) v = 0 for every label s and index j;
    a tree edge (w_j s is a basis word) gives an identity and is skipped.
    The identity is spun once, U_j = W_j, and each other edge's n
    condition rows are read on it.  The rows neither zero nor seen before
    span the conditions; their reduced echelon form (over GF(2) made on
    the packed rows, unpacked only once reduced) gives the
    kernel basis K of the solutions, and a second spin, U_j = W_j K,
    holds the matrices, entry (i, j) of X_v in row i of U_j for each v
    in K.  With no condition row, K = I and the first spin is the last.
    Both spins run on kernel rows, each R_s a gather (_gather_plan): raw
    values over GF(p), over Q integer rows on one denominator for all the
    U_j, and over GF(2) rows packed as linalg packs them, so a row sum is
    a XOR.
    The matrices are returned in the basis the n^2-unknown solve gives:
    the reduced echelon form of the row-major flattened matrices with
    pivots at their last nonzero entries, over Q each the integer rows
    of a primitive reduced row over its pivot entry.
    """
    field, n = m.field, m.dim
    p = field.characteristic
    labels = m.action.labels
    # each generator's gather and denominator, and its columns as (-(R_s)_{hj}, h)
    plans, columns = {}, {}
    for s in labels:
        raw = m.restricted[s]._raw
        terms = [[(l, r[l]) for l in compress(range(n), r)] for r in raw]
        plans[s] = (_gather_plan(p, terms), m.restricted[s]._den)
        columns[s] = [[(_neg(p, c[h]), h) for h in compress(range(n), c)] for c in zip(*raw)]
    index = {w: j for j, w in enumerate(m.basis_words)}
    steps = [(w[-1], index[w[:-1]]) for w in m.basis_words[1:]]
    tree_edges = set(steps)
    rows = DenseMatrix.identity(field, n)._raw
    spun = _spin(plans, steps, [_pack_lanes(r, 1) for r in rows] if p == 2 else rows, n)
    zero = 0 if p == 2 else (0,) * n
    seen = {zero}
    for s in labels:
        gather = plans[s][0]
        for j in range(n):
            if (s, j) not in tree_edges:
                seen.update(_conditions(p, gather(spun[j], n), columns[s][j], spun, n))
    seen.discard(zero)
    k = n
    if seen:
        if p == 2:
            reduction = _rref_packed(field, seen, n)
        else:
            reduction = rref(DenseMatrix._from_raw(field, list(map(list, seen)), n))
        kernel = _kernel_from_rref(field, n, reduction)
        k = len(kernel)
        rows = [list(r) for r in zip(*kernel)]
        spun = _spin(plans, steps, [_pack_lanes(r, 1) for r in rows] if p == 2 else rows, k)
    # the flats of X_v, the columns of the stacked rows, reversed for pivots
    # at the last nonzero entries
    stacked = [spun[j][i] for i in reversed(range(n)) for j in reversed(range(n))]
    flats = _unpack_columns(stacked, k) if p == 2 else [list(f) for f in zip(*stacked)]
    pivots = _rref_rows(p, flats, n * n)
    basis = []
    for row, c in reversed(list(zip(flats, pivots))):
        flat = row[::-1]
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        if p:
            basis.append(DenseMatrix._from_raw(field, rows, n))
        else:  # the pivot entry is the denominator of the reduced row
            basis.append(DenseMatrix._from_ints(field, rows, row[c], n))
    return EndoAlgebra(field, n, basis, tuple((s, m.restricted[s]) for s in labels))


def _gather_plan(p: int, terms: list):
    """R as the map U -> R U, from the nonzero (index, value) pairs of each kernel row of R.

    U is given by its k-column kernel rows, packed over GF(2).  A row of
    R with one term, of value 1 unless p = 2, picks that row of U itself
    through one itemgetter; any other is summed from its terms, mod 2
    from its indices.  A 1 x 1 R picks by a list, as itemgetter of one
    index returns no tuple.
    """
    picks, fixes = [], []
    for i, row in enumerate(terms):
        single = len(row) == 1 and (p == 2 or row[0][1] == 1)
        picks.append(row[0][0] if single else 0)
        if not single:
            fixes.append((i, [l for l, _ in row] if p == 2 else row))
    pick = itemgetter(*picks) if len(picks) > 1 else lambda u: [u[l] for l in picks]

    def gather(u: Sequence, k: int) -> Sequence:
        if not fixes:
            return pick(u)
        rows = list(pick(u))
        for i, t in fixes:
            if p == 2:
                rows[i] = reduce(xor, map(u.__getitem__, t), 0)
            else:
                rows[i] = _sum_of_multiples(p, [(c, u[l]) for l, c in t], k)
        return rows
    return gather


def _conditions(p: int, rows: Sequence, minus: list, spun: list, k: int):
    """The rows of R_s U_j - sum_h (R_s)_{hj} U_h: packed over GF(2), else tuples, primitive over Q.

    rows are those of R_s U_j and minus the terms of column j of R_s.
    When that column is a unit vector, as for permutations, a row is
    zero exactly when its two parts are equal, which is tested first:
    most such rows are zero, and they then cost no arithmetic.
    """
    if p == 2:
        for _, h in minus:
            rows = map(xor, rows, spun[h])
        return rows
    unit = minus[0][1] if len(minus) == 1 and minus[0][0] == _neg(p, 1) else None
    out = []
    for i, x in enumerate(rows):
        if unit is None or x != spun[unit][i]:
            r = _sum_of_multiples(p, [(1, x)] + [(c, spun[h][i]) for c, h in minus], k)
            out.append(tuple(r if p else _primitive(r)))
    return out


def _spin(plans: dict, steps: list, rows: list, k: int) -> list:
    """U_j = W_j K as kernel rows on one denominator, for K's k-column kernel rows, packed over GF(2).

    U_0 = K, and U_j = R_a U_i for the step (a, i) that makes word j from
    word i.  K matters only up to a scalar, so over Q its integer rows
    stand for it without their denominator.
    """
    spun = [(rows, 1)]
    for s, parent in steps:
        (gather, da), (u, du) = plans[s], spun[parent]
        rows, d = gather(u, k), da * du
        spun.append(_lowest_terms(rows, d) if d > 1 else (rows, d))
    denom = lcm(*[d for _, d in spun])
    return [u if d == denom else [[x * (denom // d) for x in r] for r in u] for u, d in spun]


@dataclass(frozen=True)
class Certificate:
    """Outcome of one splitting-element search, with the data its re-check reads and no more."""

    verdict: str                      # "decomposable" | "indecomposable" | "undecided"
    mode: str                         # one of _MODES[verdict]
    element: Optional[list]           # indecomposable only: x e_0 as a raw vector, None for the identity
    parts: Optional[tuple]            # decomposable only: raw module-coordinate vectors (a, b), a + b = e_0
    diagnostics: dict = dc_field(default_factory=dict)
    radical: tuple = ()               # indecomposable only: j e_0 for each basis element j of J, empty when J = 0


# the modes each verdict may carry, and its witness data
_MODES = {
    "decomposable": ("fitting-scan", "min-poly-split"),
    "indecomposable": ("local",),
    "undecided": ("candidates-exhausted",),
}
_WITNESS = {"decomposable": ("parts",), "indecomposable": ("element", "radical"), "undecided": ()}


def _indecomposable(element: Optional[DenseMatrix], radical: Sequence, diagnostics: dict) -> Certificate:
    """The indecomposable certificate for x = element, None for the identity, and J = span(radical), on first columns."""
    x = None if element is None else _first_column(element)
    return Certificate("indecomposable", "local", x, None, diagnostics, tuple(map(_first_column, radical)))


def _dimension_one() -> Certificate:
    """The certificate of a module whose End is F, the scalars, which holds no idempotent but 0 and 1."""
    return _indecomposable(None, (), {"endo_dim": 1})


def _scan_candidates(e: EndoAlgebra):
    """Basis elements, then pairwise sums, then pairwise differences.

    None of them is zero: the basis is independent, so b_i + b_j and
    b_i - b_j for i < j are not.
    """
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


def _fitting_witness(e: EndoAlgebra, x: DenseMatrix, diagnostics: dict) -> Optional[Certificate]:
    """The Fitting certificate of x, or None when x is nilpotent or a unit.

    x has the minimal polynomial t^k h with h(0) != 0, nilpotent for h = 1
    and a unit for k = 0; otherwise the split is ker x^k + ker h(x), the
    kernel and the image of x^n.
    """
    f, krylov = _min_poly(x)
    k = next(compress(range(f.degree), f._raw), f.degree)
    if 0 < k < f.degree:
        return _fitting_split(e, krylov, [0] * k + [1], f._raw[k:], diagnostics)
    return None


def _fitting_split(e: EndoAlgebra, krylov: list, g: list, h: list, diagnostics: dict, mode: str = "fitting-scan") -> Certificate:
    """The certificate of the split ker g(x) + ker h(x), for x with minimal polynomial g h, g and h coprime.

    g and h are raw coefficients, g monic; over Q integers, each standing
    for its rational multiple, g the monic one.  krylov holds x^i e_0 for
    i < deg g h.  The projection onto ker g(x) is e(x) for e = s h, with
    s h = 1 modulo g, so s is read off one solve of length deg g: the
    coordinates of 1 over the t^i h mod g, i < deg g, which are
    independent because h is a unit modulo g.  The parts of e_0 are
    a = e(x) e_0, one combination of the krylov vectors, and b = e_0 - a.
    """
    field, n = e.field, e.module_dim
    p, m = field.characteristic, len(g) - 1
    g = g if p else _qvector(g, g[-1])
    w = [0] * m if p else _qvector([0] * m)
    for c in reversed(h):  # h mod g, by Horner
        w = _times_t(p, w, g, c)
    solver = SpanSolver(field, m)
    for _ in range(m):
        solver._place(w)
        w = _times_t(p, w, g)
    s = solver._coordinates(_unit(p, m, 0))
    coeffs = _pmul(p, s, h)
    coeffs += [0] * (len(krylov) - len(coeffs))
    a = DenseMatrix.from_columns(field, krylov, rows=n)._times_col(coeffs if p else _qvector(coeffs, s.den))
    d = getattr(a, "den", 1)
    b = [d * (i == 0) - c for i, c in enumerate(a)]
    return Certificate("decomposable", mode, None, (a, [c % p for c in b] if p else _qvector(b, d)), diagnostics)


def _times_t(p: int, w: list, g: list, c=0) -> list:
    """t w + c modulo the monic raw g, for a raw w of degree below deg g and a raw constant c, an integer over Q."""
    dg, dw = getattr(g, "den", 1), getattr(w, "den", 1)
    # over Q, (t w + c) - w_top g over the denominator dw dg, its t^(deg g) term cancelled
    x = [dg * u - w[-1] * v for u, v in zip([c * dw] + w[:-1], g)]
    return [u % p for u in x] if p else _qvector(x, dw * dg)


def _power_product(p: int, factors: Sequence) -> list:
    """The raw product of the f^k over the (f, k) in factors, over Q of their numerators."""
    out = [1]
    for f, k in factors:
        for _ in range(k):
            out = _pmul(p, out, f._raw)
    return out


def _grow_ideal(e: EndoAlgebra, ideal: list, span: Echelon, z: DenseMatrix):
    """Add z to the two-sided ideal with basis `ideal` (first columns in `span`), closing it again.

    A product in E is fixed by its first column, b (y e_0) or y (b e_0),
    so only the products that join J are formed.
    """
    ident = e.identity()
    others = [(b, _first_column(b)) for b in e.basis if b != ident]
    queue = [z] if span.add(_first_column(z)) else []
    ideal.extend(queue)
    while queue:
        y = queue.pop()
        y0 = _first_column(y)
        for b, b0 in others:
            for left, right, col in ((b, y, _image(b, y0)), (y, b, _image(y, b0))):
                if span.add(col):
                    prod = left * right
                    ideal.append(prod)
                    queue.append(prod)


def _ideal_failure(e: EndoAlgebra, ideal: Sequence) -> Optional[str]:
    """Why the matrices `ideal` in E are not a basis of a two-sided ideal J, or None when they are.

    A product in E is fixed by its first column, so the matrices are
    independent when their first columns are, and b j is in J exactly
    when b (j e_0) is in J e_0.  The products j j' of every ordered pair
    from `ideal` cover each b in J in both orders.  E is spanned by J,
    the identity and the basis elements whose first columns extend J e_0
    and e_0, the identity's first column, so only those basis elements
    still need b j and j b: |J|^2 + 2 |J| (dim E - |J| - 1) products when
    the identity is outside J, half the 2 |J| (dim E - 1) of every basis
    element for a hyperplane.  One solver holds J's first columns, then
    e_0 and those extending first columns, so a vector lies in J e_0 when
    its coordinates vanish off J's columns.  The test stops at the first
    product outside.
    """
    span = SpanSolver(e.field, e.module_dim)
    firsts = [_first_column(j) for j in ideal]
    if not all(span.add(j0) for j0 in firsts):
        return "radical matrices are linearly dependent"
    k = len(ideal)
    span.add(_unit(e.field.characteristic, e.module_dim, 0))
    products = [(j, y0) for j in ideal for y0 in firsts]
    for b in e.basis:
        b0 = _first_column(b)
        if span.add(b0):
            products += [(b, j0) for j0 in firsts] + [(j, b0) for j in ideal]

    def in_ideal(x) -> bool:
        coords = span._coordinates(x)
        return coords is not None and not any(coords[k:])

    if not all(in_ideal(_image(x, y0)) for x, y0 in products):
        return "radical span is not a two-sided ideal"
    return None


def _nilpotent_span(ideal: Sequence) -> bool:
    """Whether J^k = 0 for some k, for J = span(ideal) inside E with J J inside J.

    An algebra spanned by nilpotent elements is nilpotent, so J is
    nilpotent exactly when each matrix of `ideal` is.  Otherwise J/rad J
    is a nonzero semisimple algebra spanned by the images of nilpotent
    elements, which have reduced trace 0 in each simple factor, while
    the reduced trace of a simple algebra is a nonzero linear form.
    """
    return all(map(_is_nilpotent, ideal))


def _is_nilpotent(x: DenseMatrix, steps: Optional[int] = None) -> bool:
    """Whether x^steps = 0, for x in E; steps defaults to n, so that is whether x is nilpotent.

    x^k is in E, fixed by its first column, so x^k = 0 when x^k e_0 = 0.
    A nilpotent x of rank r has x^(r+1) = 0.
    """
    v = _unit(x.field.characteristic, x.rows, 0)
    for _ in range(x.rows if steps is None else steps):
        v = x._times_col(v)
        if not any(v):
            return True
    return False


def _min_poly(x: DenseMatrix, ideal: Sequence = ()) -> tuple:
    """(f, krylov): the minimal polynomial f of x in E modulo the span J of the independent matrices `ideal` in E, and the x^i e_0, i < deg f.

    f(x) lies in J exactly when f(x) e_0 lies in J e_0, so it is the first
    dependence among e_0, x e_0, x^2 e_0, ... modulo J e_0; n + 1 vectors suffice.
    Over Q, with coordinates c over d, f is (-c, d) over d.
    """
    field, n = x.field, x.rows
    p = field.characteristic
    solver = SpanSolver(field, n)
    for j in ideal:
        solver.add(_first_column(j))
    v, krylov = _marked(_unit(p, n, 0)), []
    for _ in range(n + 1):
        coords = solver._place(v)
        if coords is not None:
            coeffs = [_neg(p, c) for c in coords[len(ideal):]]
            f = Polynomial._from_raw(field, coeffs + [1] if p else _qvector(coeffs + [coords.den], coords.den))
            return f, krylov
        krylov.append(v)
        v = _image(x, v)
    raise RuntimeError("no dependence among the first columns of the powers")


def find_splitting_element(e: EndoAlgebra) -> Certificate:
    """Exact search for a decomposition witness or an indecomposability certificate."""
    if e.module_dim == 0:
        raise ValueError("the zero module has no decomposition question")
    if e.dim == 1:
        return _dimension_one()

    diagnostics = {"endo_dim": e.dim}
    n, hyperplane = e.module_dim, e.dim - 1
    p = e.field.characteristic
    # the nilpotent candidates with independent first columns, until they
    # span a hyperplane of E, which is then tested once as the radical
    radical, span = [], Echelon(e.field, n)
    scanned = 0
    for mat in _scan_candidates(e):
        scanned += 1
        # a unit shows by its rank.  A singular x of rank r has a minimal polynomial
        # t^k h, nilpotent for h = 1 and else a witness; once a nilpotent candidate
        # is kept, x^(r+1) e_0 = 0 shows a nilpotent x first.  Before that, the first
        # singular candidate is most often a witness, which the test would only delay
        rank = _rank_form(mat)
        if rank == n:
            continue
        if not (radical and _is_nilpotent(mat, rank + 1)):
            cert = _fitting_witness(e, mat, dict(diagnostics, scanned=scanned))
            if cert is not None:
                return cert
        if len(radical) == hyperplane or not span.add(_first_column(mat)):
            continue
        radical.append(mat)
        # a nilpotent ideal of codimension 1 misses the identity, so
        # E = F 1 + J and E/J = F: E is local, and the identity generates E/J
        if len(radical) == hyperplane:
            cert = _local_certificate(e, None, radical, dict(diagnostics, scanned=scanned))
            if cert is not None:
                return cert
    diagnostics["scanned"] = scanned

    # one candidate loop for every field: factor each minimal polynomial once;
    # a power f^k with k > 1 puts the nilpotent f(x) into the ideal J
    ideal, span = [], Echelon(e.field, e.module_dim)
    nilpotent = True            # of J; None once J has grown and is not checked yet, False once turned down
    best, best_degree = e.identity(), 1
    degrees = []                # of the basis elements modulo the radical

    def candidates():
        yield from _scan_candidates(e)
        # the primitive-element step, read against the best x so far
        for b, degree in zip(e.basis, degrees):
            if degree == 1:
                continue
            x, count = best, best_degree * (degree - 1) + 1
            for c in range(1, (min(count, p - 1) if p else count) + 1):
                yield x + b.scale(c)

    tried = 0
    for mat in candidates():
        tried += 1
        mp, krylov = _min_poly(mat)
        factors = factor(mp)
        diag = dict(
            diagnostics,
            min_poly_tried=tried,
            min_poly_degree=mp.degree,
            factor_shape=[[f.degree, k] for f, k in factors],
        )
        if len(factors) >= 2:
            # the module is the f0^k0-primary summand plus the rest
            g, h = _power_product(p, factors[:1]), _power_product(p, factors[1:])
            return _fitting_split(e, krylov, g, h, diag, "min-poly-split")
        ((f, k),) = factors
        if tried <= e.dim:
            degrees.append(f.degree)
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
        # with J = 0, best is this candidate and deg f = dim E, so f is its only factor
        if not ideal:
            return _indecomposable(best, (), diag)
        if nilpotent is None:
            cert = _local_certificate(e, best, ideal, dict(diagnostics, min_poly_tried=tried))
            if cert is not None:
                return cert
            nilpotent = False

    diagnostics["min_poly_tried"] = tried
    return Certificate("undecided", "candidates-exhausted", None, None, diagnostics)


def _local_certificate(e: EndoAlgebra, element: Optional[DenseMatrix], radical: list, diagnostics: dict) -> Optional[Certificate]:
    """The certificate for x = element, None for the identity, and J = span(radical), or None when _indecomposable_failure turns it down.

    Both exits of the search with J != 0 end here, so no local
    certificate is made that has not passed the verifier's one test, on
    the certificate's own vectors.
    """
    cert = _indecomposable(element, radical, dict(diagnostics, radical_dim=len(radical)))
    return None if _indecomposable_failure(e, cert.element, cert.radical) is not None else cert


def _generates_quotient_field(e: EndoAlgebra, factors: list, radical: Sequence) -> bool:
    """Whether x modulo the radical J has an irreducible minimal polynomial of degree dim E/J.

    factors is the factorization of that minimal polynomial,
    factor(_min_poly(x, radical)[0]).  The polynomial has degree at most
    dim E/J, so one factor of degree dim E/J can only occur once.
    """
    return len(factors) == 1 and factors[0][0].degree == e.dim - len(radical)


def _raw_vector(field, n: int, v) -> Optional[list]:
    """v as a raw vector of length n over field, or None when it is not one.

    A raw vector is taken as it is, so its entries are checked: over GF(p)
    ints in [0, p), the values the packed kernels take, and over Q it must
    be a raw Q vector.
    """
    try:
        raw = _marked(_unbox(field, v))
    except (TypeError, ValueError):
        return None
    p = field.characteristic
    valid = all(type(a) is int and 0 <= a < p for a in raw) if p else isinstance(raw, _QVector)
    return raw if len(raw) == n and valid else None


def _read_element(e: EndoAlgebra, v) -> Optional[DenseMatrix]:
    """The X in E with X e_0 = v, or None when v is not a vector of length n over E's field in E e_0."""
    raw = _raw_vector(e.field, e.module_dim, v)
    coords = None if raw is None else e._solver._coordinates(raw)
    return None if coords is None else e.element(coords)


def _indecomposable_failure(e: EndoAlgebra, element, radical) -> Optional[str]:
    """The message of the first failed check that J is a nilpotent ideal and E/J = F[x mod J] a field.

    element is x e_0, None standing for the identity, and radical the
    vectors j e_0 of a basis of J, empty for J = 0.  Each vector is read
    back into E, as the X in E with that first column, and must be one.
    None when every check passes: then J is the radical and E is local,
    so the module is indecomposable.  With J = 0 that says E = F[x] is a
    field, and E = F when x is the identity.  Nothing about how J was
    found is trusted, and no step depends on the field.  J is checked to
    be an ideal, on first columns, so that J is nilpotent when its basis
    is.  The search accepts a leaf with J != 0 only through this test,
    and verify_certificate re-checks every indecomposable certificate
    with it.
    """
    if not isinstance(radical, (tuple, list)):
        return "radical is not a sequence of vectors"
    x = e.identity() if element is None else _read_element(e, element)
    if x is None:
        return "certificate element is not X e_0 for an X in the endomorphism algebra"
    ideal = [_read_element(e, j) for j in radical]
    if any(j is None for j in ideal):
        return "radical vector is not X e_0 for an X in the endomorphism algebra"
    failure = _ideal_failure(e, ideal)
    if failure is not None:
        return failure
    if not _nilpotent_span(ideal):
        return "radical span is not nilpotent"
    if not _generates_quotient_field(e, factor(_min_poly(x, ideal)[0]), ideal):
        return "element does not generate a field modulo the radical"
    return None


def verify_certificate(e: EndoAlgebra, cert: Certificate):
    """Re-check a certificate against the algebra; raises RuntimeError on failure.

    The verdict's mode must be one of _MODES[verdict], and the
    certificate may carry only its verdict's witness data, _WITNESS[verdict].
    A malformed certificate (an element, a radical vector or a part that
    is no vector of length n over E's field) fails the check like any
    other wrong one.

    A decomposable certificate's parts a and b must sum to the generator
    e_0 exactly.  Each part is spun under the restricted matrices; both
    orbits must be nonzero and their dimensions must sum to the module
    dimension.  That proves the split: A a + A b is a submodule holding
    e_0, so it is the module, and the dimension count makes the sum
    direct.  Only E's field, dimension and action matrices are read, and
    no matrix product is formed.  Returns those two covering trees, for a
    decomposable certificate, and None for any other verdict.

    An indecomposable certificate is checked by one test,
    _indecomposable_failure.
    """
    if cert.verdict not in _MODES:
        raise RuntimeError(f"unknown verdict {cert.verdict!r}")
    if cert.mode not in _MODES[cert.verdict]:
        raise RuntimeError(f"mode {cert.mode!r} is not one of the {cert.verdict} modes {_MODES[cert.verdict]}")
    for name, value in (("element", cert.element), ("parts", cert.parts), ("radical", cert.radical or None)):
        if value is not None and name not in _WITNESS[cert.verdict]:
            raise RuntimeError(f"{cert.verdict} certificate carries witness data: {name}")
    if cert.verdict == "indecomposable":
        failure = _indecomposable_failure(e, cert.element, cert.radical)
        if failure is not None:
            raise RuntimeError(failure)
    if cert.verdict != "decomposable":
        return None
    if cert.parts is None:
        raise RuntimeError("decomposable certificate is missing its parts")
    field, n = e.field, e.module_dim
    # unboxed once, and summed as the columns of one matrix; the spins step them on raw values
    parts = [_raw_vector(field, n, v) for v in cert.parts] if isinstance(cert.parts, (tuple, list)) else [None]
    if None in parts:
        raise RuntimeError(f"a part is not a vector of length {n} over {field}")
    total = DenseMatrix.from_columns(field, parts, rows=n)._times_col(_unbox(field, [1] * len(parts)))
    if len(parts) != 2:
        raise RuntimeError(f"{len(parts)} parts, expected 2")
    if total != _unit(field.characteristic, n, 0):
        raise RuntimeError("parts do not sum to the generator e_0")
    steps = {label: s._times_col for label, s in e.action_mats}
    trees = tuple(covering_tree(field, n, v, steps) for v in parts)
    dims = [len(tree.words) for tree in trees]
    if 0 in dims or sum(dims) != n:
        raise RuntimeError(f"orbit dimensions {dims[0]} + {dims[1]} are not positive with sum {n}")
    return trees
