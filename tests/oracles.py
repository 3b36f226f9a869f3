"""Brute-force reference implementations used to cross-check the library.

Everything here but flat, plain_power, stable_power_by_rref,
fitting_parts_by_stable_power, endo_coordinates, span_equal, min_poly,
commutant_basis, the algebra references and the boxed kernel
works on raw Python values (ints mod p, Fractions, int bitmasks over
GF(2)) and reimplements the math naively, so that a bug in the
library's linear algebra cannot hide inside its own oracle.
flat is a matrix's entries as one row-major vector of n^2 scalars.
plain_power (m^k by k products) and span_equal compare the library's
matrices and spans against powers and kernels, and
stable_power_by_rref is the stable power with every rank read on a
Gauss-Jordan reduced form, and fitting_parts_by_stable_power the parts
of e_0 along its kernel and image, the reference for the Fitting parts
endo reads off a minimal polynomial.  endo_coordinates is an element's
coordinates over E's basis, read on its first column.  min_poly is
the minimal polynomial, modulo a span of matrices, as the first
dependence among the flattened powers I, m, m^2, ...: the reference for
endo's first-column minimal polynomial of an element of E modulo J.
commutant_basis is the general n^2-unknown commutant solve on the
library's matrices: the reference the spun endo.compute_end must match
basis for basis.  The algebra references (enumerate_idempotents,
is_two_sided_ideal_all_basis, left_mult_matrix, radical_char0) take an
EndoAlgebra: idempotents by enumerating every element over GF(p), the
ideal test with every basis element on both sides, and the radical over
Q by the trace form, for the verdicts of the splitting search and the
ideal of its local certificates.  The boxed kernel (boxed_rref, BoxedSpanSolver,
boxed_mul, boxed_apply, boxed_apply_row) runs the same eliminations
entry by entry on FieldScalars: the reference the raw-value kernel in
linalg must match entry for entry.  boxed_covering_tree is the
two-pass covering tree on that kernel, the reference for the one-pass
raw wfa.covering_tree behind orbit_basis, and boxed_minimize, right
reduction then left reduction on it, the reference for wfa.minimize.
The boxed polynomial arithmetic
(boxed_poly_*) is the same for the raw coefficient helpers in
polynomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from cyclomod import endo
from cyclomod.linalg import (
    DenseMatrix,
    SpanSolver,
    _box,
    _kernel_from_rref,
    _qvector,
    _read_lanes,
    _unit,
    rref,
)
from cyclomod.perms import PermutationPresentation
from cyclomod.polynomials import Polynomial
from cyclomod.wfa import WeightedAutomaton


# ---------------------------------------------------------------------------
# raw field helpers


def raw_add(p, a, b):
    return (a + b) % p if p else a + b


def raw_mul(p, a, b):
    return (a * b) % p if p else a * b


def raw_neg(p, a):
    return (-a) % p if p else -a


def raw_inv(p, a):
    if p:
        return pow(a, -1, p)
    return 1 / Fraction(a)


# ---------------------------------------------------------------------------
# determinants and rank by minors


def naive_det(p, rows):
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1 if p == 0 else 1 % p
    if n == 1:
        return rows[0][0]
    acc = 0
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = raw_mul(p, a, naive_det(p, minor))
        if j % 2:
            term = raw_neg(p, term)
        acc = raw_add(p, acc, term)
    return acc


def rank_by_minors(p, rows):
    """Largest k with a nonzero k x k minor."""
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rsub in itertools.combinations(range(nr), k):
            for csub in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in csub] for i in rsub]
                if naive_det(p, sub) != 0:
                    return k
    return 0


# ---------------------------------------------------------------------------
# tiny independent gaussian elimination on raw values


def raw_row_space(p, rows):
    """Row echelon basis of the span of raw-value rows."""
    basis = []  # (pivot, row)
    for row in rows:
        row = list(row)
        for pivot, brow in basis:
            c = row[pivot]
            if c != 0:
                row = [raw_add(p, x, raw_neg(p, raw_mul(p, c, y))) for x, y in zip(row, brow)]
        pivot = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot is None:
            continue
        inv = raw_inv(p, row[pivot])
        row = [raw_mul(p, inv, x) if p else inv * x for x in row]
        basis.append((pivot, row))
    return [r for _, r in basis]


def raw_rank(p, rows):
    return len(raw_row_space(p, rows))


def raw_inverse(p, rows):
    """The inverse of an invertible square raw-value matrix, by Gauss-Jordan on [A | I]."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = raw_inv(p, aug[c][c])
        aug[c] = [raw_mul(p, inv, x) for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f != 0:
                aug[i] = [raw_add(p, x, raw_neg(p, raw_mul(p, f, y))) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# weighted automata on raw values


def naive_weight(p, lam, mu, gamma, word):
    """lambda * mu(w1) * ... * mu(wk) * gamma, all raw lists."""
    v = list(lam)
    for letter in word:
        m = mu[letter]
        v = [
            sum_mod(p, [raw_mul(p, v[i], m[i][j]) for i in range(len(v))])
            for j in range(len(m[0]))
        ]
    return sum_mod(p, [raw_mul(p, a, b) for a, b in zip(v, gamma)])


def sum_mod(p, xs):
    acc = 0
    for x in xs:
        acc = raw_add(p, acc, x)
    return acc


def all_words(alphabet, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=k)


def hankel_rank(p, lam, mu, gamma, alphabet, max_len):
    """Rank of the Hankel block on words of length <= max_len per axis.

    The block factors through the reachability rows and observability
    columns, so its rank equals the rank of (row basis) x (column matrix);
    both sides are enumerated exhaustively, never via a covering tree.
    """
    dim = len(lam)
    rows = []
    for u in all_words(alphabet, max_len):
        v = list(lam)
        for letter in u:
            m = mu[letter]
            v = [sum_mod(p, [raw_mul(p, v[i], m[i][j]) for i in range(dim)]) for j in range(dim)]
        rows.append(v)
    cols = []
    for w in all_words(alphabet, max_len):
        v = list(gamma)
        for letter in reversed(w):
            m = mu[letter]
            v = [sum_mod(p, [raw_mul(p, m[i][j], v[j]) for j in range(dim)]) for i in range(dim)]
        cols.append(v)
    row_basis = raw_row_space(p, rows)
    if not row_basis:
        return 0
    product = [
        [sum_mod(p, [raw_mul(p, r[i], c[i]) for i in range(dim)]) for c in cols] for r in row_basis
    ]
    return raw_rank(p, product)


# ---------------------------------------------------------------------------
# GF(2) subspace enumeration with bitmask vectors


def gf2_all_rref_subspaces(m):
    """Every subspace of GF(2)^m, as a frozenset of member bitmasks."""
    spaces = []
    for k in range(m + 1):
        for pivots in itertools.combinations(range(m), k):
            free_positions = []
            for r, pc in enumerate(pivots):
                for c in range(pc + 1, m):
                    if c not in pivots:
                        free_positions.append((r, c))
            for bits in itertools.product((0, 1), repeat=len(free_positions)):
                rows = []
                for r, pc in enumerate(pivots):
                    row = 1 << pc
                    for (rr, cc), b in zip(free_positions, bits):
                        if rr == r and b:
                            row |= 1 << cc
                    rows.append(row)
                members = {0}
                for row in rows:
                    members |= {x ^ row for x in members}
                spaces.append(frozenset(members))
    return spaces


def gf2_matrix_columns(matrix_rows):
    """Column bitmasks of a GF(2) 0/1 matrix given as int rows."""
    m = len(matrix_rows)
    cols = []
    for j in range(m):
        mask = 0
        for i, row in enumerate(matrix_rows):
            if row[j] % 2:
                mask |= 1 << i
        cols.append(mask)
    return cols


def gf2_apply(cols, v):
    """Image of bitmask vector v under the matrix with the given column bitmasks."""
    out = 0
    j = 0
    while v:
        if v & 1:
            out ^= cols[j]
        v >>= 1
        j += 1
    return out


def gf2_stable(cols_per_generator, space):
    return all(gf2_apply(cols, v) in space for cols in cols_per_generator for v in space)


def gf2_decomposable(m, generator_matrices):
    """Brute force: is GF(2)^m a direct sum of two proper stable subspaces?

    generator_matrices are 0/1 nested lists; enumeration covers every
    subspace pair, not just cyclic ones.
    """
    cols = [gf2_matrix_columns(g) for g in generator_matrices]
    stable = [s for s in gf2_all_rref_subspaces(m) if gf2_stable(cols, s)]
    total = 1 << m
    for a, b in itertools.combinations(stable, 2):
        if len(a) == 1 or len(b) == 1:
            continue
        if len(a) == total or len(b) == total:
            continue
        if a & b == {0} and len(a) * len(b) == total:
            return True
    return False


def gf2_span_bitmasks(vectors):
    members = {0}
    for v in vectors:
        members |= {x ^ v for x in members}
    return frozenset(members)


# ---------------------------------------------------------------------------
# boolean function semantics via truth tables


def truth_table(n, monomials):
    """Truth table (list of 0/1, index = assignment bitmask) of an ANF support set."""
    table = []
    for assign in range(1 << n):
        val = 0
        for mono in monomials:
            if mono & assign == mono:
                val ^= 1
        table.append(val)
    return table


def permute_function_truth_table(n, table, perm):
    """Truth table of f(x_{perm^-1(1)}, ..., x_{perm^-1(n)}); perm is 0-based."""
    out = []
    for assign in range(1 << n):
        moved = 0
        for i in range(n):
            if assign >> i & 1:
                moved |= 1 << perm[i]
        out.append(table[moved])
    return out


def anf_from_truth_table(n, table):
    """Moebius transform back to the ANF support set."""
    coeffs = list(table)
    for i in range(n):
        step = 1 << i
        for mask in range(1 << n):
            if mask & step:
                coeffs[mask] ^= coeffs[mask ^ step]
    return {m for m, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# raw matrix helpers mod p


def raw_mat_mul(p, a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            x = a[i][l]
            if x == 0:
                continue
            for j in range(m):
                out[i][j] = raw_add(p, out[i][j], raw_mul(p, x, b[l][j]))
    return out


def raw_mat_eq(a, b):
    return a == b


def is_fitting_split_by_parts(p, element, a, b):
    """Whether a lies in ker element^n, b in im element^n, and a + b = e_0.

    element holds raw values, Fractions over Q; a and b are raw vectors,
    over Q integers over their `den`.  The power is n - 1 plain products,
    with no squaring and no rank test, so it shares nothing with the
    library's stable power; only the image test takes a rank.
    """
    n = len(element)
    a, b = ([Fraction(x, v.den) for x in v] if not p else list(v) for v in (a, b))
    power = element
    for _ in range(n - 1):
        power = raw_mat_mul(p, power, element)
    in_kernel = all(x == 0 for row in raw_mat_mul(p, power, [[x] for x in a]) for x in row)
    columns = [list(c) for c in zip(*power)]
    in_image = raw_rank(p, columns + [b]) == raw_rank(p, columns)
    return in_kernel and in_image and [raw_add(p, x, y) for x, y in zip(a, b)] == [1] + [0] * (n - 1)


def is_split_by_parts(p, generators, a, b):
    """Whether a + b = e_0 and the orbits of a and b are nonzero with dimensions summing to n.

    generators are the n x n matrices of the action, raw values,
    Fractions over Q, acting on columns; a and b are raw vectors, over Q
    integers over their `den`.  Each orbit is closed breadth-first by
    plain matrix-vector products, a vector kept when raw_rank grows, so
    it shares nothing with the library's covering trees.  Then A a + A b
    holds e_0, so it is the module, and the dimension count makes the
    sum direct.
    """
    a, b = ([Fraction(x, v.den) for x in v] if not p else list(v) for v in (a, b))
    n = len(a)

    def orbit_dim(v):
        kept, queue = [], [v]
        while queue:
            w = queue.pop(0)
            if raw_rank(p, kept + [w]) > len(kept):
                kept.append(w)
                queue += [[row[0] for row in raw_mat_mul(p, g, [[x] for x in w])] for g in generators]
        return len(kept)

    dims = orbit_dim(a), orbit_dim(b)
    return 0 not in dims and sum(dims) == n and [raw_add(p, x, y) for x, y in zip(a, b)] == [1] + [0] * (n - 1)


def count_idempotents_brute(p, basis_matrices):
    """Idempotent count in the span of commuting-candidate basis matrices."""
    if not basis_matrices:
        return 0
    m = len(basis_matrices[0])
    count = 0
    for coords in itertools.product(range(p), repeat=len(basis_matrices)):
        e = [[0] * m for _ in range(m)]
        for c, bm in zip(coords, basis_matrices):
            if c:
                for i in range(m):
                    for j in range(m):
                        e[i][j] = raw_add(p, e[i][j], raw_mul(p, c, bm[i][j]))
        if raw_mat_mul(p, e, e) == e:
            count += 1
    return count


# ---------------------------------------------------------------------------
# library matrices: plain powers, span comparison, minimal polynomials


def flat(m):
    """The entries of a matrix, row major, as one vector of n^2 FieldScalars."""
    return tuple(a for row in m.entries for a in row)


def plain_power(m, k):
    """m^k as k plain products, with no squaring and no rank test (the identity for k = 0)."""
    acc = DenseMatrix.identity(m.field, m.rows)
    for _ in range(k):
        acc = acc * m
    return acc


def stable_power_by_rref(m):
    """(P, rref(P)) for a power P = m^(2^k) whose rank has stopped falling, every power reduced as its rank is read.

    The ranks of m, m^2, ... fall by non-increasing steps, so P has the
    kernel and the image of m^n, the two summands of Fitting's lemma.
    """
    power, red = m, rref(m)
    while 0 < red.rank < m.rows:
        square = power * power
        square_red = rref(square)
        if square_red.rank == red.rank:
            return power, square_red
        power, red = square, square_red
    return power, red


def fitting_parts_by_stable_power(m):
    """The parts e_0 = a + b along ker P + im P, for P the stable power of m, as FieldScalars; None when P is 0 or invertible.

    The kernel is read off P's reduced form, the image is P's columns at
    its pivots, and one solve over both, on FieldScalars, gives the
    parts: the split the Fitting search made before it read its parts
    off the minimal polynomial.
    """
    power, red = stable_power_by_rref(m)
    if red.rank in (0, m.rows):
        return None
    kernel = kernel_basis(power)
    image = [tuple(row[c] for row in power.entries) for c in red.pivot_columns]
    solver = BoxedSpanSolver(m.field, m.rows)
    for v in kernel + image:
        solver.add(v)
    coords = solver.coordinates(_box(m.field, _unit(m.field.characteristic, m.rows, 0)))
    zero = (m.field.zero(),) * m.rows
    return tuple(
        tuple(sum((c * v[i] for c, v in zip(coords[start:stop], side)), zero[i]) for i in range(m.rows))
        for side, start, stop in ((kernel, 0, len(kernel)), (image, len(kernel), m.rows))
    )


def endo_coordinates(e, mat):
    """The coordinates of mat over the basis of E, as FieldScalars, or None when mat is not in E.

    mat is fixed by its first column when it is in E, so its coordinates
    are those of mat e_0 over the basis' first columns, and it is in E
    when the element with those coordinates is mat.
    """
    coords = e._solver._coordinates(mat._column(0))
    return None if coords is None or e.element(coords) != mat else _box(e.field, coords)


def nilpotent_by_chain(ideal, start=None):
    """Whether J^k w = 0 for some k and every w in start, for J = span(ideal) with J J inside J.

    start defaults to e_0 alone: for a two-sided ideal J of an algebra E
    of endomorphisms, each fixed by its first column, J^k = 0 exactly
    when J^k e_0 = 0.  With start the unit vectors the test holds for
    any matrices.  The chain J W, J^2 W, ... comes from matrix-vector
    products j w, for j in the ideal and w in a basis of the step before,
    reduced by one rref per step.  J J lies in J, so each space lies in
    the one before, and the chain falls to 0 or stops at a nonzero space.
    """
    field, n = ideal[0].field, ideal[0].rows
    p = field.characteristic
    space = [_unit(p, n, 0)] if start is None else start
    images = [j._times_col(w) for j in ideal for w in space]
    space = None
    while images:
        step = rref(DenseMatrix._from_vectors(field, images, n))
        if space is not None and step.rank >= len(space):
            return False
        reduced = step.matrix
        space = reduced._raw[:step.rank]
        if not p:
            space = [_qvector(r, reduced._den) for r in space]
        images = [j._times_col(w) for j in ideal for w in space]
    return True


def span_equal(field, us, vs, length):
    """Whether two vector families span the same subspace."""
    a = SpanSolver(field, length)
    for u in us:
        a.add(u)
    b = SpanSolver(field, length)
    for v in vs:
        b.add(v)
    if a.rank != b.rank:
        return False
    return all(a.contains(v) for v in basis_rows(b)) and all(b.contains(u) for u in basis_rows(a))


def kernel_basis(m):
    """Deterministic basis of {v : m v = 0}, one vector per free column, as FieldScalars."""
    return [_box(m.field, v) for v in _kernel_from_rref(m.field, m.cols, rref(m))]


def basis_rows(solver):
    """The reduced echelon basis of a SpanSolver's span, one row per kept row, in the order they were kept."""
    p, n = solver._p, solver.length
    if p == 2:
        rows = [_read_lanes(2, r & solver._vector_bits, 1, n) for r in solver._rows.values()]
    elif p:
        rows = [_read_lanes(p, r & solver._vector_bits, solver._width, n) for r in solver._rows]
    else:
        rows = [r[:n] for r in solver._rows]
    reduced = rref(DenseMatrix._from_raw(solver.field, rows, n))
    by_pivot = dict(zip(reduced.pivot_columns, reduced.matrix.entries))
    return [by_pivot[next(itertools.compress(range(n), r))] for r in rows]


def presentation_to_json(p: PermutationPresentation) -> dict:
    """The JSON object of a presentation, the inverse of serialize.presentation_from_json."""
    return {
        "degree": p.degree,
        "generators": {label: list(p.generators[label]) for label in p.labels},
    }


def min_poly(m, modulo=()):
    """Minimal polynomial of m modulo the span of the independent matrices `modulo`.

    It is the first dependence among the flattened I, m, m^2, ... modulo
    that span, n^2 entries each.  With `modulo` empty it is the plain
    minimal polynomial; otherwise it divides the plain one, so n + 1
    powers always suffice.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    field, n = m.field, m.rows
    solver = SpanSolver(field, n * n)
    for j in modulo:
        solver.add(flat(j))
    power = DenseMatrix.identity(field, n)
    for _ in range(n + 1):
        coords = solver.coordinates(flat(power))
        if coords is not None:
            return Polynomial(field, [-c for c in coords[len(modulo):]] + [field.one()])
        solver.add(flat(power))
        power = power * m
    raise RuntimeError("no dependence among matrix powers up to the dimension")


# ---------------------------------------------------------------------------
# commutant by the direct n^2-unknown solve


def commutant_basis(field, dim, matrices):
    """Basis of all dim x dim matrices commuting with every given matrix.

    The unknown matrix is flattened row major; each given matrix S
    contributes the dim^2 linear conditions (X S - S X)_{ij} = 0.  This
    is the general solve that endo.compute_end replaces by spinning from
    the generator, kept here on the library's matrices so the two bases
    can be compared entry for entry.
    """
    if dim == 0:
        return []
    for s in matrices:
        if s.field != field:
            raise ValueError(f"matrix in {s.field}, expected {field}")
        if (s.rows, s.cols) != (dim, dim):
            raise ValueError(f"matrix is {s.rows}x{s.cols}, expected {dim}x{dim}")
    zero = field.zero()
    rows = []
    for s in matrices:
        for i in range(dim):
            for j in range(dim):
                row = [zero] * (dim * dim)
                for k in range(dim):
                    # x_{ik} s_{kj} from X S
                    row[i * dim + k] = row[i * dim + k] + s.entries[k][j]
                    # -s_{ik} x_{kj} from S X
                    row[k * dim + j] = row[k * dim + j] - s.entries[i][k]
                rows.append(row)
    constraint = DenseMatrix(field, rows, cols=dim * dim)
    basis = []
    for flat in kernel_basis(constraint):
        entries = [list(flat[i * dim:(i + 1) * dim]) for i in range(dim)]
        basis.append(DenseMatrix(field, entries, cols=dim))
    return basis


# ---------------------------------------------------------------------------
# references for the endomorphism algebra: idempotents by enumeration, the
# radical over Q by the trace form


def enumerate_idempotents(e, cap=2 ** 22):
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


def is_two_sided_ideal_all_basis(e, ideal, span):
    """Whether b j and j b lie in J for every basis element b of E and every j in `ideal`.

    The all-basis test that endo._ideal_failure replaces by the
    products inside J and those with a complement of J: 2 |J| (dim E - 1)
    first-column products, b (j e_0) and j (b e_0) tested in J e_0 =
    `span`, with the identity skipped.
    """
    ident = e.identity()
    firsts = [endo._first_column(j) for j in ideal]
    for b in e.basis:
        if b == ident:
            continue
        b0 = endo._first_column(b)
        for j, j0 in zip(ideal, firsts):
            if not (span.contains(endo._image(b, j0)) and span.contains(endo._image(j, b0))):
                return False
    return True


def left_mult_matrix(e, i):
    """Left multiplication by e.basis[i], in algebra coordinates."""
    columns = []
    for b in e.basis:
        coords = endo_coordinates(e, e.basis[i] * b)
        if coords is None:
            raise RuntimeError("algebra basis is not multiplicatively closed")
        columns.append(coords)
    return DenseMatrix.from_columns(e.field, columns, rows=e.dim)


def radical_char0(e):
    """Basis of the Jacobson radical over Q, via the regular trace form.

    An element is radical exactly when the trace of left multiplication
    by (it times anything) vanishes; that is the classical criterion in
    characteristic zero.  Results are verified nilpotent and ideal-stable
    before returning.
    """
    if e.field.characteristic != 0:
        raise ValueError("the trace-form radical needs characteristic zero")
    d = e.dim
    if d == 0:
        return []
    left = [left_mult_matrix(e, i) for i in range(d)]
    gram = DenseMatrix(e.field, [[(left[i] * left[j]).trace() for j in range(d)] for i in range(d)], cols=d)
    rad = []
    rad_solver = SpanSolver(e.field, e.module_dim * e.module_dim)
    for coords in kernel_basis(gram):
        mat = e.element(coords)
        rad.append(mat)
        rad_solver.add(flat(mat))
    for mat in rad:
        # the algebra acts faithfully, so radical elements are nilpotent matrices
        if not plain_power(mat, e.module_dim).is_zero():
            raise RuntimeError("radical candidate is not nilpotent")
        for b in e.basis:
            for prod in (mat * b, b * mat):
                if not rad_solver.contains(flat(prod)):
                    raise RuntimeError("radical candidate span is not a two-sided ideal")
    return rad


# ---------------------------------------------------------------------------
# the boxed elimination kernel


class BoxedRref(NamedTuple):
    rows: list
    rank: int
    pivot_columns: tuple


def boxed_rref(m):
    """Reduced row echelon form computed entry by entry on FieldScalars.

    This is the library's rref before its loops moved to raw values,
    kept as the reference the raw kernel must match entry for entry.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return BoxedRref([tuple(row) for row in rows], r, tuple(pivots))


class BoxedSpanSolver:
    """The library's SpanSolver on FieldScalars, before its loops moved to raw values."""

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self._rows = []
        self._pivots = []
        self._combos = []
        self.count = 0

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, v):
        alphas = [self.field.zero()] * len(self._rows)
        v = list(v)
        for i, (row, p) in enumerate(zip(self._rows, self._pivots)):
            c = v[p]
            if c:
                alphas[i] = c
                v = [a - c * b for a, b in zip(v, row)]
        return v, alphas

    def add(self, v):
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)}, expected {self.length}")
        residual, alphas = self._reduce(v)
        pivot = next((j for j, a in enumerate(residual) if a), None)
        if pivot is None:
            return False
        self.count += 1
        inv = residual[pivot].inverse()
        new_row = [inv * a for a in residual]
        combo = [self.field.zero()] * self.count
        combo[-1] = inv
        for i, alpha in enumerate(alphas):
            if alpha:
                f = inv * alpha
                for k, c in enumerate(self._combos[i]):
                    combo[k] = combo[k] - f * c
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if c:
                self._rows[i] = [a - c * b for a, b in zip(row, new_row)]
                old = self._combos[i]
                merged = list(old) + [self.field.zero()] * (len(combo) - len(old))
                self._combos[i] = [a - c * b for a, b in zip(merged, combo)]
        self._rows.append(new_row)
        self._pivots.append(pivot)
        self._combos.append(combo)
        return True

    def coordinates(self, v):
        residual, alphas = self._reduce(v)
        if any(residual):
            return None
        coords = [self.field.zero()] * self.count
        for alpha, combo in zip(alphas, self._combos):
            if alpha:
                for k, c in enumerate(combo):
                    coords[k] = coords[k] + alpha * c
        return tuple(coords)

    def contains(self, v):
        residual, _ = self._reduce(v)
        return not any(residual)

    def basis_rows(self):
        return [tuple(r) for r in self._rows]


def boxed_covering_tree(field, length, root, labels, step):
    """The covering tree before it moved to raw values: (words, vectors, images, solver).

    step(label, v) maps boxed vectors to boxed vectors.  Every successor
    is reduced twice on FieldScalars, by BoxedSpanSolver.add while the
    tree grows and by coordinates once it is complete: images[label][i]
    holds the coordinates of step(label, vectors[i]) over the kept
    vectors.
    """
    solver = BoxedSpanSolver(field, length)
    root = tuple(field.scalar(x) for x in root)
    words, vectors = [], []
    successors = {label: [] for label in labels}
    if solver.add(root):
        words.append(())
        vectors.append(root)
    i = 0
    while i < len(vectors):
        for label in labels:
            v = tuple(step(label, vectors[i]))
            if solver.add(v):
                words.append(words[i] + (label,))
                vectors.append(v)
            successors[label].append(v)
        i += 1
    images = {label: [solver.coordinates(v) for v in successors[label]] for label in labels}
    return words, vectors, images, solver


def _boxed_dot(field, u, v):
    return sum((a * b for a, b in zip(u, v)), field.zero())


def boxed_minimize(a):
    """The minimal automaton of a by right reduction, then left reduction, on the boxed kernel.

    Right: the tree of gamma under v -> mu(s) v keeps columns c_j; the
    reduced automaton has lambda'_j = lambda c_j, mu'(s) with the
    coordinates of mu(s) c_j in column j, and gamma' the coordinates of
    gamma.  Left: the tree of lambda' under x -> x mu'(s) keeps rows r_i;
    the result has lambda'' the coordinates of lambda', mu''(s) with the
    coordinates of r_i mu'(s) in row i, and gamma''_i = r_i gamma'.
    """
    field, labels = a.field, a.alphabet
    _, columns, right, solver = boxed_covering_tree(
        field, a.dim, a.gamma, labels, lambda s, v: boxed_apply(a.mu[s], v)
    )
    lam = [_boxed_dot(field, c, a.lam) for c in columns]
    gamma = solver.coordinates(a.gamma)
    # (x mu'(s))_j is x times column j of mu'(s), the coordinates of mu(s) c_j
    _, rows, left, solver = boxed_covering_tree(
        field, len(columns), lam, labels, lambda s, x: [_boxed_dot(field, x, c) for c in right[s]]
    )
    mu = {s: [list(r) for r in left[s]] for s in labels}
    return WeightedAutomaton(field, labels, solver.coordinates(lam), mu, [_boxed_dot(field, r, gamma) for r in rows])


def boxed_mul(a, b):
    """Entries of the product a * b, summed on FieldScalars."""
    zero = a.field.zero()
    return [
        tuple(sum((row[k] * b.entries[k][j] for k in range(a.cols)), zero) for j in range(b.cols))
        for row in a.entries
    ]


def boxed_apply(m, v):
    """m times the column vector v, summed on FieldScalars."""
    zero = m.field.zero()
    return tuple(sum((a * m.field.scalar(x) for a, x in zip(row, v)), zero) for row in m.entries)


def boxed_apply_row(m, v):
    """The row vector v times m, summed on FieldScalars."""
    zero = m.field.zero()
    return tuple(
        sum((m.field.scalar(x) * m.entries[i][j] for i, x in enumerate(v)), zero)
        for j in range(m.cols)
    )


# ---------------------------------------------------------------------------
# boxed polynomial arithmetic: coefficient tuples, low degree first


def boxed_poly_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def boxed_poly_add(field, a, b):
    """a + b summed on FieldScalars: the reference for polynomials._padd."""
    z = field.zero()
    n = max(len(a), len(b))
    return boxed_poly_trim((a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n))


def boxed_poly_scale(c, a):
    return boxed_poly_trim(c * x for x in a)


def boxed_poly_mul(field, a, b):
    """a * b summed on FieldScalars: the reference for polynomials._pmul."""
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return boxed_poly_trim(out)


def boxed_poly_divmod(field, a, b):
    """Quotient and remainder on FieldScalars: the reference for polynomials._pdivmod."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return (), tuple(a)
    inv = b[-1].inverse()
    quo = [field.zero()] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1]
        if c:
            q = c * inv
            quo[k] = q
            for i, y in enumerate(b):
                rem[k + i] = rem[k + i] - q * y
    return boxed_poly_trim(quo), boxed_poly_trim(rem[: len(b) - 1])


def boxed_poly_monic(a):
    return boxed_poly_scale(a[-1].inverse(), a)


def boxed_poly_derivative(a):
    return boxed_poly_trim(i * c for i, c in enumerate(a) if i)


def boxed_poly_gcd(field, a, b):
    while b:
        a, b = b, boxed_poly_divmod(field, a, b)[1]
    return boxed_poly_monic(a) if a else a


def boxed_poly_pow(field, a, k):
    acc = (field.one(),)
    for _ in range(k):
        acc = boxed_poly_mul(field, acc, a)
    return acc


def boxed_poly_of_matrix(field, a, m):
    """sum_i a_i m^i by Horner's rule, summed entry by entry on FieldScalars."""
    n = m.rows
    acc = [[field.zero()] * n for _ in range(n)]
    for c in reversed(a):
        acc = [
            [sum((row[k] * m.entries[k][j] for k in range(n)), field.zero()) for j in range(n)]
            for row in acc
        ]
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return tuple(tuple(row) for row in acc)
