"""Dense exact linear algebra over a FieldSpec.

Vectors are tuples of FieldScalar; matrices are immutable row-major
grids.  Everything is written for desk-scale dimensions (a few hundred),
favoring exactness and determinism over asymptotics.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .fields import FieldScalar, FieldSpec

Vector = tuple  # tuple[FieldScalar, ...]


def zero_vector(field: FieldSpec, n: int) -> Vector:
    z = field.zero()
    return (z,) * n


def unit_vector(field: FieldSpec, n: int, i: int) -> Vector:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: FieldScalar, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_dot(u: Vector, v: Vector) -> FieldScalar:
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    if not u:
        raise ValueError("dot of empty vectors has no field to land in")
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


class DenseMatrix:
    """Immutable exact matrix with entries in one field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence], cols: int | None = None):
        grid = tuple(tuple(field.scalar(x) for x in row) for row in entries)
        if grid:
            cols = len(grid[0])
        elif cols is None:
            cols = 0
        for i, row in enumerate(grid):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "DenseMatrix":
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "DenseMatrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: Sequence[Sequence], rows: int | None = None) -> "DenseMatrix":
        cols = [tuple(field.scalar(x) for x in c) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("from_columns with no columns needs an explicit row count")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise ValueError("column lengths differ")
        return cls(field, [[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def _check_same_shape(self, other: "DenseMatrix"):
        if not isinstance(other, DenseMatrix):
            raise TypeError("expected a DenseMatrix")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same_shape(other)
        return DenseMatrix(
            self.field,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same_shape(other)
        return DenseMatrix(
            self.field,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __neg__(self) -> "DenseMatrix":
        return DenseMatrix(self.field, [[-a for a in r] for r in self.entries], cols=self.cols)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.field.zero()
        tcols = other.cols
        out = []
        for row in self.entries:
            acc = [zero] * tcols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.entries[k]
                acc = [acc[j] + a * orow[j] for j in range(tcols)]
            out.append(acc)
        return DenseMatrix(self.field, out, cols=tcols)

    def scale(self, c) -> "DenseMatrix":
        c = self.field.scalar(c)
        return DenseMatrix(self.field, [[c * a for a in r] for r in self.entries], cols=self.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} against {self.rows}x{self.cols}")
        zero = self.field.zero()
        out = []
        for row in self.entries:
            acc = zero
            for a, x in zip(row, v):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def apply_row(self, v: Vector) -> Vector:
        """Row vector times matrix."""
        if len(v) != self.rows:
            raise ValueError(f"row vector length {len(v)} against {self.rows}x{self.cols}")
        zero = self.field.zero()
        acc = [zero] * self.cols
        for x, row in zip(v, self.entries):
            if not x:
                continue
            acc = [acc[j] + x * row[j] for j in range(self.cols)]
        return tuple(acc)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.field, [self.column(j) for j in range(self.cols)], cols=self.rows)

    def trace(self) -> FieldScalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def flatten(self) -> Vector:
        return tuple(a for row in self.entries for a in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __pow__(self, k: int) -> "DenseMatrix":
        return mat_pow(self, k)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"DenseMatrix({self.field}, {self.rows}x{self.cols}: {body})"


def mat_pow(m: DenseMatrix, k: int) -> DenseMatrix:
    """k-th power by repeated squaring; k = 0 gives the identity."""
    if not m.is_square:
        raise ValueError("powers need a square matrix")
    if k < 0:
        raise ValueError("negative matrix powers are not supported")
    acc = DenseMatrix.identity(m.field, m.rows)
    base = m
    while k:
        if k & 1:
            acc = acc * base
        base = base * base if k > 1 else base
        k >>= 1
    return acc


class RrefResult(NamedTuple):
    matrix: DenseMatrix
    rank: int
    pivot_columns: tuple


def rref(m: DenseMatrix) -> RrefResult:
    """Reduced row echelon form with pivot bookkeeping."""
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
    return RrefResult(DenseMatrix(m.field, rows, cols=ncols), r, tuple(pivots))


def kernel_basis(m: DenseMatrix) -> list:
    """Deterministic basis of {v : m v = 0}, one vector per free column."""
    red, rank, pivots = rref(m)
    field = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][fc]
        basis.append(tuple(v))
    return basis


def solve(m: DenseMatrix, b: Vector) -> Optional[Vector]:
    """One solution of m x = b, or None when inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} against {m.rows} rows")
    field = m.field
    if m.rows == 0:
        return zero_vector(field, m.cols)
    aug = DenseMatrix(field, [list(row) + [field.scalar(x)] for row, x in zip(m.entries, b)])
    red, rank, pivots = rref(aug)
    if m.cols in pivots:
        return None
    zero = field.zero()
    x = [zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return tuple(x)


class SpanSolver:
    """Incremental span of inserted vectors, with coordinate recovery.

    add() inserts a vector only if it is independent of everything seen so
    far and reports whether it did; coordinates() rewrites any vector of
    the span as a combination of the inserted ones.  Rows are kept fully
    reduced, so the internal basis is canonical for a given insertion
    order.
    """

    def __init__(self, field: FieldSpec, length: int):
        self.field = field
        self.length = length
        self._rows = []  # reduced vectors, one pivot each
        self._pivots = []
        self._combos = []  # row i as a combination of inserted vectors
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vector):
        alphas = [self.field.zero()] * len(self._rows)
        v = list(v)
        for i, (row, p) in enumerate(zip(self._rows, self._pivots)):
            c = v[p]
            if c:
                alphas[i] = c
                v = [a - c * b for a, b in zip(v, row)]
        return v, alphas

    def add(self, v: Vector) -> bool:
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)}, expected {self.length}")
        residual, alphas = self._reduce(v)
        pivot = next((j for j, a in enumerate(residual) if a), None)
        self.count += 1
        if pivot is None:
            self.count -= 1
            return False
        inv = residual[pivot].inverse()
        new_row = [inv * a for a in residual]
        combo = [self.field.zero()] * self.count
        combo[-1] = inv
        for i, alpha in enumerate(alphas):
            if alpha:
                f = inv * alpha
                old = self._combos[i]
                for k, c in enumerate(old):
                    combo[k] = combo[k] - f * c
        # keep existing rows reduced against the new pivot
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

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v over the inserted vectors, or None if outside the span."""
        residual, alphas = self._reduce(v)
        if any(residual):
            return None
        coords = [self.field.zero()] * self.count
        for alpha, combo in zip(alphas, self._combos):
            if alpha:
                for k, c in enumerate(combo):
                    coords[k] = coords[k] + alpha * c
        return tuple(coords)

    def contains(self, v: Vector) -> bool:
        residual, _ = self._reduce(v)
        return not any(residual)

    def basis_rows(self) -> list:
        return [tuple(r) for r in self._rows]


def column_space_basis(m: DenseMatrix) -> list:
    """First-independent columns of m, in column order."""
    solver = SpanSolver(m.field, m.rows)
    basis = []
    for j in range(m.cols):
        c = m.column(j)
        if solver.add(c):
            basis.append(c)
    return basis


def span_equal(field: FieldSpec, us: Iterable[Vector], vs: Iterable[Vector], length: int) -> bool:
    """Whether two vector families span the same subspace."""
    a = SpanSolver(field, length)
    for u in us:
        a.add(u)
    b = SpanSolver(field, length)
    for v in vs:
        b.add(v)
    if a.rank != b.rank:
        return False
    return all(a.contains(v) for v in b.basis_rows()) and all(b.contains(u) for u in a.basis_rows())
