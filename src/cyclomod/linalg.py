"""Dense exact linear algebra over a FieldSpec.

Matrices are immutable row-major grids over one field, written for
desk-scale dimensions (a few hundred), favoring exactness and
determinism over asymptotics.

Data stays raw: ints in [0, p) for GF(p), Fractions for Q.  A
FieldScalar is made only where a public call hands a result back or
`entries` is read; a public call unboxes its vector arguments once,
checking their field, and the kernel (rref, SpanSolver, products, sums
and scaling) and every other module pass raw rows to each other.  The
kernel skips every entry whose multiplier is zero.  Over Q it multiplies
on integer rows, and a Q matrix keeps that integer form once it has been
needed.  For p != 2, GF(p) and Q share one Gauss-Jordan loop
(_rref_rows) and one SpanSolver reduction and insertion on kernel rows,
raw values over GF(p) and integer rows over Q.  The field enters only
through two steps: _pivot_row makes a pivot row, scaled to 1 over GF(p)
and primitive over Q, and _clear clears an entry with it, x - c*pivot_row
over GF(p) and, fraction-free, a*x - c*pivot_row divided by its content
over Q (Bareiss, Math. Comp. 22, 1968).  Over GF(2) the kernel packs a
row into one int, entry j in byte j, so a row sum is a XOR; a matrix
packs its rows and its columns when a product first needs them, and
endo.compute_end packs its spin with the same _pack.  Reduced echelon
forms and coordinates are unique, so they are the ones plain Fraction or
list arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm
from operator import xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .fields import FieldScalar, FieldSpec

Vector = tuple  # tuple[FieldScalar, ...]


def unit_vector(field: FieldSpec, n: int, i: int) -> Vector:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


_QZERO, _QONE = Fraction(0), Fraction(1)


def _zero(p: int):
    return 0 if p else _QZERO


def _one(p: int):
    return 1 if p else _QONE


def _unit(p: int, n: int, i: int) -> list:
    """The raw unit vector e_i of length n."""
    x = [_zero(p)] * n
    x[i] = _one(p)
    return x


def _inv(p: int, a):
    return pow(a, -1, p) if p else 1 / a


def _neg(p: int, a):
    return (p - a) % p if p else -a


def _times(p: int, a, b):
    return a * b % p if p else a * b


def _addmul(p: int, x: list, c, y: Sequence) -> list:
    """x + c*y on raw values (ints for p = 0), for nonzero c; entries where y is 0 are copied."""
    if p == 2:
        return [a ^ b for a, b in zip(x, y)]
    if p:
        return [(a + c * b) % p if b else a for a, b in zip(x, y)]
    return [a + c * b if b else a for a, b in zip(x, y)]


def _scale(p: int, c, x: Sequence) -> list:
    if p:
        return [c * a % p for a in x]
    return [c * a if a else a for a in x]


def _dot(p: int, x: Sequence, y: Sequence):
    """The dot product of two raw vectors of one length, as a raw value."""
    if p == 2:
        return (_pack(x) & _pack(y)).bit_count() & 1
    if p:
        return sum([a * b for a, b in zip(x, y) if a]) % p
    (x, y), d = _clear_denominators([x, y])
    return Fraction(sum([a * b for a, b in zip(x, y) if a]), d * d)


def _clear_denominators(rows: Sequence) -> tuple:
    """(A, D) for raw Q rows: D the lcm of their denominators, A the integer rows D * rows."""
    d = lcm(*{x.denominator for row in rows for x in row})
    if d == 1:
        return [[x.numerator for x in row] for row in rows], d
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _fractions(xs: Sequence, d: int) -> list:
    """The raw Q row xs / d, for integers xs and d != 0."""
    if d == 1:
        return [Fraction(a) if a else _QZERO for a in xs]
    return [Fraction(a, d) if a else _QZERO for a in xs]


def _lowest_terms(rows: list, d: int) -> tuple:
    """(rows / g, d / g) for integer rows over d, with g the gcd of d and every entry."""
    g = gcd(d, *[gcd(*r) for r in rows])
    if g > 1:
        return [[a // g for a in r] for r in rows], d // g
    return rows, d


def _primitive(xs: list) -> list:
    """An integer row divided by its content; a zero row is returned as it is."""
    g = gcd(*xs)
    return [a // g for a in xs] if g > 1 else xs


def _pack(xs: Sequence) -> int:
    """A raw GF(2) vector as one int, entry j in byte j; a row sum is then a XOR.

    A byte per entry, not a bit, because bytes() packs and to_bytes
    unpacks in C, where packing bits would take a Python loop.
    """
    return int.from_bytes(bytes(xs), "little")


def _unpack(x: int, n: int) -> list:
    """The raw GF(2) vector of length n packed in x."""
    return list(x.to_bytes(n, "little"))


def _packed_unit(j: int) -> int:
    """The unit vector e_j, packed."""
    return 1 << 8 * j


def _xor_of(packed: list, x: Sequence, n: int) -> list:
    """The sum of the packed GF(2) vectors of length n where x is 1, unpacked: x times their matrix."""
    return _unpack(reduce(xor, compress(packed, x), 0), n)


class _RawVector(list):
    """Canonical raw values that the kernel takes as they are, without unboxing.

    Nothing records their field, so the caller must check it.
    """

    __slots__ = ()


def _unbox(field: FieldSpec, xs: Sequence) -> list:
    """Canonical raw values of xs; a FieldScalar of another field is rejected."""
    if type(xs) is _RawVector:
        return xs
    if not isinstance(xs, (tuple, list)):
        xs = list(xs)
    p = field.characteristic
    try:
        raw = [x.value for x in xs if x.field.characteristic == p]
        if len(raw) == len(xs):
            return raw
    except AttributeError:
        if all(type(x) is int for x in xs):
            return [x % p for x in xs] if p else [Fraction(x) for x in xs]
        if not p and all(type(x) is Fraction for x in xs):
            return list(xs)
    out = []
    for x in xs:
        if isinstance(x, FieldScalar) and x.field != field:
            raise ValueError(f"mixed fields: {x.field} and {field}")
        out.append(field.scalar(x).value)
    return out


def _box(field: FieldSpec, raw: Iterable) -> Vector:
    return tuple([FieldScalar(field, x) for x in raw])


class DenseMatrix:
    """Immutable exact matrix with entries in one field."""

    __slots__ = ("field", "rows", "cols", "_entries", "_raw", "_ints", "_packed_rows", "_packed_cols")

    def __init__(self, field: FieldSpec, entries: Sequence[Sequence], cols: int | None = None):
        rows = [tuple(row) for row in entries]
        raw = [_unbox(field, row) for row in rows]
        if raw:
            cols = len(raw[0])
        elif cols is None:
            cols = 0
        for i, row in enumerate(raw):
            if len(row) != cols:
                raise ValueError(f"row {i} has {len(row)} entries, expected {cols}")
        # rows given as FieldScalars are kept, so reading them back allocates nothing
        boxed = all(type(x) is FieldScalar for row in rows for x in row)
        self._store(field, raw, cols, tuple(rows) if boxed else None)

    @classmethod
    def _from_raw(cls, field: FieldSpec, raw: list, cols: int) -> "DenseMatrix":
        """A matrix from rows of canonical raw values, without per-entry coercion.

        The caller hands over raw and must not change it afterwards.
        """
        m = object.__new__(cls)
        m._store(field, raw, cols, None)
        return m

    @classmethod
    def _from_ints(cls, field: FieldSpec, rows: list, d: int, cols: int) -> "DenseMatrix":
        """The Q matrix rows / d from integer rows, which become its integer form; d != 0."""
        if d < 0:
            rows, d = [[-a for a in r] for r in rows], -d
        rows, d = _lowest_terms(rows, d)
        m = cls._from_raw(field, [_fractions(r, d) for r in rows], cols)
        object.__setattr__(m, "_ints", (rows, d))
        return m

    def _store(self, field: FieldSpec, raw: list, cols: int, entries: Optional[tuple]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(raw))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_entries", entries)

    @property
    def entries(self) -> tuple:
        """The rows as tuples of FieldScalar, boxed on first use."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(_box(self.field, row) for row in self._raw))
        return self._entries

    def _int_form(self) -> tuple:
        """(A, D) with A = D * rows: integer rows over Q, computed on first use; over GF(p), (rows, 1)."""
        if self.field.characteristic:
            return self._raw, 1
        try:
            return self._ints
        except AttributeError:  # the slot stays empty until a Q kernel call needs it
            object.__setattr__(self, "_ints", _clear_denominators(self._raw))
            return self._ints

    def _packed(self, columns: bool) -> list:
        """The GF(2) rows, or columns, packed into ints, computed on first use."""
        slot = "_packed_cols" if columns else "_packed_rows"
        try:
            return getattr(self, slot)
        except AttributeError:  # the slot stays empty until a GF(2) product needs it
            lines = zip(*self._raw) if columns else self._raw
            object.__setattr__(self, slot, [_pack(r) for r in lines])
            return getattr(self, slot)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "DenseMatrix":
        z = _zero(field.characteristic)
        return cls._from_raw(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "DenseMatrix":
        p = field.characteristic
        return cls._from_raw(field, [_unit(p, n, i) for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: Sequence[Sequence], rows: int | None = None) -> "DenseMatrix":
        cols = [_unbox(field, c) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("from_columns with no columns needs an explicit row count")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise ValueError("column lengths differ")
        raw = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(rows)]
        return cls._from_raw(field, raw, len(cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_same_shape(self, other: "DenseMatrix"):
        if not isinstance(other, DenseMatrix):
            raise TypeError("expected a DenseMatrix")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _plus(self, other: "DenseMatrix", sign: int) -> "DenseMatrix":
        self._check_same_shape(other)
        p = self.field.characteristic
        if p:
            raw = [_addmul(p, r, sign % p, s) for r, s in zip(self._raw, other._raw)]
            return DenseMatrix._from_raw(self.field, raw, self.cols)
        # over Q, on the integer forms, so that the sum keeps one for products and rref
        a, da = self._int_form()
        b, db = other._int_form()
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        rows = [[fa * x + fb * y for x, y in zip(r, s)] for r, s in zip(a, b)]
        return DenseMatrix._from_ints(self.field, rows, d, self.cols)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "DenseMatrix":
        p = self.field.characteristic
        raw = [[_neg(p, a) for a in r] for r in self._raw]
        return DenseMatrix._from_raw(self.field, raw, self.cols)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.characteristic
        if p == 2:
            return DenseMatrix._from_raw(self.field, [other._times_row(x) for x in self._raw], other.cols)
        a, da = self._int_form()
        b, db = other._int_form()
        raw = [_row_times(p, x, b, other.cols) for x in a]
        if p:
            return DenseMatrix._from_raw(self.field, raw, other.cols)
        return DenseMatrix._from_ints(self.field, raw, da * db, other.cols)

    def scale(self, c) -> "DenseMatrix":
        (c,) = _unbox(self.field, [c])
        p = self.field.characteristic
        raw = [_scale(p, c, r) for r in self._raw]
        return DenseMatrix._from_raw(self.field, raw, self.cols)

    def _times_col(self, x: list) -> list:
        """The matrix times the raw column vector x, as raw values; zero entries of x are skipped."""
        p = self.field.characteristic
        if p == 2:
            return _xor_of(self._packed(True), x, self.rows)
        if p:
            rows = self._raw
        else:
            (x,), dx = _clear_denominators([x])
            rows, d = self._int_form()
        nz = [j for j, a in enumerate(x) if a]
        out = [sum([row[j] * x[j] for j in nz]) for row in rows]
        return [s % p for s in out] if p else _fractions(out, dx * d)

    def _times_row(self, x: list) -> list:
        """The raw row vector x times the matrix, as raw values; zero entries of x are skipped."""
        p = self.field.characteristic
        if p == 2:
            return _xor_of(self._packed(False), x, self.cols)
        if p:
            return _row_times(p, x, self._raw, self.cols)
        (x,), dx = _clear_denominators([x])
        a, d = self._int_form()
        return _fractions(_row_times(0, x, a, self.cols), dx * d)

    def transpose(self) -> "DenseMatrix":
        raw = self._raw
        columns = [list(c) for c in zip(*raw)] if raw else [[] for _ in range(self.cols)]
        return DenseMatrix._from_raw(self.field, columns, self.rows)

    def trace(self) -> FieldScalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        p = self.field.characteristic
        raw = self._raw
        total = sum((raw[i][i] for i in range(self.rows)), _zero(p))
        return FieldScalar(self.field, total % p if p else total)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._raw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._raw == self._raw
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(map(tuple, self._raw))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"DenseMatrix({self.field}, {self.rows}x{self.cols}: {body})"


def _row_times(p: int, x: Sequence, rows: Sequence, cols: int) -> list:
    """The row vector x times the rows, on raw GF(p) values or, for p = 0, on integers.

    Zero entries of x are skipped.
    """
    acc = [0] * cols
    for a, row in zip(x, rows):
        if a:
            acc = [s + a * b for s, b in zip(acc, row)]
    # over GF(p), reduce once at the end: the partial sums stay below len(x) * p^2
    return [s % p for s in acc] if p else acc


def _sum_of_multiples(p: int, terms: Sequence, cols: int) -> list:
    """The sum of c * y over the (c, y) in terms, as _row_times does for a sparse x.

    The terms are the nonzero (x_i, row_i) only, so a long, mostly zero x
    costs nothing for its zeros.
    """
    if not terms:
        return [0] * cols
    c, y = terms[0]
    acc = [c * b for b in y]
    for c, y in terms[1:]:
        acc = [s + c * b for s, b in zip(acc, y)]
    return [s % p for s in acc] if p else acc


def stable_power(m: DenseMatrix) -> tuple:
    """(P, rref(P)) for a power P = m^(2^k) whose rank has stopped falling.

    The ranks of m, m^2, m^3, ... fall by non-increasing steps, so once
    rank(P^2) = rank(P) for P = m^a they are constant from a on, and P
    has the kernel and image of m^n.  Starting from rank(m), that takes
    at most ceil(log2 n) + 1 squarings; an invertible or zero m is
    returned as it is, without a product.  When the squaring stops, the
    reduced form at hand is the one of P^2.  It is the one of P as well:
    their ranks agree, so ker P = ker P^2, and the row spaces, the
    annihilators of the kernels, are equal.
    """
    if not m.is_square:
        raise ValueError("powers need a square matrix")
    power, red = m, rref(m)
    while 0 < red.rank < m.rows:
        square = power * power
        square_red = rref(square)
        if square_red.rank == red.rank:
            return power, square_red
        power, red = square, square_red
    return power, red


class RrefResult(NamedTuple):
    matrix: DenseMatrix
    rank: int
    pivot_columns: tuple


def _combine(x: list, a: int, c: int, y: list) -> list:
    """The primitive part of a*x - c*y for integer rows, with a and c divided by their gcd."""
    g = gcd(a, c)
    a, c = a // g, c // g
    return _primitive([a * u - c * v for u, v in zip(x, y)])


def _pivot_row(p: int, x: list, c: int) -> list:
    """x made a pivot row at column c: scaled to 1 there over GF(p), primitive over Q."""
    return _scale(p, _inv(p, x[c]), x) if p else _primitive(x)


def _clear(p: int, x: list, c: int, prow: list) -> list:
    """x with its entry in column c cleared by the pivot row prow; primitive over Q."""
    return _addmul(p, x, _neg(p, x[c]), prow) if p else _combine(x, prow[c], x[c], prow)


def _rref_rows(p: int, rows: list, ncols: int) -> list:
    """Gauss-Jordan on kernel rows in place; returns the pivots.

    The rows are raw GF(p) values, and each pivot row ends reduced, or,
    over Q, integer rows, and each pivot row ends as a primitive multiple
    of its reduced row.  The inner lists are replaced, never changed.
    """
    if p == 2:
        # row by row on packed rows; the reduced echelon form is unique, so
        # it is the one the column-by-column elimination below gives
        kept, mask = {}, 0
        for x in map(_pack, rows):
            x = _xor_reduce(kept, mask, x)
            if x:
                mask |= _xor_insert(kept, x)
        order = sorted(kept)
        rows[:] = [_unpack(kept[b], ncols) for b in order] + [[0] * ncols for _ in range(len(rows) - len(kept))]
        return [(b.bit_length() - 1) >> 3 for b in order]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r] = _pivot_row(p, rows[r], c)
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = _clear(p, row, c, prow)
        pivots.append(c)
        r += 1
    return pivots


def _xor_reduce(kept: dict, mask: int, x: int) -> int:
    """The packed GF(2) row x reduced against kept, a dict pivot bit -> row.

    The pivot of a kept row is its lowest set bit, mask holds every pivot
    bit, and the rows are zero at each other's pivots, so the pivot bits
    x holds name at once the rows to add.
    """
    hits = x & mask
    while hits:
        low = hits & -hits
        x ^= kept[low]
        hits ^= low
    return x


def _xor_insert(kept: dict, x: int) -> int:
    """Keep the nonzero reduced row x and clear its pivot bit from the other kept rows; returns that bit."""
    low = x & -x
    for b, y in kept.items():
        if y & low:
            kept[b] = y ^ x
    kept[low] = x
    return low


def rref(m: DenseMatrix) -> RrefResult:
    """Reduced row echelon form with pivot bookkeeping."""
    p = m.field.characteristic
    rows = list(m._int_form()[0])
    pivots = _rref_rows(p, rows, m.cols)
    if not p:
        rows = [_fractions(r, r[c]) for r, c in zip(rows, pivots)]
        rows += [[_QZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return RrefResult(DenseMatrix._from_raw(m.field, rows, m.cols), len(pivots), tuple(pivots))


def kernel_basis(m: DenseMatrix) -> list:
    """Deterministic basis of {v : m v = 0}, one vector per free column."""
    return [_box(m.field, v) for v in _kernel_from_rref(m.field, m.cols, rref(m))]


def _kernel_from_rref(field: FieldSpec, cols: int, reduction: RrefResult) -> list:
    """The kernel_basis of a matrix with cols columns, from its reduced form, as raw vectors."""
    red, rank, pivots = reduction
    p = field.characteristic
    reduced = red._raw
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_set):
        v = _RawVector(_unit(p, cols, fc))
        for r, pc in enumerate(pivots):
            v[pc] = _neg(p, reduced[r][fc])
        basis.append(v)
    return basis


class SpanSolver:
    """Incremental span of inserted vectors, with coordinate recovery.

    add() inserts a vector only if it is independent of everything seen so
    far and reports whether it did; coordinates() rewrites any vector of
    the span as a combination of the inserted ones.  Rows are kept fully
    reduced, so the internal basis is canonical for a given insertion
    order.  For p != 2 a row and its combination are kept in one form,
    row_i = sum_k combo_i[k] * (k-th inserted vector), and are made a
    pivot row and cleared as one row: raw values over GF(p), each row
    with a 1 at its pivot, and over Q a primitive integer multiple of
    the reduced row, its combination in the same scale.  Over GF(2) a
    row and its combination are one packed int, the combination in the
    bytes above the first length, and the rows are a dict from each
    row's pivot, its lowest set bit, to the row.
    """

    def __init__(self, field: FieldSpec, length: int):
        self.field = field
        self.length = length
        self._p = field.characteristic
        self._rows = {} if self._p == 2 else []  # reduced rows, one pivot each
        self._pivots = []
        self._combos = []  # row i as a combination of inserted vectors
        self._mask = 0  # over GF(2): every pivot bit
        self._vector_bits = (1 << 8 * length) - 1  # over GF(2): the bytes of a vector
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: list):
        """(residual, alphas, sigma) of the raw vector v against the rows.

        residual = sigma * v - sum(alpha_i * row_i), one scale sigma for
        all the rows taken off: an integer row over Q, raw values over
        GF(p), where every pivot entry is 1 and so sigma is 1.  Over GF(2)
        the residual is packed, and in place of the alphas comes their
        combination, sum(alpha_i * combo_i), packed.  v itself is not
        changed.
        """
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)}, expected {self.length}")
        p = self._p
        if p == 2:
            x = _xor_reduce(self._rows, self._mask, _pack(v))
            return x & self._vector_bits, x >> 8 * self.length, 1
        d = 1
        if not p:
            (v,), d = _clear_denominators([v])
        # the rows are zero at each other's pivots, so the multiple of row i
        # is fixed by v[piv_i] alone: one common scale m clears them all
        hits = []  # (i, t, q): row i is taken off t * m / q times
        m = 1
        for i, (row, piv) in enumerate(zip(self._rows, self._pivots)):
            if v[piv]:
                g = gcd(v[piv], row[piv])
                hits.append((i, v[piv] // g, row[piv] // g))
                m = lcm(m, row[piv] // g)
        if m != 1:
            v = [m * a for a in v]
        alphas = [0] * len(self._rows)
        for i, t, q in hits:
            alpha = alphas[i] = t * (m // q)
            v = _addmul(p, v, -alpha, self._rows[i])
        return v, alphas, m * d

    def add(self, v: Vector) -> bool:
        return self._insert(*self._reduce(_unbox(self.field, v)))

    def _place(self, v: list) -> Optional[list]:
        """Reduce the raw vector v once, then insert it or give its coordinates.

        Returns None when v was independent and is now inserted, and
        otherwise its raw coordinates over the vectors inserted so far.
        Those stay its coordinates as more vectors are inserted, with
        zeros for the newcomers, because the inserted vectors are
        independent.
        """
        residual, alphas, sigma = self._reduce(v)
        if self._insert(residual, alphas, sigma):
            return None
        return self._combination(alphas, sigma)

    def _insert(self, residual, alphas, sigma) -> bool:
        """Insert a residual of _reduce as a row unless it is zero; reports whether it did."""
        p = self._p
        if p == 2:
            if not residual:
                return False
            # the combination sits above the residual, so the row's lowest set bit is the residual's
            self._mask |= _xor_insert(self._rows, residual | (alphas | 1 << 8 * self.count) << 8 * self.length)
            self.count += 1
            return True
        pivot = next((j for j, a in enumerate(residual) if a), None)
        if pivot is None:
            return False
        self.count += 1
        n = self.length
        combo = [0] * self.count
        combo[-1] = sigma
        for alpha, old in zip(alphas, self._combos):
            if alpha:
                combo[:len(old)] = _addmul(p, combo, -alpha, old)
        # a row and its combination are made a pivot row, and cleared, as one row
        new = _pivot_row(p, residual + combo, pivot)
        # keep existing rows reduced against the new pivot
        for i, row in enumerate(self._rows):
            if row[pivot]:
                old = self._combos[i]
                padded = row + old + [0] * (len(combo) - len(old))
                both = _clear(p, padded, pivot, new)
                self._rows[i], self._combos[i] = both[:n], both[n:]
        self._rows.append(new[:n])
        self._pivots.append(pivot)
        self._combos.append(new[n:])
        return True

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v over the inserted vectors, or None if outside the span."""
        coords = self._coordinates(_unbox(self.field, v))
        return None if coords is None else _box(self.field, coords)

    def _coordinates(self, v: list) -> Optional[list]:
        """coordinates() of the raw vector v, as raw values."""
        residual, alphas, sigma = self._reduce(v)
        if self._nonzero(residual):
            return None
        return self._combination(alphas, sigma)

    def _nonzero(self, residual) -> bool:
        return residual != 0 if self._p == 2 else any(residual)

    def _combination(self, alphas, sigma) -> list:
        """Raw coordinates over the inserted vectors of a vector that _reduce took to zero."""
        p = self._p
        if p == 2:
            return _unpack(alphas, self.count)
        coords = [0] * self.count
        for alpha, combo in zip(alphas, self._combos):
            if alpha:
                k = len(combo)
                coords[:k] = _addmul(p, coords[:k], alpha, combo)
        return coords if p else _fractions(coords, sigma)

    def contains(self, v: Vector) -> bool:
        residual, _, _ = self._reduce(_unbox(self.field, v))
        return not self._nonzero(residual)

    def basis_rows(self) -> list:
        if self._p == 2:
            return [_box(self.field, _unpack(r & self._vector_bits, self.length)) for r in self._rows.values()]
        if self._p:
            return [_box(self.field, r) for r in self._rows]
        return [_box(self.field, _fractions(r, r[c])) for r, c in zip(self._rows, self._pivots)]


def column_space_basis(m: DenseMatrix) -> list:
    """First-independent columns of m, in column order, as raw vectors."""
    solver = SpanSolver(m.field, m.rows)
    columns = map(_RawVector, zip(*m._raw))
    return [c for c in columns if solver.add(c)]
