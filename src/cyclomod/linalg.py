"""Dense exact linear algebra over a FieldSpec.

Matrices are immutable row-major grids over one field, written for
desk-scale dimensions (a few hundred), favoring exactness and
determinism over asymptotics.

Data stays raw.  Over GF(p) a raw value is an int in [0, p).  Over Q a
raw vector or matrix is integer rows over one positive denominator, in
lowest terms: a matrix keeps its integer rows and its denominator, and a
vector, or a polynomial's coefficients, is a _QVector, its integer
numerators with the denominator in `den`.  Denominators are cleared
once, where values come in (_unbox), and a FieldScalar, or over Q a
Fraction, is made only where a value goes out: a public call hands a
result back, `entries` is read, or a vector is written as text
(_decimals, which makes no Fraction at all).
A public call unboxes its vector arguments once, checking their field,
and the kernel (rref, SpanSolver, products, sums and scaling) and every
other module pass raw rows to each other.  The kernel skips every entry
whose multiplier is zero.

Every product is one sum, _line_sum: x_j times line j of a matrix,
over its columns (the matrix times a column x, _times_col) or its rows
(a row x times the matrix, _times_row; row i of A*B is row i of A times
B).  A matrix keeps its lines in the form the sum takes (_lines), made
when a sum first needs them: over Q its integer columns or rows over one
denominator, summed by _sum_of_multiples, and over GF(p) each line
packed into one int.  A packed GF(p) vector holds
entry j in lane j of w bytes, as the MeatAxe packs rows over small prime
fields (Parker 1984), and SpanSolver packs its rows the same way.  Over
GF(2) w is 1 and a sum is a XOR.  For odd p adding c times a line is one
integer multiply-add, and a vector is reduced mod p once, when its lanes
are read (_read_lanes).  A sum adds at most k multiples c*y, with c and
y in [0, p), to a reduced vector: k is the vector length in SpanSolver
and the number of lines summed in a product.  So w is the smallest of 1,
2, 4 and 8 bytes, or past 8 the smallest number of bytes, whose lanes
hold (p - 1) + k (p - 1)^2 (_lane_width).  Lanes of 1 byte are reduced
with bytes.translate, of 2, 4 and 8 bytes read by struct, both in C, and
wider lanes one at a time: reading 2-byte lanes one at a time made
check_report on regular S5 over GF(3) and GF(5), whose 120-entry
vectors take 2-byte lanes, three times slower.  endo.compute_end spins
on packed GF(2) rows too.

Gauss-Jordan elimination and compute_end's spins stay on lists for odd
p, where a packed elimination that reduces after every row operation was
slower, and so was rref run as SpanSolver insertions, as for GF(2); Q's
SpanSolver stays on lists.  For p != 2, GF(p) and Q
share one Gauss-Jordan loop (_rref_rows); the field enters only through
two steps: _pivot_row makes a pivot row, scaled to 1 over GF(p) and
primitive over Q, and _clear clears an entry with it, x - c*pivot_row
over GF(p) and, fraction-free, a*x - c*pivot_row divided by its content
over Q (Bareiss, Math. Comp. 22, 1968).  Every kernel in the package is
read off rref here.
Reduced echelon forms, coordinates and lowest terms are unique, so they
are the ones plain Fraction or list arithmetic gives.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import gcd, lcm
from operator import mul, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .fields import FieldScalar, FieldSpec

Vector = tuple  # tuple[FieldScalar, ...]


def _unit(p: int, n: int, i: int) -> list:
    """The raw unit vector e_i of length n."""
    x = [0] * n
    x[i] = 1
    return x if p else _qvector(x)


def _inv(p: int, a):
    """The inverse of a unit a modulo p; over Q the kernel divides by no scalar."""
    return pow(a, -1, p)


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


def _fractions(xs: Sequence, d: int) -> list:
    """The Fractions xs / d, for integers xs and d > 0: made only where a Q value goes out."""
    if d == 1:
        return [Fraction(a) for a in xs]
    return [Fraction(a, d) for a in xs]


def _decimals(xs: Sequence, d: int = 1) -> list:
    """Decimal strings, "3" or "-7/2", of the integers xs over d > 0, with no Fraction made.

    A raw Q vector brings its own denominator; raw GF(p) values and
    FieldScalars are written as they are.
    """
    d = getattr(xs, "den", d)
    if d == 1:
        return [str(x) for x in xs]
    out = []
    for a in xs:
        g = gcd(a, d)
        out.append(str(a // g) if g == d else f"{a // g}/{d // g}")
    return out


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


def _unpack_columns(packed: Sequence, n: int) -> list:
    """The columns of the matrix whose rows are the packed GF(2) vectors of length n: every n-th byte of them."""
    stacked = b"".join([x.to_bytes(n, "little") for x in packed])
    return [list(stacked[c::n]) for c in range(n)]


@lru_cache(maxsize=None)
def _lane_width(p: int, terms: int) -> int:
    """Bytes per lane of a packed GF(p) vector to which one step adds up to terms multiples.

    A lane must hold (p - 1) + terms * (p - 1)^2 without carrying into
    the next: the smallest of 1, 2, 4 and 8 bytes that does, the widths
    that translate and struct read in C, and past 8 bytes the smallest
    number of bytes, read one lane at a time.
    Over GF(3) that is 1 byte up to 63 terms and 2 from 64, over
    GF(2^31 - 1) 9 bytes from 5 terms.  Over GF(2) a sum is a XOR, which
    never carries: one byte.
    """
    if p == 2:
        return 1
    w = -(-((p - 1) + terms * (p - 1) ** 2).bit_length() // 8)
    return w if w > 8 else 1 << (w - 1).bit_length()


_LANE_FORMATS = {2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _mod_table(p: int) -> bytes:
    """The bytes b % p, for b < 256: reduces a 1-byte lane in C with bytes.translate."""
    return bytes([b % p for b in range(256)])


def _pack_lanes(xs: Sequence, w: int) -> int:
    """Nonnegative ints below 256^w as one int, entry j in lane j of w bytes."""
    if w == 1:
        return int.from_bytes(bytes(xs), "little")
    if w in _LANE_FORMATS:
        return int.from_bytes(struct.pack(f"<{len(xs)}{_LANE_FORMATS[w]}", *xs), "little")
    return int.from_bytes(b"".join([a.to_bytes(w, "little") for a in xs]), "little")


def _read_lanes(p: int, x: int, w: int, n: int) -> list:
    """The raw GF(p) vector of the n lanes of w bytes packed in x, each reduced mod p."""
    data = x.to_bytes(n * w, "little")
    if w == 1:
        return list(data if p == 2 else data.translate(_mod_table(p)))
    if w in _LANE_FORMATS:
        return [a % p for a in struct.unpack(f"<{n}{_LANE_FORMATS[w]}", data)]
    return [int.from_bytes(data[i:i + w], "little") % p for i in range(0, n * w, w)]


class _RawVector(list):
    """Canonical raw values that the kernel takes as they are, without unboxing.

    Nothing records their field, so the caller must check it.
    """

    __slots__ = ()


class _QVector(_RawVector):
    """A raw Q vector: integer numerators over one denominator `den` > 0, in lowest terms.

    Lowest terms make the pair unique, so two are equal when both their
    numerators and their denominators are.
    """

    __slots__ = ("den",)

    def __eq__(self, other):
        return isinstance(other, _QVector) and self.den == other.den and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = None


def _qvector(xs: Iterable, d: int = 1) -> _QVector:
    """The raw Q vector xs / d, for integers xs and d != 0, brought to lowest terms."""
    if d < 0:
        xs, d = [-a for a in xs], -d
    if d != 1:
        g = gcd(d, *xs)
        if g > 1:
            xs, d = [a // g for a in xs], d // g
    v = _QVector(xs)
    v.den = d
    return v


def _common(vectors: Sequence) -> tuple:
    """(rows, d): raw Q vectors as plain integer rows over d, the lcm of their denominators.

    Rows over d stay in lowest terms: for each prime power q^k in d, some
    vector has q^k in its denominator and a numerator that q does not
    divide, and the factor d / den that scales it is prime to q.
    """
    d = lcm(*[v.den for v in vectors])
    return [v[:] if v.den == d else [a * (d // v.den) for a in v] for v in vectors], d


def _from_fractions(xs: Sequence) -> _QVector:
    """The raw Q vector of Fractions or ints: where values come in, their denominators are cleared."""
    d = lcm(*[x.denominator for x in xs])
    return _qvector([x.numerator * (d // x.denominator) for x in xs], d)


def _unbox(field: FieldSpec, xs: Sequence) -> list:
    """Canonical raw values of xs, a _QVector over Q; a FieldScalar of another field is rejected."""
    if isinstance(xs, _RawVector):
        return xs
    if not isinstance(xs, (tuple, list)):
        xs = list(xs)
    p = field.characteristic
    try:
        raw = [x.value for x in xs if x.field.characteristic == p]
        if len(raw) == len(xs):
            return raw if p else _from_fractions(raw)
    except AttributeError:
        if all(type(x) is int for x in xs):
            return [x % p for x in xs] if p else _qvector(xs)
        if not p and all(type(x) is Fraction for x in xs):
            return _from_fractions(xs)
    out = []
    for x in xs:
        if isinstance(x, FieldScalar) and x.field != field:
            raise ValueError(f"mixed fields: {x.field} and {field}")
        out.append(field.scalar(x).value)
    return out if p else _from_fractions(out)


def _part(v: list, start: int, stop: int) -> list:
    """The raw vector v[start:stop]; over Q brought to lowest terms."""
    part = v[start:stop]
    return _qvector(part, v.den) if isinstance(v, _QVector) else part


def _marked(xs: list) -> _RawVector:
    """Raw values marked as such, so that _unbox takes them as they are; a _QVector is already."""
    return xs if isinstance(xs, _RawVector) else _RawVector(xs)


def _box(field: FieldSpec, raw: Sequence, d: int = 1) -> Vector:
    """A raw vector, or over Q the integers raw over d, as a tuple of FieldScalar.

    A raw Q vector brings its own denominator.
    """
    if not field.characteristic:
        raw = _fractions(raw, getattr(raw, "den", d))
    return tuple([FieldScalar(field, x) for x in raw])


class DenseMatrix:
    """Immutable exact matrix with entries in one field.

    _raw holds the kernel rows and _den their denominator: raw values and
    1 over GF(p), and over Q integer rows over _den > 0, in lowest terms,
    so that equal matrices have equal _raw and _den however they were made.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_raw", "_den", "_row_lines", "_col_lines")

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
        d = 1
        if not field.characteristic:
            raw, d = _common(raw)
        # rows given as FieldScalars are kept, so reading them back allocates nothing
        boxed = all(type(x) is FieldScalar for row in rows for x in row)
        self._store(field, raw, cols, d, tuple(rows) if boxed else None)

    @classmethod
    def _from_raw(cls, field: FieldSpec, raw: list, cols: int, d: int = 1) -> "DenseMatrix":
        """A matrix from canonical kernel rows over d, without per-entry coercion.

        Over GF(p) the rows are raw values and d is 1; over Q they are
        integers over d > 0, in lowest terms.  The caller hands over raw
        and must not change it afterwards.
        """
        m = object.__new__(cls)
        m._store(field, raw, cols, d, None)
        return m

    @classmethod
    def _from_ints(cls, field: FieldSpec, rows: list, d: int, cols: int) -> "DenseMatrix":
        """The Q matrix rows / d from integer rows and d != 0, brought to lowest terms."""
        if d != 1:
            if d < 0:
                rows, d = [[-a for a in r] for r in rows], -d
            rows, d = _lowest_terms(rows, d)
        return cls._from_raw(field, rows, cols, d)

    @classmethod
    def _from_vectors(cls, field: FieldSpec, vectors: list, cols: int) -> "DenseMatrix":
        """The matrix whose rows are the raw vectors, each of length cols."""
        if field.characteristic:
            return cls._from_raw(field, vectors, cols)
        rows, d = _common(vectors)
        return cls._from_raw(field, rows, cols, d)

    def _store(self, field: FieldSpec, raw: list, cols: int, d: int, entries: Optional[tuple]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(raw))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_den", d)
        object.__setattr__(self, "_entries", entries)

    @property
    def entries(self) -> tuple:
        """The rows as tuples of FieldScalar, boxed on first use."""
        if self._entries is None:
            boxed = tuple(_box(self.field, row, self._den) for row in self._raw)
            object.__setattr__(self, "_entries", boxed)
        return self._entries

    def _column(self, j: int) -> _RawVector:
        """Column j as a raw vector."""
        column = [row[j] for row in self._raw]
        return _RawVector(column) if self.field.characteristic else _qvector(column, self._den)

    def _lines(self, columns: bool) -> tuple:
        """(lines, w, n): the columns, or rows, in the form a sum of them takes, made on first use.

        A sum of them has n entries.  Over GF(p) each line is packed into
        one int in lanes of w bytes, as wide as the sum needs: a column is
        summed with up to cols others, a row with up to rows others.  Over
        Q a line is its integers over _den, and w is 0.
        """
        slot = "_col_lines" if columns else "_row_lines"
        try:
            return getattr(self, slot)
        except AttributeError:  # the slot stays empty until a sum needs it
            p = self.field.characteristic
            terms, n = (self.cols, self.rows) if columns else (self.rows, self.cols)
            lines = list(zip(*self._raw)) if columns else self._raw
            w = 0
            if p:
                w = _lane_width(p, terms)
                lines = [_pack_lanes(r, w) for r in lines]
            object.__setattr__(self, slot, (lines, w, n))
            return getattr(self, slot)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "DenseMatrix":
        return cls._from_raw(field, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "DenseMatrix":
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls._from_raw(field, rows, n)

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
        d = 1
        if not field.characteristic:
            cols, d = _common(cols)
        raw = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(rows)]
        return cls._from_raw(field, raw, len(cols), d)

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
        da, db = self._den, other._den
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        rows = [[fa * x + fb * y for x, y in zip(r, s)] for r, s in zip(self._raw, other._raw)]
        return DenseMatrix._from_ints(self.field, rows, d, self.cols)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self._plus(other, -1)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field} and {other.field}")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.characteristic
        lines = other._lines(False)
        # row i of the product is the sum of other's rows, weighted by row i
        raw = [_line_sum(p, lines, x) for x in self._raw]
        if p:
            return DenseMatrix._from_raw(self.field, raw, other.cols)
        return DenseMatrix._from_ints(self.field, raw, self._den * other._den, other.cols)

    def scale(self, c) -> "DenseMatrix":
        c = _unbox(self.field, [c])
        p = self.field.characteristic
        raw = [_scale(p, c[0], r) for r in self._raw]
        if p:
            return DenseMatrix._from_raw(self.field, raw, self.cols)
        return DenseMatrix._from_ints(self.field, raw, c.den * self._den, self.cols)

    def _times_col(self, x: list) -> list:
        """The matrix times the raw column vector x, as a raw vector: the sum of x_j times column j."""
        p = self.field.characteristic
        out = _line_sum(p, self._lines(True), x)
        return out if p else _qvector(out, x.den * self._den)

    def _times_row(self, x: list) -> list:
        """The raw row vector x times the matrix, as a raw vector: the sum of x_i times row i."""
        p = self.field.characteristic
        out = _line_sum(p, self._lines(False), x)
        return out if p else _qvector(out, x.den * self._den)

    def transpose(self) -> "DenseMatrix":
        raw = self._raw
        columns = [list(c) for c in zip(*raw)] if raw else [[] for _ in range(self.cols)]
        return DenseMatrix._from_raw(self.field, columns, self.rows, self._den)

    def trace(self) -> FieldScalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        p = self.field.characteristic
        raw = self._raw
        total = sum(raw[i][i] for i in range(self.rows))
        return FieldScalar(self.field, total % p if p else Fraction(total, self._den))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._raw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._den == self._den
            and other._raw == self._raw
        )

    def __hash__(self) -> int:
        return hash((self.field, self._den, tuple(map(tuple, self._raw))))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in row) for row in self.entries)
        return f"DenseMatrix({self.field}, {self.rows}x{self.cols}: {body})"


def _line_sum(p: int, lines: tuple, x: Sequence) -> list:
    """The sum of x_j times line j of a matrix, for its (lines, w, n) from _lines; zero x_j are skipped.

    Over GF(p) x and the sum are raw values: each packed line is added
    with one integer multiply-add, a XOR over GF(2), and the lanes are
    reduced mod p once, when they are read.  Over Q x and the sum are
    integers, the sum over x's denominator times the matrix's.
    """
    packed, w, n = lines
    if p == 2:
        return _read_lanes(2, reduce(xor, compress(packed, x), 0), 1, n)
    if p:
        return _read_lanes(p, sum(map(mul, compress(x, x), compress(packed, x))), w, n)
    return _sum_of_multiples(0, compress(zip(x, packed), x), n)


def _sum_of_multiples(p: int, terms: Iterable, cols: int) -> list:
    """The sum of c * y over the (c, y) in terms, for integer rows y of length cols, reduced mod p once.

    The terms are the nonzero multiples only, so a long, mostly zero
    weight vector costs nothing for its zeros; over Q (p = 0) the sum is
    not reduced.
    """
    acc = None
    for c, y in terms:
        acc = [c * b for b in y] if acc is None else [s + c * b for s, b in zip(acc, y)]
    if acc is None:
        return [0] * cols
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
    rows = list(m._raw)
    pivots = _rref_rows(p, rows, m.cols)
    d = 1
    if not p:
        # a pivot row r is primitive, so its reduced row r / r[c] is in lowest
        # terms, and over the lcm of the pivot entries the rows stay so
        d = lcm(*[r[c] for r, c in zip(rows, pivots)])
        rows = [r if r[c] == d else [a * (d // r[c]) for a in r] for r, c in zip(rows, pivots)]
        rows += [[0] * m.cols for _ in range(m.rows - len(pivots))]
    return RrefResult(DenseMatrix._from_raw(m.field, rows, m.cols, d), len(pivots), tuple(pivots))


def kernel_basis(m: DenseMatrix) -> list:
    """Deterministic basis of {v : m v = 0}, one vector per free column."""
    return [_box(m.field, v) for v in _kernel_from_rref(m.field, m.cols, rref(m))]


def _kernel_from_rref(field: FieldSpec, cols: int, reduction: RrefResult) -> list:
    """The kernel_basis of a matrix with cols columns, from its reduced form, as raw vectors."""
    red, rank, pivots = reduction
    p = field.characteristic
    reduced, d = red._raw, red._den
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_set):
        # e_fc minus the reduced rows' entries in column fc, all over d (1 over GF(p))
        v = [0] * cols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = _neg(p, reduced[r][fc])
        basis.append(_RawVector(v) if p else _qvector(v, d))
    return basis


class SpanSolver:
    """Incremental span of inserted vectors, with coordinate recovery.

    add() inserts a vector only if it is independent of everything seen so
    far and reports whether it did; coordinates() rewrites any vector of
    the span as a combination of the inserted ones.  Rows are kept fully
    reduced, so the internal basis is canonical for a given insertion
    order.  Over GF(p) a row and its combination are one packed int, the
    combination in the lanes above the first length, and are reduced,
    and added to a vector, as one.  For odd p each row has a 1 at its
    pivot and keeps its negated combination, -combo_i, so that taking a
    row off a vector adds its combination; the rows to take off are read
    at v's pivot entries, and the sum is read back as raw values.  Over
    GF(2) the rows are a dict from each row's pivot, its lowest set bit,
    to the row: a XOR never carries, so one AND with the pivot bits names
    the rows to take off, and the residual stays packed, where reading
    the lanes back would cost more than the whole reduction.  Over Q a
    row and its combination are lists, row_i = sum_k combo_i[k] *
    (k-th inserted vector), a primitive integer multiple of the reduced
    row and its combination in the same scale.
    """

    def __init__(self, field: FieldSpec, length: int):
        self.field = field
        self.length = length
        p = self._p = field.characteristic
        self._rows = {} if p == 2 else []  # reduced rows, one pivot each
        self._pivots = []
        self._combos = []  # over Q: row i as a combination of inserted vectors
        self._mask = 0  # over GF(2): every pivot bit
        # over GF(p): bytes per lane, at most length rows are taken off a vector at once
        self._width = _lane_width(p, length) if p else 0
        self._shift = 8 * self._width * length  # the combination's lanes start here
        self._vector_bits = (1 << self._shift) - 1
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: list):
        """(residual, alphas, sigma) of the raw vector v against the rows.

        residual = sigma * v - sum(alpha_i * row_i), one scale sigma for
        all the rows taken off: an integer row over Q, where sigma takes in
        v's denominator.  Over GF(p) every pivot entry is 1 and so sigma is
        1, and in place of the alphas comes their combination,
        sum(alpha_i * combo_i): packed over GF(2), the residual too, and for
        odd p both read off the lanes of one sum as raw values.  v itself
        is not changed.
        """
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)}, expected {self.length}")
        p = self._p
        if p == 2:
            x = _xor_reduce(self._rows, self._mask, _pack(v))
            return x & self._vector_bits, x >> self._shift, 1
        if p:
            # the rows are zero at each other's pivots, so the multiple of row i
            # is fixed by v[piv_i] alone, and every multiple goes on in one sum
            n, w = self.length, self._width
            taken = [(p - v[piv]) * row for piv, row in zip(self._pivots, self._rows) if v[piv]]
            lanes = _read_lanes(p, _pack_lanes(v, w) + sum(taken), w, n + self.count)
            return lanes[:n], lanes[n:], 1
        # over Q one common scale m clears every pivot entry of v
        d = v.den
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
            self._mask |= _xor_insert(self._rows, residual | (alphas | 1 << 8 * self.count) << self._shift)
            self.count += 1
            return True
        pivot = next((j for j, a in enumerate(residual) if a), None)
        if pivot is None:
            return False
        n = self.length
        if p:
            # residual = e_count - sum(alpha_i * combo_i) as a combination, and
            # alphas holds the sum: the row keeps its negation, scaled to 1 at the pivot
            w = self._width
            new = _pack_lanes(_scale(p, _inv(p, residual[pivot]), residual + alphas + [p - 1]), w)
            self.count += 1
            # keep existing rows reduced against the new pivot
            at, lane = 8 * w * pivot, (1 << 8 * w) - 1
            for i, row in enumerate(self._rows):
                a = row >> at & lane
                if a:
                    self._rows[i] = _pack_lanes(_read_lanes(p, row + (p - a) * new, w, n + self.count), w)
            self._rows.append(new)
            self._pivots.append(pivot)
            return True
        self.count += 1
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
        if p:
            return alphas
        coords = [0] * self.count
        for alpha, combo in zip(alphas, self._combos):
            if alpha:
                k = len(combo)
                coords[:k] = _addmul(p, coords[:k], alpha, combo)
        return _qvector(coords, sigma)

    def contains(self, v: Vector) -> bool:
        residual, _, _ = self._reduce(_unbox(self.field, v))
        return not self._nonzero(residual)

    def basis_rows(self) -> list:
        p = self._p
        if p:
            rows = self._rows.values() if p == 2 else self._rows
            return [_box(self.field, _read_lanes(p, r & self._vector_bits, self._width, self.length)) for r in rows]
        return [_box(self.field, _qvector(r, r[c])) for r, c in zip(self._rows, self._pivots)]
