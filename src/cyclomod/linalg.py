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
denominator, and over GF(p) each line packed into one int.  A packed
GF(p) vector holds
entry j in lane j of w bytes, as the MeatAxe packs rows over small prime
fields (Parker 1984), and SpanSolver and Echelon pack their rows the
same way.  Over GF(2) w is 1 and a sum is a XOR.  For odd p adding c
times a line is one integer multiply-add, and a vector is reduced mod p
once, when its lanes are read (_read_lanes).  A sum adds at most k
multiples c*y, with c and y in [0, p), to a reduced vector: k is the
vector length in SpanSolver and Echelon and the number of lines summed
in a product.  So w is the smallest of 1,
2, 4 and 8 bytes, or past 8 the smallest number of bytes, whose lanes
hold (p - 1) + k (p - 1)^2 (_lane_width).  Lanes of 1 byte are reduced
with bytes.translate, of 2, 4 and 8 bytes read by struct, both in C, and
wider lanes one at a time: reading 2-byte lanes one at a time made
check_report on regular S5 over GF(3) and GF(5), whose 120-entry
vectors take 2-byte lanes, three times slower.  endo.compute_end spins
on packed GF(2) rows too.

Over Q a sum over a matrix of fewer than 16 lines, or with more than
half of the x_j zero, adds the lines as lists (_sum_of_multiples).  Any
other packs the matrix's lines once, entry j in a signed lane j of w
bytes, and adds c times a line with one integer multiply-add, as odd p
does.  Adding 2^(8w - 1) to every lane of the sum makes it nonnegative
with no carry between lanes, and one XOR of the top bits then leaves
each lane in two's complement, read by struct for w = 8 and one lane at
a time past it (_pack_signed, _read_signed).  No entry of the sum
exceeds big * sum |x_j|, with big the largest entry of the lines, so w
is 8, or the smallest 8 * 2^k whose lanes hold that; a matrix keeps its
lines packed per width.  Packing a matrix costs about one sum of all its
lines, and a sum that adds at least half of them repays about half of
that at once.  Packed, the line sums of minimize's 32-state Q spins took
a quarter of their time on lists, while packing every Q matrix of 4
lines or more made perm-q, whose matrices have at most 12 lines and are
used a few times each, 4.7% slower, and packing every matrix of 16 lines
or more, whatever x, cost regular S5 over Q about 10 ms: its 3,208 sums
over such matrices add 2.7 of their 20 to 120 lines on average.

Gauss-Jordan elimination and compute_end's spins stay on lists for odd
p, where a packed elimination that reduces after every row operation was
slower, and so was rref run as Echelon insertions, as GF(2)'s runs on
_xor_reduce and _xor_insert.  For p != 2, GF(p) and Q share one
Gauss-Jordan loop (_rref_rows); the field enters only through two steps:
_pivot_row makes a pivot row, scaled to 1 over GF(p) and primitive over
Q, and _clear clears an entry with it, x - c*pivot_row over GF(p) and,
fraction-free, a*x - c*pivot_row divided by its content over Q.  Every
kernel in the package is read off rref here.  Reduced echelon forms,
coordinates and lowest terms are unique, so they are the ones plain
Fraction or list arithmetic gives.

An incremental span is an Echelon: one row per independent vector, and
one place where each field reduces a vector and keeps a row.  Over GF(p)
the rows are packed and reduced, and over Q they are a fraction-free
echelon form (Bareiss, Math. Comp. 22, 1968), on which a step divides
exactly and takes no gcd.  SpanSolver is an Echelon whose vectors carry
a tail, their combination of the inserted vectors, through the same
steps, so that it gives coordinates; a span whose coordinates are never
read is kept in an Echelon.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import mul, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .fields import GF2, FieldScalar, FieldSpec

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
    """Nonnegative ints below 256^w as one int, entry j in lane j of w bytes.

    A GF(2) vector takes a byte per entry (w = 1), not a bit, so that a
    row sum is a XOR and bytes() packs and to_bytes unpacks in C, where
    packing bits would take a Python loop.
    """
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


# Over Q a sum over a matrix of this many lines or more, with at most half of its
# multipliers zero, is added on packed signed lanes; on shorter or sparser sums,
# packing the matrix costs more than it saves
_SIGNED_LINES = 16


@lru_cache(maxsize=None)
def _sign_bits(w: int, n: int) -> int:
    """The top bit of each of n lanes of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack_signed(xs: Sequence, w: int) -> int:
    """The sum of xs[j] * 256^(w j), for integers xs of absolute value below 2^(8w - 1).

    Each entry is written in two's complement, lane j of w bytes, and
    adding 2^(8w - 1) to every lane, one XOR of the top bits, makes the
    lanes nonnegative: that int less the added bits is the sum.
    """
    n = len(xs)
    if w == 8:
        data = struct.pack(f"<{n}q", *xs)
    else:
        data = b"".join([a.to_bytes(w, "little", signed=True) for a in xs])
    top = _sign_bits(w, n)
    return (int.from_bytes(data, "little") ^ top) - top


def _read_signed(x: int, w: int, n: int) -> list:
    """The n entries of the sum x of packed signed lines, each of absolute value below 2^(8w - 1).

    Adding 2^(8w - 1) to every lane makes x nonnegative with no carry
    between lanes, and one XOR of the top bits then leaves each lane in
    two's complement: lanes of 8 bytes are read by struct, wider ones
    one at a time.
    """
    top = _sign_bits(w, n)
    data = ((x + top) ^ top).to_bytes(n * w, "little")
    if w == 8:
        return list(struct.unpack(f"<{n}q", data))
    return [int.from_bytes(data[i:i + w], "little", signed=True) for i in range(0, n * w, w)]


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
        """The columns, or rows, in the form a sum of them takes, made on first use.

        A sum of them has n entries.  Over GF(p) they are (lines, w, n),
        each line packed into one int in lanes of w bytes, as wide as the
        sum needs: a column is summed with up to cols others, a row with
        up to rows others.  Over Q they are [lines, n, big, packed], each
        line its integers over _den; big, their largest absolute entry, and
        packed, a dict from a lane width to the lines packed in it, are
        filled by _line_sum when a sum on packed lanes first needs them.
        """
        slot = "_col_lines" if columns else "_row_lines"
        try:
            return getattr(self, slot)
        except AttributeError:  # the slot stays empty until a sum needs it
            p = self.field.characteristic
            terms, n = (self.cols, self.rows) if columns else (self.rows, self.cols)
            lines = list(zip(*self._raw)) if columns else self._raw
            if p:
                w = _lane_width(p, terms)
                value = ([_pack_lanes(r, w) for r in lines], w, n)
            else:
                value = [lines, n, None, {}]
            object.__setattr__(self, slot, value)
            return value

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
    """The sum of x_j times line j of a matrix, for its lines from _lines; zero x_j are skipped.

    Over GF(p) x and the sum are raw values: each packed line is added
    with one integer multiply-add, a XOR over GF(2), and the lanes are
    reduced mod p once, when they are read.  Over Q x and the sum are
    integers, the sum over x's denominator times the matrix's.  A sum
    over fewer than _SIGNED_LINES lines, or with more than half of x
    zero, adds the lines as lists (_sum_of_multiples); any other adds
    each line packed in signed lanes of w bytes with one integer
    multiply-add, as GF(p) does.  No entry of the sum exceeds
    big * sum |x_j|, so w is 8, or past 8 the smallest 8 * 2^k, whose
    signed lanes hold that bound; the lines are packed once per width.
    """
    if p:
        packed, w, n = lines
        if p == 2:
            return _read_lanes(2, reduce(xor, compress(packed, x), 0), 1, n)
        return _read_lanes(p, sum(map(mul, compress(x, x), compress(packed, x))), w, n)
    rows, n, big, packed = lines
    if len(rows) < _SIGNED_LINES or 2 * x.count(0) > len(x):
        return _sum_of_multiples(0, compress(zip(x, rows), x), n)
    if big is None:
        big = lines[2] = max(map(abs, chain.from_iterable(rows)), default=0)
    bits = (big * sum(map(abs, x))).bit_length()
    w = 8
    while bits >= 8 * w:
        w *= 2
    if w not in packed:
        packed[w] = [_pack_signed(r, w) for r in rows]
    return _read_signed(sum(map(mul, compress(x, x), compress(packed[w], x))), w, n)


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


def _rank_form(m: DenseMatrix) -> int:
    """The rank of m, read on a form: over Q its rows inserted into an Echelon, over GF(p) rref(m).

    The Fitting scan reads the rank of every candidate with it.  Over Q
    an Echelon step divides exactly and takes no gcd, where Gauss-Jordan
    takes the content of every row it clears; on the endomorphisms the
    scan tests, that halves the cost of a rank, and no reduced form is
    made.
    """
    if m.field.characteristic:
        return rref(m).rank
    span = Echelon(m.field, m.cols)
    for row in m._raw:
        span._place(row)
    return span.rank


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
        reduced, rank, pivots = _rref_packed(GF2, [_pack_lanes(r, 1) for r in rows], ncols)
        rows[:] = reduced._raw + [[0] * ncols for _ in range(len(rows) - rank)]
        return list(pivots)
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


def _rref_packed(field: FieldSpec, packed, ncols: int) -> RrefResult:
    """The reduced echelon form over GF(2) of the rows packed in packed, as _pack_lanes(row, 1) packs them.

    Row by row on the packed rows, unpacked only once reduced; the reduced
    echelon form is unique, so it is the one the column-by-column
    elimination of _rref_rows gives.  The matrix holds the rank nonzero
    rows only, in pivot order, with no zero rows after them.
    """
    kept, mask = {}, 0
    for x in packed:
        x = _xor_reduce(kept, mask, x)
        if x:
            mask |= _xor_insert(kept, x)
    order = sorted(kept)
    rows = [_read_lanes(2, kept[b], 1, ncols) for b in order]
    pivots = tuple((b.bit_length() - 1) >> 3 for b in order)
    return RrefResult(DenseMatrix._from_raw(field, rows, ncols), len(pivots), pivots)


def _lanes_reduce(p: int, w: int, rows: list, pivots: list, v: list, lanes: int) -> list:
    """The raw values of v, packed in lanes of w bytes, less v[piv] times each packed row.

    The rows have a 1 at their pivots and are zero at each other's, so
    the multiple of each row is fixed by v's entry at its pivot alone, and
    every multiple goes on in one sum, read back as lanes raw values (v's
    entries, then zeros).  v itself is not changed.
    """
    taken = [(p - v[piv]) * row for piv, row in zip(pivots, rows) if v[piv]]
    if not taken:
        return v + [0] * (lanes - len(v))
    return _read_lanes(p, _pack_lanes(v, w) + sum(taken), w, lanes)


def _lanes_insert(p: int, w: int, rows: list, pivots: list, x: list, pivot: int):
    """Keep the raw row x, nonzero at pivot, as a packed row with a 1 there.

    The kept rows are cleared at the new pivot, so they stay zero at each
    other's pivots; a row has len(x) lanes of w bytes.
    """
    new = _pack_lanes(_scale(p, _inv(p, x[pivot]), x), w)
    at, lane = 8 * w * pivot, (1 << 8 * w) - 1
    for i, row in enumerate(rows):
        a = row >> at & lane
        if a:
            rows[i] = _pack_lanes(_read_lanes(p, row + (p - a) * new, w, len(x)), w)
    rows.append(new)
    pivots.append(pivot)


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


def _bareiss_step(x: list, row: list, a: int, c: int, prev: int) -> list:
    """(a*x - c*row) / prev for integer lists, a division that is exact in a fraction-free echelon.

    a is row's pivot entry and c x's entry there; when a = prev, x's
    entries where row is zero are kept, with no product.  The step runs
    over the entries x and row share: a row's tail past the end of a
    shorter x is not computed, and x's entries past the end of a shorter
    row, tail entries that no row taken so far reaches and so zero, are
    kept.
    """
    if a == prev:
        y = [u - c * w // a if w else u for u, w in zip(x, row)]
    else:
        y = [(a * u - c * w) // prev for u, w in zip(x, row)]
    y += x[len(row):]
    return y


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


def _kernel_from_rref(field: FieldSpec, cols: int, reduction: RrefResult) -> list:
    """The basis of {v : m v = 0}, one raw vector per free column, from the reduced form of m with cols columns."""
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


class Echelon:
    """Incremental span of inserted vectors, kept as one echelon row per independent vector.

    add() inserts a vector only if it is independent of the rows kept so
    far and reports whether it did; _place() does the same for a raw
    vector, giving None when it inserts it and () when it does not.  The
    field enters only where a vector is reduced (_reduce) and a row is
    kept (_insert):
    - over GF(2) the rows are packed, one byte per entry, in a dict from
      each row's pivot, its lowest set bit, to the row, so one AND with
      the pivot bits names the rows to take off (_xor_reduce, _xor_insert);
    - over odd p they are packed in lanes, and every row taken off a
      vector goes on in one sum (_lanes_reduce, _lanes_insert);
    - over Q they are an integer echelon form made fraction-free (Bareiss,
      Math. Comp. 22, 1968).  A vector passes the rows in the order they
      were kept, and each step that clears an entry divides exactly, with
      no gcd, by the pivot entry of the row taken before (_bareiss_step).
      Row k is row k of the kept numerators brought to echelon form, and
      its entries are minors of k + 1 of them.  A vector's denominator
      changes no span and is dropped.
    Over GF(p) the rows are kept reduced, with 1 at their pivots and zero
    at each other's.  A span whose coordinates are never read is kept in
    an Echelon; SpanSolver is an Echelon that gives coordinates.
    """

    __slots__ = ("field", "length", "_p", "_rows", "_pivots", "_mask", "_width", "_vector_bits")

    def __init__(self, field: FieldSpec, length: int):
        self.field = field
        self.length = length
        p = self._p = field.characteristic
        self._rows = {} if p == 2 else []  # over GF(2) keyed by each row's pivot bit
        self._pivots = []  # over GF(2) the dict's keys stand for them
        self._mask = 0  # over GF(2): every pivot bit
        # over GF(p): bytes per lane, at most length rows are taken off a vector at once
        self._width = _lane_width(p, length) if p else 0
        self._vector_bits = (1 << 8 * self._width * length) - 1  # over GF(p): the lanes of a vector's entries

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Vector) -> bool:
        return self._place(_unbox(self.field, v)) is None

    def _place(self, v: list):
        """None when the raw vector v was independent of the rows and is now kept, () when it was not."""
        x, pivot, prev = self._reduce(v, 0)
        if pivot is None:
            return ()
        self._insert(x, pivot, prev)
        return None

    def _reduce(self, v: list, tail: int) -> tuple:
        """(x, pivot, prev): the raw vector v, with a zero tail of tail entries after it, reduced against the rows.

        x is packed over GF(2), where the tail is whatever the rows carry,
        and raw values otherwise.  pivot is the index of x's first nonzero
        entry among v's own, its bit over GF(2), or None when they are all
        zero.  prev is 1 over GF(p), and over Q the pivot entry of the last
        row taken, 1 when none is: x is then prev times v's numerators less
        multiples of the rows.
        """
        n = self.length
        if len(v) != n:
            raise ValueError(f"vector length {len(v)}, expected {n}")
        p = self._p
        if p == 2:
            x = _xor_reduce(self._rows, self._mask, _pack_lanes(v, 1))
            return x, x & -x if x & self._vector_bits else None, 1
        if p:
            x, prev = _lanes_reduce(p, self._width, self._rows, self._pivots, v, n + tail), 1
        else:
            # a step skipped at a zero entry would scale x by the pivot of its row over
            # that of the row before; those ratios telescope, so x stays as it is and the
            # next step taken divides by the pivot of the row before the last one taken
            x, prev = v + [0] * tail if tail else v, 1
            for piv, row in zip(self._pivots, self._rows):
                c = x[piv]
                if c:
                    a = row[piv]
                    x = _bareiss_step(x, row, a, c, prev)
                    prev = a
        return x, next(compress(range(n), x), None), prev

    def _insert(self, x, pivot, prev: int):
        """Keep x, reduced by _reduce and nonzero at pivot, as a row."""
        p, rows = self._p, self._rows
        if p == 2:
            self._mask |= _xor_insert(rows, x)
        elif p:
            _lanes_insert(p, self._width, rows, self._pivots, x, pivot)
        else:
            # the row is scaled as if every step had been taken, to the pivot of the last row
            last = rows[-1][self._pivots[-1]] if rows else 1
            rows.append(x if last == prev else [a * last // prev for a in x])
            self._pivots.append(pivot)


class SpanSolver(Echelon):
    """An Echelon whose rows carry their combination of the inserted vectors, for coordinates.

    Inserted vector k enters with a tail past its own entries: a unit in
    tail entry k, the set byte over GF(2), p - 1 over odd p and the
    vector's denominator over Q.  The tail goes through every step with
    the vector, so a row's tail records the combination that made it.  A
    vector of the span reduced with a zero tail ends with its vector part
    zero and its tail its coordinates, read over odd p and GF(2) as they
    are, and over Q negated and divided by the pivot of the last row
    taken times the vector's denominator.
    """

    __slots__ = ("count",)
    # bound in the class's own namespace too, where bench/tracer.py looks up the layers it wraps
    add = Echelon.add

    def __init__(self, field: FieldSpec, length: int):
        super().__init__(field, length)
        self.count = 0  # the vectors inserted so far

    def _place(self, v: list) -> Optional[list]:
        """Reduce the raw vector v once, then insert it or give its coordinates.

        Returns None when v was independent and is now inserted, and
        otherwise its raw coordinates over the vectors inserted so far.
        Those stay its coordinates as more vectors are inserted, with
        zeros for the newcomers, because the inserted vectors are
        independent.
        """
        x, pivot, prev = self._reduce(v, self.count)
        if pivot is None:
            return self._read_tail(x, prev, v)
        p = self._p
        if p == 2:
            x |= 1 << 8 * (self.length + self.count)
        else:
            x = x + [p - 1 if p else v.den * prev]
        self._insert(x, pivot, prev)
        self.count += 1
        return None

    def _read_tail(self, x, prev: int, v: list) -> list:
        """The raw coordinates of v over the inserted vectors, from its reduced x, which is zero but for its tail."""
        p, n = self._p, self.length
        if p == 2:
            return _read_lanes(2, x >> 8 * n, 1, self.count)
        if p:
            return x[n:]
        return _qvector([-a for a in x[n:]], prev * v.den)

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v over the inserted vectors, or None if outside the span."""
        coords = self._coordinates(_unbox(self.field, v))
        return None if coords is None else _box(self.field, coords)

    def _coordinates(self, v: list) -> Optional[list]:
        """coordinates() of the raw vector v, as raw values."""
        x, pivot, prev = self._reduce(v, self.count)
        return None if pivot is not None else self._read_tail(x, prev, v)

    def contains(self, v: Vector) -> bool:
        # over Q no tail is computed; over odd p the rows' tails are packed in the
        # same ints as their vectors, so all the lanes are read
        return self._reduce(_unbox(self.field, v), self.count if self._p else 0)[1] is None
