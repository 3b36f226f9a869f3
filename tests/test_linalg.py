"""Exact matrices: rref, kernels, stable powers, incremental spans."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclomod import linalg
from cyclomod.endo import compute_end
from cyclomod.fields import GF2, QQ, FieldScalar, gf
from cyclomod.linalg import (
    DenseMatrix,
    Echelon,
    SpanSolver,
    _box,
    _lane_width,
    _unbox,
    _unit,
    kernel_basis,
    rref,
    stable_power,
)
from cyclomod.modules import AlgebraAction, orbit_basis

import oracles
from fixtures import int_mul, unimodular_pair
from oracles import plain_power, rank_by_minors, span_equal


def raw_entries(m):
    return [[c.value for c in row] for row in m.entries]


def pivot_columns(m, reduction):
    return [[row[c] for row in m.entries] for c in reduction.pivot_columns]


def random_matrix(field, rng, rows, cols):
    if field.is_rational:
        pick = lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    else:
        pick = lambda: rng.randrange(field.characteristic)
    return DenseMatrix(field, [[pick() for _ in range(cols)] for _ in range(rows)])


def test_constructor_validates_ragged_rows():
    with pytest.raises(ValueError):
        DenseMatrix(QQ, [[1, 2], [3]])


def test_mul_shapes_and_identity():
    a = DenseMatrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert a * DenseMatrix.identity(QQ, 3) == a
    assert DenseMatrix.identity(QQ, 2) * a == a
    with pytest.raises(ValueError):
        a * a


def test_rank_matches_minor_expansion_oracle():
    # frozen seeded sweep over GF(2), GF(5) and Q, sizes up to 4x5
    rng = random.Random(1201)
    for field in (GF2, gf(5), QQ):
        p = field.characteristic
        for _ in range(25):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            m = random_matrix(field, rng, rows, cols)
            assert rref(m).rank == rank_by_minors(p, raw_entries(m))


def test_rref_known_case():
    m = DenseMatrix(QQ, [[1, 2, 1], [2, 4, 0], [1, 2, 3]])
    red, rank, pivots = rref(m)
    assert rank == 2
    assert pivots == (0, 2)
    assert red == DenseMatrix(QQ, [[1, 2, 0], [0, 0, 1], [0, 0, 0]])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    char=st.sampled_from([0, 2, 5]),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
)
def test_rref_idempotent_and_pivots_sorted(seed, char, rows, cols):
    field = QQ if char == 0 else gf(char)
    m = random_matrix(field, random.Random(seed), rows, cols)
    red, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(red)
    assert again == red
    assert rank2 == rank
    assert pivots2 == pivots
    assert list(pivots) == sorted(pivots)


def test_kernel_basis_annihilates_and_spans():
    rng = random.Random(77)
    for field in (GF2, QQ):
        for _ in range(20):
            m = random_matrix(field, rng, rng.randrange(1, 4), rng.randrange(1, 5))
            basis = kernel_basis(m)
            for v in basis:
                assert not any(oracles.boxed_apply(m, v))
            assert len(basis) == m.cols - rref(m).rank


def _stable_power_input(field, rng, n, form):
    """A random n x n matrix, or P D P^-1 for a unimodular P and a shaped D."""
    if form == "random":
        return random_matrix(field, rng, n, n)
    p, q = unimodular_pair(rng, n)
    if form == "invertible":
        return DenseMatrix(field, p)
    k = rng.randrange(1, n + 1)
    if form == "jordan":
        # a nilpotent Jordan block of size k next to the identity
        d = [[int(j == i + 1 and j < k) or int(i == j >= k) for j in range(n)] for i in range(n)]
    else:
        # an idempotent of rank k
        d = [[int(i == j < k) for j in range(n)] for i in range(n)]
    return DenseMatrix(field, int_mul(int_mul(p, d), q))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    field=st.sampled_from([GF2, gf(3), QQ]),
    n=st.integers(min_value=2, max_value=7),
    form=st.sampled_from(["random", "jordan", "idempotent", "invertible"]),
)
def test_stable_power_has_the_kernel_and_image_of_the_nth_power(seed, field, n, form):
    m = _stable_power_input(field, random.Random(seed), n, form)
    power, red = stable_power(m)
    nth = plain_power(m, n)
    assert red == rref(power)
    assert red.rank == rref(nth).rank
    assert kernel_basis(power) == kernel_basis(nth)
    # the image: the columns at the pivots of each reduced form
    assert span_equal(field, pivot_columns(power, red), pivot_columns(nth, rref(nth)), n)
    # P is m^(2^k) for at most ceil(log2 n) + 1 squarings
    assert power in [plain_power(m, 2 ** k) for k in range((n - 1).bit_length() + 2)]
    if form == "invertible":
        assert power is m and red.rank == n


def test_stable_power_edge_cases():
    z = DenseMatrix.zeros(QQ, 3, 3)
    assert stable_power(z) == (z, rref(z))
    empty = DenseMatrix.zeros(QQ, 0, 0)
    assert stable_power(empty) == (empty, rref(empty))
    five = DenseMatrix(QQ, [[5]])
    assert stable_power(five) == (five, rref(five))
    with pytest.raises(ValueError):
        stable_power(DenseMatrix(QQ, [[1, 2]]))
    # a 4x4 Jordan block needs two squarings to vanish
    jordan = DenseMatrix(QQ, [[int(j == i + 1) for j in range(4)] for i in range(4)])
    power, red = stable_power(jordan)
    assert power == plain_power(jordan, 4) and red.rank == 0


def _shaped_power_input(field, rng, n, form, den):
    """An n x n matrix P D P^-1 for a unimodular P and a D of the given form, over den over Q."""
    p, q = unimodular_pair(rng, n)
    k = rng.randrange(2, n + 1)
    units = [c for c in (-3, -2, -1, 1, 2, 3) if c % (field.characteristic or 5)]
    if form == "unit":
        d = [[int(i == j) * rng.choice(units) for j in range(n)] for i in range(n)]
    elif form == "nilpotent":
        d = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    elif form == "falling":
        # a nilpotent Jordan block of size k next to a unit: the rank falls
        # by one a power, over ceil(log2 k) squarings
        d = [[int(j == i + 1 and j < k) or (i == j >= k) * rng.choice(units) for j in range(n)] for i in range(n)]
    elif form == "zero":
        d = [[0] * n for _ in range(n)]
    else:
        d = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    rows = int_mul(int_mul(p, d), q)
    if field.characteristic:
        return DenseMatrix(field, [[x % field.characteristic for x in row] for row in rows])
    return DenseMatrix(QQ, [[Fraction(x, den) for x in row] for row in rows])


@settings(max_examples=160, deadline=None)
@given(
    field=st.sampled_from([QQ, GF2, gf(3)]),
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=8),
    form=st.sampled_from(["unit", "nilpotent", "falling", "zero", "random"]),
    den=st.integers(min_value=1, max_value=12),
)
def test_stable_power_matches_the_gauss_jordan_reference(field, seed, n, form, den):
    # the ranks read by _rank_form and only the last power reduced give the
    # power and reduced form that rref of every power gives
    m = _shaped_power_input(field, random.Random(seed), n, form, den)
    power, red = stable_power(m)
    assert (power, red) == oracles.stable_power_by_rref(m)
    assert red.rank == {"unit": n, "nilpotent": 0, "zero": 0}.get(form, red.rank)
    if red.rank == n:
        assert power is m and red.matrix == DenseMatrix.identity(field, n)


@settings(max_examples=120, deadline=None)
@given(
    field=st.sampled_from([GF2, gf(3), QQ]),
    rows=st.integers(min_value=0, max_value=8),
    cols=st.integers(min_value=0, max_value=8),
    density=st.sampled_from([0.2, 0.5, 1.0]),
    rng=st.randoms(use_true_random=False),
)
def test_rank_is_the_rank_of_the_reduced_form(field, rows, cols, density, rng):
    m = random_matrix(field, rng, rows, cols)
    m = DenseMatrix(field, [[x if rng.random() < density else 0 for x in row] for row in m.entries], cols)
    red = rref(m)
    assert linalg._rank_form(m) == (red.rank, red if field.characteristic else None)


def test_span_solver_coordinates():
    field = QQ
    solver = SpanSolver(field, 3)
    v1 = (field.scalar(1), field.scalar(2), field.scalar(0))
    v2 = (field.scalar(0), field.scalar(1), field.scalar(1))
    assert solver.add(v1)
    assert solver.add(v2)
    dependent = tuple(a + b for a, b in zip(v1, v2))
    assert not solver.add(dependent)
    coords = solver.coordinates(dependent)
    assert coords == (field.one(), field.one())
    assert solver.coordinates(_unit(0, 3, 0)) is None
    assert solver.rank == 2


def test_span_solver_matches_rref_rank():
    rng = random.Random(99)
    for field in (GF2, gf(7), QQ):
        for _ in range(15):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = random_matrix(field, rng, rows, cols)
            solver = SpanSolver(field, cols)
            for r in m.entries:
                solver.add(r)
            assert solver.rank == rref(m).rank


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([GF2, gf(3), gf(5), gf(2147483647), QQ]),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=16),
    st.sampled_from([0.2, 0.5, 1.0]),
    st.randoms(use_true_random=False),
)
def test_echelon_add_reports_what_span_solver_add_does(field, length, count, density, rng):
    # zero vectors, repeats and combinations of earlier vectors among random
    # ones; over Q with denominators, which the echelon drops
    if field.is_rational:
        pick = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    else:
        pick = lambda: rng.randrange(field.characteristic)
    vectors = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            v = [field.zero()] * length
        elif kind < 0.3 and vectors:
            v = list(rng.choice(vectors))
        elif kind < 0.5 and len(vectors) >= 2:
            x, y = rng.sample(vectors, 2)
            a, b = field.scalar(pick()), field.scalar(pick())
            v = [a * s + b * t for s, t in zip(x, y)]
        else:
            v = [field.scalar(pick() if rng.random() < density else 0) for _ in range(length)]
        vectors.append(v)
    echelon, solver = Echelon(field, length), SpanSolver(field, length)
    assert [echelon.add(v) for v in vectors] == [solver.add(v) for v in vectors]
    assert echelon.rank == solver.rank
    with pytest.raises(ValueError):
        echelon.add([field.zero()] * (length + 1))


def _bareiss_rows(vectors):
    """Fraction-free echelon rows of integer vectors, every step taken and every division checked exact."""
    rows, pivots = [], []
    for v in vectors:
        x, prev = list(v), 1
        for piv, row in zip(pivots, rows):
            a, c = row[piv], x[piv]
            products = [a * s - c * t for s, t in zip(x, row)]
            assert all(y % prev == 0 for y in products)
            x, prev = [y // prev for y in products], a
        if any(x):
            rows.append(x)
            pivots.append(next(j for j, a in enumerate(x) if a))
    return rows


def test_echelon_over_q_skips_zero_steps_and_keeps_the_bareiss_rows():
    # the echelon skips a row at a zero entry and divides by the pivot of the
    # row before the last step taken; its rows are those of every step taken
    rng = random.Random(11)
    for _ in range(2000):
        length = rng.randint(1, 8)
        vectors = []
        for _ in range(rng.randint(1, 12)):
            if vectors and rng.random() < 0.3:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                x, y = rng.choice(vectors), rng.choice(vectors)
                vectors.append([a * s + b * t for s, t in zip(x, y)])
            else:
                vectors.append([rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(length)])
        echelon = Echelon(QQ, length)
        for v in vectors:
            echelon.add(v)
        assert [list(r) for r in echelon._rows] == _bareiss_rows(vectors)


def test_span_solver_over_q_keeps_the_bareiss_rows_of_its_augmented_vectors(monkeypatch):
    # inserted vector k enters as its numerators and a tail with its denominator
    # in entry k; the rows, vector part and tail, are the Bareiss rows of those
    # augmented vectors, every step divides exactly, and a vector of the span
    # comes back as its combination
    steps = []
    step = linalg._bareiss_step

    def recording_step(x, row, a, c, prev):
        assert all((a * u - c * w) % prev == 0 for u, w in zip(x, row))
        steps.append((a, prev))
        return step(x, row, a, c, prev)

    monkeypatch.setattr(linalg, "_bareiss_step", recording_step)
    rng = random.Random(12)
    for trial in range(600):
        length = rng.randint(1, 7)
        if trial % 2:
            pick = lambda: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 6))) if rng.random() < 0.6 else 0
        else:
            pick = lambda: int(rng.random() < 0.3)  # 0/1 vectors, as in a regular module: unit pivots
        solver, echelon, inserted = SpanSolver(QQ, length), Echelon(QQ, length), []
        for _ in range(rng.randint(1, 10)):
            if inserted and rng.random() < 0.4:
                # a known combination of the vectors inserted so far, zero included
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in inserted]
                v = [sum(c * u[j] for c, u in zip(coeffs, inserted)) for j in range(length)]
            else:
                coeffs, v = None, [Fraction(pick()) for _ in range(length)]
            dependent = echelon._place(_unbox(QQ, v))
            coords = solver._place(_unbox(QQ, v))
            assert (coords is None) == (dependent is None)
            if coords is None:
                inserted.append(v)
                continue
            assert dependent == ()
            assert [Fraction(a, coords.den) for a in coords] == (coeffs or _coordinates_by_rref(inserted, v))
        n, k = length, len(inserted)
        augmented = []
        for i, v in enumerate(inserted):
            raw = _unbox(QQ, v)
            augmented.append(list(raw) + [raw.den if j == i else 0 for j in range(k)])
        assert [list(r) + [0] * (n + k - len(r)) for r in solver._rows] == _bareiss_rows(augmented)
        assert solver.count == solver.rank == echelon.rank == k
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in inserted]
            v = [sum(c * u[j] for c, u in zip(coeffs, inserted)) for j in range(n)]
            assert [c.value for c in solver.coordinates(v)] == coeffs
            assert solver.contains(v)
        assert [c.value for c in solver.coordinates([0] * n)] == [0] * k
        outside = next((_unit(0, n, j) for j in range(n) if not solver.contains(_unit(0, n, j))), None)
        assert (outside is None) == (k == n)
        if outside is not None:
            assert solver.coordinates(outside) is None
    assert any(a == prev == 1 for a, prev in steps)
    assert any(a == prev and abs(a) > 1 for a, prev in steps)


def _coordinates_by_rref(vectors, v):
    """The coordinates of v over independent vectors, read off the reduced form of [vectors^T | v]."""
    m = DenseMatrix(QQ, [list(col) + [x] for col, x in zip(zip(*vectors), v)])
    red = rref(m)
    return [red.matrix.entries[i][-1].value for i in range(len(vectors))]


def test_span_equal():
    f = QQ
    us = [(f.scalar(1), f.scalar(0)), (f.scalar(0), f.scalar(1))]
    vs = [(f.scalar(1), f.scalar(1)), (f.scalar(1), f.scalar(-1))]
    assert span_equal(f, us, vs, 2)
    assert not span_equal(f, us[:1], vs, 2)


def test_zero_dimensional_edge_cases():
    z = DenseMatrix.zeros(QQ, 0, 0)
    assert rref(z).rank == 0
    assert kernel_basis(z) == []
    wide = DenseMatrix.zeros(QQ, 0, 2)
    assert len(kernel_basis(wide)) == 2


# ---------------------------------------------------------------------------
# the kernel boundary: foreign scalars are rejected


def test_hash_agrees_with_eq_without_boxing():
    for field in (gf(3), QQ):
        rows = [[1, 2], [0, -1]]
        plain = DenseMatrix(field, rows)
        boxed = DenseMatrix(field, [[field.scalar(x) for x in r] for r in rows])
        assert plain == boxed and hash(plain) == hash(boxed)
        assert plain._entries is None
    # a Q matrix is integer rows over one denominator in lowest terms, so
    # equal matrices with denominators compare and hash alike whichever path made them
    h, t = Fraction(1, 2), Fraction(1, 3)
    target = DenseMatrix(QQ, [[h, -t], [0, Fraction(5, 2)]])
    m = orbit_basis(AlgebraAction(QQ, [("a", [[0, 1], [1, 0]])]), (1, 0))
    e = compute_end(m)
    # the combination of the basis that the element path makes, summed on FieldScalars
    coords = (Fraction(3, 4), Fraction(-1, 6))
    combination = [[sum((QQ.scalar(c) * b.entries[i][j] for c, b in zip(coords, e.basis)), QQ.zero())
                     for j in range(2)] for i in range(2)]
    pairs = [
        (DenseMatrix(QQ, [[QQ.scalar(h), QQ.scalar(-t)], [QQ.zero(), QQ.scalar(Fraction(5, 2))]]), target),
        (DenseMatrix._from_ints(QQ, [[6, -4], [0, 30]], 12, 2), target),
        (DenseMatrix._from_ints(QQ, [[-3, 2], [0, -15]], -6, 2), target),
        (DenseMatrix.from_columns(QQ, [[h, 0], [-t, Fraction(5, 2)]]), target),
        (DenseMatrix(QQ, [[1, 0], [0, Fraction(5, 3)]]) * DenseMatrix(QQ, [[h, -t], [0, Fraction(3, 2)]]), target),
        (DenseMatrix(QQ, [[Fraction(1, 6), 0], [0, 3]]) + DenseMatrix(QQ, [[t, -t], [0, -h]]), target),
        (DenseMatrix(QQ, [[2 * h, -2 * t], [0, 5]]).scale(h), target),
        (rref(DenseMatrix(QQ, [[2, 1], [4, 2]])).matrix, DenseMatrix(QQ, [[1, h], [0, 0]])),
        (e.element(coords), DenseMatrix(QQ, combination)),
    ]
    for made, want in pairs:
        assert made._den > 1
        assert made == want and hash(made) == hash(want)
        assert made.entries == want.entries
    # the same integer rows over another denominator are another matrix
    assert DenseMatrix._from_raw(QQ, target._raw, 2, target._den * 5) != target


def test_kernel_rejects_scalars_of_another_field():
    gf3 = gf(3)
    foreign = (gf3.one(), gf3.zero())
    solver = SpanSolver(GF2, 2)
    with pytest.raises(ValueError, match="mixed fields"):
        solver.add(foreign)
    assert solver.rank == 0
    assert solver.add((GF2.one(), GF2.zero()))
    for method in (solver.coordinates, solver.contains, solver.add):
        with pytest.raises(ValueError, match="mixed fields"):
            method(foreign)
    # a GF(3) entry cannot get into the matrix that rref reduces
    with pytest.raises(ValueError, match="mixed fields"):
        rref(DenseMatrix(GF2, [[gf3.one(), 0]]))
    with pytest.raises(ValueError, match="mixed fields"):
        DenseMatrix.from_columns(QQ, [foreign])


# ---------------------------------------------------------------------------
# the raw kernel against the boxed reference in oracles


ORACLE_FIELDS = (GF2, gf(3), gf(2147483647), QQ)


def _oracle_rows(field, rng, rows, cols):
    """Random raw rows with zero rows, zero columns and dependent rows mixed in."""
    p = field.characteristic
    if p:
        pick = lambda: rng.choice([0, 0, 1, p - 1, rng.randrange(p)])
    else:
        pick = lambda: rng.choice([0, 0, 1, Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))])
    dead_cols = {j for j in range(cols) if rng.random() < 0.2}
    out = []
    for i in range(rows):
        roll = rng.random()
        if roll < 0.15:
            row = [0] * cols
        elif roll < 0.4 and out:
            # a combination of earlier rows: rank deficiency
            a, b = rng.choice(out), rng.choice(out)
            c = pick()
            row = [x + c * y for x, y in zip(a, b)]
            row = [x % p for x in row] if p else row
        else:
            row = [pick() for _ in range(cols)]
        out.append([0 if j in dead_cols else x for j, x in enumerate(row)])
    return out


def _as_input(field, values, form):
    """values as FieldScalars ("boxed"), as plain ints where they are integers
    ("ints"), or as both in turn ("mixed")."""
    p = field.characteristic
    out = []
    for i, x in enumerate(values):
        if form == "boxed" or (form == "mixed" and i % 2) or Fraction(x).denominator != 1:
            out.append(field.scalar(x))
        else:
            # shift GF(p) values by a multiple of p, so the kernel must reduce them
            out.append(int(x) + (p * (i % 3 - 1) if p else 0))
    return tuple(out)


def _assert_canonical(field, scalars):
    p = field.characteristic
    for x in scalars:
        assert type(x) is FieldScalar and x.field == field
        if p:
            assert type(x.value) is int and 0 <= x.value < p
        else:
            assert type(x.value) is Fraction


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    field=st.sampled_from(ORACLE_FIELDS),
    rows=st.integers(min_value=0, max_value=6),
    cols=st.integers(min_value=0, max_value=6),
    inner=st.integers(min_value=0, max_value=4),
    form=st.sampled_from(["boxed", "ints", "mixed"]),
)
def test_raw_kernel_matches_boxed_reference(seed, field, rows, cols, inner, form):
    rng = random.Random(seed)

    def given(values):
        return _as_input(field, values, form)

    def box(values):
        return _as_input(field, values, "boxed")

    raw = _oracle_rows(field, rng, rows, cols)
    m = DenseMatrix(field, [given(r) for r in raw], cols=cols)
    m_boxed = DenseMatrix(field, [box(r) for r in raw], cols=cols)
    assert m == m_boxed and m.entries == m_boxed.entries

    red, rank, pivots = rref(m)
    ref = oracles.boxed_rref(m_boxed)
    assert red.entries == tuple(ref.rows)
    assert (rank, pivots) == (ref.rank, ref.pivot_columns)
    for row in red.entries:
        _assert_canonical(field, row)

    solver, reference = SpanSolver(field, cols), oracles.BoxedSpanSolver(field, cols)
    for r in raw:
        assert solver.add(given(r)) == reference.add(box(r))
    assert solver.rank == reference.rank
    assert solver.basis_rows() == reference.basis_rows()
    for row in solver.basis_rows():
        _assert_canonical(field, row)
    probes = raw + _oracle_rows(field, rng, 3, cols)
    for v in probes:
        got = solver.coordinates(given(v))
        assert got == reference.coordinates(box(v))
        assert solver.contains(given(v)) == reference.contains(box(v))
        if got is not None:
            _assert_canonical(field, got)

    other_raw = _oracle_rows(field, rng, cols, inner)
    other = DenseMatrix(field, [given(r) for r in other_raw], cols=inner)
    product = m * other
    assert (product.rows, product.cols) == (rows, inner)
    assert product.entries == tuple(oracles.boxed_mul(m_boxed, other))
    for row in product.entries:
        _assert_canonical(field, row)
    for v in _oracle_rows(field, rng, 2, cols):
        got = _box(field, m._times_col(_unbox(field, given(v))))
        assert got == oracles.boxed_apply(m_boxed, box(v))
        _assert_canonical(field, got)
    for w in _oracle_rows(field, rng, 2, rows):
        got = _box(field, m._times_row(_unbox(field, given(w))))
        assert got == oracles.boxed_apply_row(m_boxed, box(w))
        _assert_canonical(field, got)


def _big_q_rows(rng, rows, cols):
    """Raw Q rows with numerators up to 10^20 and mixed denominators up to 10^6.

    Zero rows and combinations of earlier rows give rank deficiency.  A
    "staircase" row is zero left of some column and dense from there, so
    inserting it after denser rows puts its pivot where the rows held by
    a SpanSolver are nonzero and forces them to be reduced again.
    """
    def pick():
        roll = rng.random()
        if roll < 0.25:
            return Fraction(0)
        if roll < 0.4:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**6))

    out = []
    for i in range(rows):
        roll = rng.random()
        if roll < 0.1:
            row = [Fraction(0)] * cols
        elif roll < 0.35 and out:
            a, b = rng.choice(out), rng.choice(out)
            c, e = pick(), pick()
            row = [c * x + e * y for x, y in zip(a, b)]
        elif roll < 0.6:
            start = rng.randrange(cols) if cols else 0
            row = [Fraction(0)] * start + [pick() or Fraction(1) for _ in range(cols - start)]
        else:
            row = [pick() for _ in range(cols)]
        out.append(row)
    return out


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=0, max_value=12),
    cols=st.integers(min_value=0, max_value=12),
    inner=st.integers(min_value=0, max_value=12),
)
# a sum over 16 lines or more, with at most half of x zero, runs on packed signed
# lanes, here wider than 8 bytes, and one over 15 on lists: rows, cols and inner
# each cross the line, and 16 rows of no entry are packed too
@example(seed=15, rows=15, cols=16, inner=17)
@example(seed=16, rows=16, cols=17, inner=15)
@example(seed=17, rows=17, cols=15, inner=16)
@example(seed=18, rows=16, cols=0, inner=16)
def test_q_integer_kernel_matches_boxed_reference_on_large_entries(seed, rows, cols, inner):
    rng = random.Random(seed)

    def box(values):
        return tuple(QQ.scalar(x) for x in values)

    raw = _big_q_rows(rng, rows, cols)
    m = DenseMatrix(QQ, [box(r) for r in raw], cols=cols)

    red, rank, pivots = rref(m)
    ref = oracles.boxed_rref(m)
    assert red.entries == tuple(ref.rows)
    assert (rank, pivots) == (ref.rank, ref.pivot_columns)
    for row in red.entries:
        _assert_canonical(QQ, row)

    # staircase rows from the left edge on: each new pivot lies right of
    # the old ones, where the old rows are dense
    stairs = [[Fraction(0)] * s + [Fraction(rng.randint(1, 10**20), rng.randint(1, 10**6))
                                    for _ in range(cols - s)] for s in range(cols)]
    solver, reference = SpanSolver(QQ, cols), oracles.BoxedSpanSolver(QQ, cols)
    for r in stairs[: rng.randrange(cols + 1)] + raw:
        assert solver.add(box(r)) == reference.add(box(r))
    assert solver.rank == reference.rank
    assert solver.basis_rows() == reference.basis_rows()
    for row in solver.basis_rows():
        _assert_canonical(QQ, row)
    for v in raw + _big_q_rows(rng, 4, cols):
        got = solver.coordinates(box(v))
        assert got == reference.coordinates(box(v))
        assert solver.contains(box(v)) == reference.contains(box(v))
        if got is not None:
            _assert_canonical(QQ, got)

    other = DenseMatrix(QQ, [box(r) for r in _big_q_rows(rng, cols, inner)], cols=inner)
    product = m * other
    assert product.entries == tuple(oracles.boxed_mul(m, other))
    for row in product.entries:
        _assert_canonical(QQ, row)
    # a product keeps its integer form: use it again in a product and an rref
    third = DenseMatrix(QQ, [box(r) for r in _big_q_rows(rng, inner, 3)], cols=3)
    assert (product * third).entries == tuple(oracles.boxed_mul(product, third))
    assert rref(product).matrix.entries == tuple(oracles.boxed_rref(product).rows)

    def special(n):
        """A zero vector, one with a single nonzero entry and one with no zero entry, of length n."""
        def nonzero():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**20), rng.randint(1, 10**6))

        single = [Fraction(0)] * n
        if n:
            single[rng.randrange(n)] = nonzero()
        return [[Fraction(0)] * n, single, [nonzero() for _ in range(n)]]

    # a row of the product of these with other adds no line, one, or all of other's rows
    rows_x = DenseMatrix(QQ, [box(r) for r in special(cols)], cols=cols)
    assert (rows_x * other).entries == tuple(oracles.boxed_mul(rows_x, other))
    for v in _big_q_rows(rng, 2, cols) + special(cols):
        got = _box(QQ, m._times_col(_unbox(QQ, v)))
        assert got == oracles.boxed_apply(m, box(v))
        _assert_canonical(QQ, got)
        if cols:
            u = _big_q_rows(rng, 1, cols)[0]
            dot = _box(QQ, DenseMatrix._from_vectors(QQ, [_unbox(QQ, u)], cols)._times_col(_unbox(QQ, v)))
            assert dot == (sum((a * b for a, b in zip(box(u), box(v))), QQ.zero()),)
            _assert_canonical(QQ, dot)
    for w in _big_q_rows(rng, 2, rows) + special(rows):
        got = _box(QQ, m._times_row(_unbox(QQ, w)))
        assert got == oracles.boxed_apply_row(m, box(w))
        _assert_canonical(QQ, got)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=0, max_value=12),
    cols=st.integers(min_value=0, max_value=12),
)
def test_span_solver_staircase_over_a_large_prime(seed, rows, cols):
    # the staircase re-reduction of the large-entry Q test over GF(2^31 - 1),
    # where inserting a row also clears it from the rows, and combinations, held
    field = gf(2147483647)
    p = field.characteristic
    rng = random.Random(seed)

    def box(values):
        return tuple(field.scalar(x) for x in values)

    raw = _oracle_rows(field, rng, rows, cols)
    stairs = [[0] * s + [rng.randrange(1, p) for _ in range(cols - s)] for s in range(cols)]
    solver, reference = SpanSolver(field, cols), oracles.BoxedSpanSolver(field, cols)
    for r in stairs[: rng.randrange(cols + 1)] + raw:
        assert solver.add(box(r)) == reference.add(box(r))
    assert solver.rank == reference.rank
    assert solver.basis_rows() == reference.basis_rows()
    for row in solver.basis_rows():
        _assert_canonical(field, row)
    for v in raw + stairs + _oracle_rows(field, rng, 4, cols):
        got = solver.coordinates(box(v))
        assert got == reference.coordinates(box(v))
        assert solver.contains(box(v)) == reference.contains(box(v))
        if got is not None:
            _assert_canonical(field, got)


# lengths on both sides of every change of lane width of the packed rows:
# over GF(2) the 8-, 64- and 128-entry boundaries of one byte per entry, and
# for odd p each length k at which (p - 1) + k (p - 1)^2 outgrows a width
PACKED_LENGTHS = {
    2: (0, 1, 7, 8, 9, 63, 64, 65, 130),
    3: (0, 1, 63, 64, 65),
    5: (0, 1, 15, 16),
    7: (0, 1, 6, 7),
    251: (0, 1, 2, 3),
    2147483647: (0, 1, 4, 5, 9),
}
# bytes per lane at those lengths, the 9-byte lanes past the widths struct reads
LANE_WIDTHS = {
    2: (1,) * 9,
    3: (1, 1, 1, 2, 2),
    5: (1, 1, 1, 2),
    7: (1, 1, 1, 2),
    251: (1, 2, 4, 4),
    2147483647: (4, 8, 8, 9, 9),
}


def test_lane_widths_change_at_the_tested_lengths():
    for p, lengths in PACKED_LENGTHS.items():
        assert tuple(_lane_width(p, k) for k in lengths) == LANE_WIDTHS[p]


@pytest.mark.parametrize("p", sorted(PACKED_LENGTHS))
@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10**6),
    form=st.sampled_from(["boxed", "ints", "mixed"]),
)
def test_packed_kernel_matches_boxed_reference(p, data, seed, form):
    """rref, kernels, SpanSolver, products, matrix-vector products and dot over GF(p) on packed rows.

    The "ints" and "mixed" forms hand in values shifted by p, outside
    [0, p), which must be reduced before they are packed.  Rows and
    columns are drawn from lengths on both sides of each lane width, as
    SpanSolver sizes its lanes by the vector length, a product or a
    matrix-vector product by the number of terms it sums.
    """
    field = gf(p)
    rows = data.draw(st.sampled_from(PACKED_LENGTHS[p] + (12, 40)), label="rows")
    cols = data.draw(st.sampled_from(PACKED_LENGTHS[p]), label="cols")
    inner = data.draw(st.sampled_from((0, 1, 7, 8, 9, 65)), label="inner")
    rng = random.Random(seed)
    rows = min(rows, 12) if cols * inner > 1000 else rows  # keep the boxed product small

    def given(values):
        return _as_input(field, values, form)

    def box(values):
        return _as_input(field, values, "boxed")

    raw = _oracle_rows(field, rng, rows, cols)
    m = DenseMatrix(field, [given(r) for r in raw], cols=cols)
    m_boxed = DenseMatrix(field, [box(r) for r in raw], cols=cols)
    assert m == m_boxed

    red, rank, pivots = rref(m)
    ref = oracles.boxed_rref(m_boxed)
    assert red.entries == tuple(ref.rows)
    assert (rank, pivots) == (ref.rank, ref.pivot_columns)
    for row in red.entries:
        _assert_canonical(field, row)

    # probes are compared before and after each insertion, so the packed
    # combinations are read while they grow
    solver, reference = SpanSolver(field, cols), oracles.BoxedSpanSolver(field, cols)
    probes = raw[::5] + _oracle_rows(field, rng, 2, cols)
    for i, r in enumerate(raw):
        assert solver.add(given(r)) == reference.add(box(r))
        if i % 8 == 0 or i == len(raw) - 1:
            for v in probes:
                got = solver.coordinates(given(v))
                assert got == reference.coordinates(box(v))
                assert solver.contains(given(v)) == (got is not None)
                if got is not None:
                    _assert_canonical(field, got)
            assert solver.basis_rows() == reference.basis_rows()
    assert solver.rank == reference.rank == rank
    for row in solver.basis_rows():
        _assert_canonical(field, row)

    # the kernel that compute_end cuts its solution space with, on these rows
    # and on all-zero rows: it vanishes on every row, is independent, and has
    # cols - rank vectors, so it spans the nullspace
    for a, a_raw in ((m, raw), (DenseMatrix.zeros(field, rows, cols), [[0] * cols] * rows)):
        kernel = [[c.value for c in v] for v in kernel_basis(a)]
        assert all(sum(x * y for x, y in zip(r, v)) % p == 0 for r in a_raw for v in kernel)
        assert oracles.raw_rank(p, kernel) == len(kernel) == cols - oracles.raw_rank(p, a_raw)

    other_raw = _oracle_rows(field, rng, cols, inner)
    other = DenseMatrix(field, [given(r) for r in other_raw], cols=inner)
    product = m * other
    assert (product.rows, product.cols) == (rows, inner)
    assert product.entries == tuple(oracles.boxed_mul(m_boxed, other))
    for row in product.entries:
        _assert_canonical(field, row)
    for v in _oracle_rows(field, rng, 2, cols):
        x = _unbox(field, given(v))
        got = _box(field, m._times_col(x))
        assert got == oracles.boxed_apply(m_boxed, box(v))
        _assert_canonical(field, got)
        if cols:
            u = _oracle_rows(field, rng, 1, cols)[0]
            dot = _box(field, DenseMatrix._from_vectors(field, [u], cols)._times_col(x))
            assert dot == (sum((a * b for a, b in zip(box(u), box(v))), field.zero()),)
            _assert_canonical(field, dot)
    for w in _oracle_rows(field, rng, 2, rows):
        got = _box(field, m._times_row(_unbox(field, given(w))))
        assert got == oracles.boxed_apply_row(m_boxed, box(w))
        _assert_canonical(field, got)
    # every value p - 1, so each lane of a step or a product row takes its
    # largest sum, terms * (p - 1)^2
    full = DenseMatrix(field, [[p - 1] * cols for _ in range(rows)], cols=cols)
    assert full._times_col([p - 1] * cols) == [(p - 1) ** 2 * cols % p] * rows
    assert full._times_row([p - 1] * rows) == [(p - 1) ** 2 * rows % p] * cols
    square = DenseMatrix(field, [[p - 1] * cols for _ in range(cols)], cols=cols)
    assert (full * square)._raw == [[(p - 1) ** 2 * cols % p] * cols] * rows
