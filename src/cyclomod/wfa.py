"""Weighted finite automata over an exact field, and their minimization.

An automaton (lambda, mu, gamma) realizes the series
    weight(w) = lambda * mu(w_1) * ... * mu(w_k) * gamma.
covering_tree is the one routine behind every reduction here and behind
modules.orbit_basis: from a root vector it keeps a word wa exactly when
the step of a from the vector of w is independent of the vectors kept
before it, in breadth-first order with letters tried in the given
order.  It runs on raw field values and reduces each step once.  The
kept words form a prefix-closed set whose vectors are a basis of
everything the root reaches.  Its solver either records each step's
coordinates over the kept vectors (a SpanSolver) or only decides
independence (an Echelon).

minimize reads the minimal automaton off the rows of the Hankel matrix
H[u, v] = weight(uv) (Fliess 1974; Berstel and Reutenauer,
Noncommutative Rational Series, ch. 2): a spin of gamma that keeps no
coordinates, then a spin of lambda that places Hankel rows.  equivalent
runs the first spin only.  left_reduce (the rows lambda mu(w),
reachability) and right_reduce (the columns mu(w) gamma, observability,
words read backwards) stay public, and minimize gives exactly what the
one after the other gives.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import (
    DenseMatrix,
    Echelon,
    SpanSolver,
    Vector,
    _box,
    _common,
    _marked,
    _qvector,
    _RawVector,
    _scale,
    _unbox,
    _unit,
)


class PrefixBasis:
    """Kept words and their vectors, in covering-tree order."""

    __slots__ = ("words", "vectors", "word_to_index")

    def __init__(self, words: Sequence[tuple], vectors: Sequence[Vector]):
        if len(words) != len(vectors):
            raise ValueError("words and vectors differ in length")
        object.__setattr__(self, "words", tuple(tuple(w) for w in words))
        object.__setattr__(self, "vectors", tuple(tuple(v) for v in vectors))
        object.__setattr__(
            self, "word_to_index", {w: i for i, w in enumerate(self.words)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("PrefixBasis is immutable")

    def __len__(self) -> int:
        return len(self.words)


class WeightedAutomaton:
    """(lambda, mu, gamma) over one field, alphabet order fixed.

    lambda and gamma are stored as raw values and boxed when first read.
    """

    __slots__ = ("field", "alphabet", "dim", "mu", "_raw_lam", "_raw_gamma", "_lam", "_gamma")

    def __init__(
        self,
        field: FieldSpec,
        alphabet: Sequence[str],
        lam: Sequence,
        mu: dict,
        gamma: Sequence,
    ):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet labels must be distinct")
        lam, gamma = _unbox(field, lam), _unbox(field, gamma)
        dim = len(lam)
        if len(gamma) != dim:
            raise ValueError(f"lambda has length {dim} but gamma has length {len(gamma)}")
        if set(mu) != set(alphabet):
            raise ValueError("mu must cover exactly the alphabet")
        mats = {}
        for a in alphabet:
            m = mu[a]
            if not isinstance(m, DenseMatrix):
                m = DenseMatrix(field, m, cols=dim)
            if m.field != field:
                raise ValueError(f"mu[{a!r}] lives in {m.field}, expected {field}")
            if (m.rows, m.cols) != (dim, dim):
                raise ValueError(f"mu[{a!r}] is {m.rows}x{m.cols}, expected {dim}x{dim}")
            mats[a] = m
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mu", mats)
        object.__setattr__(self, "_raw_lam", _marked(lam))
        object.__setattr__(self, "_raw_gamma", _marked(gamma))
        object.__setattr__(self, "_lam", None)
        object.__setattr__(self, "_gamma", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedAutomaton is immutable")

    @property
    def lam(self) -> Vector:
        """lambda as a tuple of FieldScalar, boxed on first use."""
        if self._lam is None:
            object.__setattr__(self, "_lam", _box(self.field, self._raw_lam))
        return self._lam

    @property
    def gamma(self) -> Vector:
        """gamma as a tuple of FieldScalar, boxed on first use."""
        if self._gamma is None:
            object.__setattr__(self, "_gamma", _box(self.field, self._raw_gamma))
        return self._gamma

    @classmethod
    def zero(cls, field: FieldSpec, alphabet: Sequence[str]) -> "WeightedAutomaton":
        return cls(field, alphabet, (), {a: DenseMatrix.zeros(field, 0, 0) for a in alphabet}, ())

    def weight(self, word: Iterable[str]):
        """Series coefficient of the given word (any iterable of labels)."""
        field = self.field
        x = self._raw_lam
        for letter in word:
            if letter not in self.mu:
                raise ValueError(f"letter {letter!r} is not in the alphabet")
            x = self.mu[letter]._times_row(x)
        return _box(field, DenseMatrix._from_vectors(field, [x], self.dim)._times_col(self._raw_gamma))[0]

    def __repr__(self) -> str:
        return f"WeightedAutomaton(dim={self.dim}, alphabet={list(self.alphabet)}, {self.field})"


class CoveringTree(NamedTuple):
    """Kept words and vectors, their span, and each label's step in coordinates.

    vectors holds canonical raw values; images[label][i] is the raw
    coordinate column, over the kept vectors, of the step of label from
    vectors[i].  A tree spun with an Echelon keeps no coordinates, and
    its images are empty.
    """

    words: list
    vectors: list
    solver: SpanSolver | Echelon
    images: dict


def covering_tree(
    field: FieldSpec,
    length: int,
    root: list,
    steps: dict,
    solver: SpanSolver | Echelon | None = None,
    key: Callable | None = None,
) -> CoveringTree:
    """Breadth-first covering tree of the raw root vector; empty when root reduces to zero.

    steps maps each label, in the order letters are tried, to its step
    on raw vectors.  The solver, a SpanSolver of the given length unless
    one is passed, reduces key(v), a vector of that length, for each
    vector v, or v itself when key is None: a word is kept when that
    vector is independent of those of the words kept before it.  Each
    step is applied once to each kept vector and its image reduced once.
    A SpanSolver records coordinates: a kept image's column is the next
    unit vector, and any other image gets its coordinates from that same
    reduction.  An Echelon records none, and images stays empty.
    """
    p = field.characteristic
    if solver is None:
        solver = SpanSolver(field, length)
    coordinates = isinstance(solver, SpanSolver)
    words, vectors = [], []
    images = {label: [] for label in steps} if coordinates else {}

    def place(v):
        """None when v is kept, otherwise its coordinates; an Echelon gives ()."""
        x = v if key is None else key(v)
        if coordinates:
            return solver._place(x)
        return None if solver._add(x) else ()

    if place(root) is None:
        words.append(())
        vectors.append(root)
    # kept vectors are appended behind the one being expanded, so walking
    # the list in index order is the breadth-first queue
    i = 0
    while i < len(vectors):
        for label, step in steps.items():
            v = step(vectors[i])
            coords = place(v)
            if coords is None:
                words.append(words[i] + (label,))
                vectors.append(v)
                coords = _unit(p, len(vectors), len(vectors) - 1)
            if coordinates:
                images[label].append(coords)
        i += 1
    n = len(vectors)
    for columns in images.values():
        if p:
            columns[:] = [_RawVector(c + [0] * (n - len(c))) for c in columns]
        else:
            columns[:] = [_qvector(c + [0] * (n - len(c)), c.den) for c in columns]
    return CoveringTree(words, vectors, solver, images)


def left_reduce(a: WeightedAutomaton):
    """Reachability reduction; returns (reduced automaton, PrefixBasis).

    The root vector of the covering tree is lambda itself, so the
    reduced lambda is (1, 0, ..., 0), or empty when lambda is zero.
    """
    tree = covering_tree(a.field, a.dim, a._raw_lam, _row_steps(a))
    reduced = _row_automaton(a, tree)
    return reduced, PrefixBasis(tree.words, [_box(a.field, v) for v in tree.vectors])


def _row_steps(a: WeightedAutomaton) -> dict:
    """Each label's step on raw row vectors, x -> x * mu(label)."""
    return {s: a.mu[s]._times_row for s in a.alphabet}


def _column_steps(a: WeightedAutomaton) -> dict:
    """Each label's step on raw column vectors, x -> mu(label) * x."""
    return {s: a.mu[s]._times_col for s in a.alphabet}


def _row_automaton(a: WeightedAutomaton, tree: CoveringTree) -> WeightedAutomaton:
    """The automaton on the kept rows x_i = lambda * mu(u_i) of a row tree of a.

    lambda is e_0, the root's coordinates, mu(s) holds the coordinates of
    the steps of s from the kept rows, and gamma_i is x_i * gamma.
    """
    field, n = a.field, len(tree.vectors)
    mu = {s: DenseMatrix._from_vectors(field, tree.images[s], n) for s in a.alphabet}
    gamma = _marked(DenseMatrix._from_vectors(field, tree.vectors, a.dim)._times_col(a._raw_gamma))
    return WeightedAutomaton(field, a.alphabet, _first_unit(field, n), mu, gamma)


def right_reduce(a: WeightedAutomaton):
    """Observability reduction: the covering tree of the columns mu(w) * gamma.

    The reduced gamma is (1, 0, ..., 0), or empty when gamma is zero.
    The returned word set is suffix-closed rather than prefix-closed,
    because the tree grows words from their last letter.
    """
    field = a.field
    tree = covering_tree(field, a.dim, a._raw_gamma, _column_steps(a))
    n = len(tree.vectors)
    lam = _marked(DenseMatrix._from_vectors(field, tree.vectors, a.dim)._times_col(a._raw_lam))
    mu = {s: DenseMatrix.from_columns(field, tree.images[s], rows=n) for s in a.alphabet}
    reduced = WeightedAutomaton(field, a.alphabet, lam, mu, _first_unit(field, n))
    words = tuple(tuple(reversed(w)) for w in tree.words)
    return reduced, PrefixBasis(words, [_box(field, v) for v in tree.vectors])


def _first_unit(field: FieldSpec, n: int) -> _RawVector:
    """The raw e_0 of length n, the root's coordinates in its own tree; empty when n = 0."""
    p = field.characteristic
    if n:
        return _marked(_unit(p, n, 0))
    return _RawVector() if p else _qvector([])


def _observable(a: WeightedAutomaton) -> DenseMatrix:
    """The matrix whose rows are the kept columns mu(v_j) * gamma of a spin that keeps no coordinates.

    They span the columns mu(v) * gamma of every word v, the observable
    space, and the matrix takes a row x to the row (x * mu(v_j) * gamma)_j.
    """
    tree = covering_tree(a.field, a.dim, a._raw_gamma, _column_steps(a), Echelon(a.field, a.dim))
    return DenseMatrix._from_vectors(a.field, tree.vectors, a.dim)


def minimize(a: WeightedAutomaton) -> WeightedAutomaton:
    """Minimal automaton realizing the same series, read off the rows of its Hankel matrix.

    The Hankel matrix holds f(uv) = lambda mu(u) mu(v) gamma at row u and
    column v, and its rank is the minimal dimension.  The column pass
    keeps columns K = (mu(v_j) gamma)_j that span every column
    mu(v) gamma, with no coordinates.  The row pass spins the rows
    rho(u) = lambda mu(u) and places each by rho(u) K, the Hankel row of
    u on the columns v_j; the rows kept, and the coordinates of their
    steps, make the automaton, with gamma_i = rho(u_i) gamma.  Since
    mu(s) K = K C_s, with C_s the matrices of right_reduce, rho(u) K is
    the row that left_reduce spins on right_reduce(a), so the result is
    left_reduce(right_reduce(a)[0])[0] to the byte, without the
    coordinates of the right reduction.
    """
    columns = _observable(a)
    tree = covering_tree(a.field, columns.rows, a._raw_lam, _row_steps(a), key=columns._times_col)
    return _row_automaton(a, tree)


def direct_sum(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} and {b.field}")
    if a.alphabet != b.alphabet:
        raise ValueError("direct sum needs identical alphabets")
    field = a.field
    left, right = [0] * a.dim, [0] * b.dim
    mu = {}
    for s in a.alphabet:
        # the block rows on kernel rows over one denominator (1 over GF(p)), so no entry is boxed
        x, y = a.mu[s], b.mu[s]
        d = lcm(x._den, y._den)
        fx, fy = d // x._den, d // y._den
        rows = [[fx * c for c in r] + right for r in x._raw] + [left + [fy * c for c in r] for r in y._raw]
        mu[s] = DenseMatrix._from_raw(field, rows, a.dim + b.dim, d)
    lam, gamma = _joined(field, a._raw_lam, b._raw_lam), _joined(field, a._raw_gamma, b._raw_gamma)
    return WeightedAutomaton(field, a.alphabet, lam, mu, gamma)


def _joined(field: FieldSpec, x: list, y: list) -> _RawVector:
    """The raw vector x followed by y."""
    if field.characteristic:
        return _RawVector(x + y)
    (x, y), d = _common([x, y])
    return _qvector(x + y, d)


def scale(a: WeightedAutomaton, c) -> WeightedAutomaton:
    """Same series multiplied by the scalar c (rescales lambda)."""
    field = a.field
    p = field.characteristic
    c = _unbox(field, [c])
    lam = _scale(p, c[0], a._raw_lam)
    lam = _RawVector(lam) if p else _qvector(lam, c.den * a._raw_lam.den)
    return WeightedAutomaton(field, a.alphabet, lam, dict(a.mu), a._raw_gamma)


def equivalent(a: WeightedAutomaton, b: WeightedAutomaton) -> bool:
    """Whether two automata realize the same series (exact decision)."""
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} and {b.field}")
    if a.alphabet != b.alphabet:
        raise ValueError("equivalence needs identical alphabets")
    diff = direct_sum(a, scale(b, -1))
    # the series of diff is zero when lambda vanishes on the observable space
    return not any(_observable(diff)._times_col(diff._raw_lam))
