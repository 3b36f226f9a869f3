"""Weighted finite automata over an exact field, and their minimization.

An automaton (lambda, mu, gamma) realizes the series
    weight(w) = lambda * mu(w_1) * ... * mu(w_k) * gamma.
covering_tree is the one routine behind minimize, equivalent and
modules.orbit_basis: from a root vector it keeps a word wa exactly when
the step of a from the vector of w is independent of the vectors kept
before it, in breadth-first order with letters tried in the given
order.  It runs on raw field values and reduces each step once.  The
kept words form a prefix-closed set whose vectors are a basis of
everything the root reaches.  Its solver is an Echelon, which only
decides independence, or a SpanSolver, the Echelon whose rows carry
their combination of the kept vectors, which also gives each dependent
step its coordinates over them from the same reduction.

minimize reads the minimal automaton off the rows of the Hankel matrix
H[u, v] = weight(uv) (Fliess 1974; Berstel and Reutenauer,
Noncommutative Rational Series, ch. 2): a spin of gamma that keeps no
coordinates, then a spin of lambda that places Hankel rows.  It is the
package's only reduction.  equivalent runs the first spin only;
direct_sum and scale build the difference it decides on.
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
    step is applied once to each kept vector and its image reduced once,
    by the solver's _place.  With a SpanSolver a kept image's column is
    the next unit vector, and any other image's is the coordinates that
    _place gives; an Echelon's _place gives none, and images stays empty.
    """
    p = field.characteristic
    if solver is None:
        solver = SpanSolver(field, length)
    coordinates = isinstance(solver, SpanSolver)
    words, vectors = [], []
    images = {label: [] for label in steps} if coordinates else {}
    place = solver._place if key is None else lambda v: solver._place(key(v))
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


def _observable(a: WeightedAutomaton) -> DenseMatrix:
    """The matrix whose rows are the kept columns mu(v_j) * gamma of a spin that keeps no coordinates.

    They span the columns mu(v) * gamma of every word v, the observable
    space, and the matrix takes a row x to the row (x * mu(v_j) * gamma)_j.
    """
    steps = {s: a.mu[s]._times_col for s in a.alphabet}
    tree = covering_tree(a.field, a.dim, a._raw_gamma, steps, Echelon(a.field, a.dim))
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
    mu(s) K = K C_s, with C_s the matrices of the right (observability)
    reduction, rho(u) K is the row that the left (reachability) reduction
    spins on the right-reduced automaton, so the result is that of right
    then left reduction to the byte, without the coordinates of the right
    reduction.  The tests check it against tests/oracles.boxed_minimize,
    those two reductions run entry by entry on FieldScalars.
    """
    field = a.field
    columns = _observable(a)
    steps = {s: a.mu[s]._times_row for s in a.alphabet}
    tree = covering_tree(field, columns.rows, a._raw_lam, steps, key=columns._times_col)
    # lambda is e_0, the root's coordinates, mu(s) holds the coordinates of
    # the steps of s from the kept rows, and gamma_i is rho(u_i) gamma
    n = len(tree.vectors)
    mu = {s: DenseMatrix._from_vectors(field, tree.images[s], n) for s in a.alphabet}
    gamma = _marked(DenseMatrix._from_vectors(field, tree.vectors, a.dim)._times_col(a._raw_gamma))
    return WeightedAutomaton(field, a.alphabet, [int(i == 0) for i in range(n)], mu, gamma)


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
