"""Weighted finite automata over an exact field, and their minimization.

An automaton (lambda, mu, gamma) realizes the series
    weight(w) = lambda * mu(w_1) * ... * mu(w_k) * gamma.
covering_tree is the one routine behind every reduction here and behind
modules.orbit_basis: from a root vector it keeps a word wa exactly when
step(a, vector of w) is independent of the vectors kept before it, in
breadth-first order with letters tried in the given order.  The kept
words form a prefix-closed set whose vectors are a basis of everything
the root reaches.  left_reduce runs it on the row vectors lambda*mu(w)
(reachability), right_reduce on the column vectors mu(w)*gamma
(observability, words read backwards), and minimize chains the two,
which is dimension minimal for series over a field.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import (
    DenseMatrix,
    SpanSolver,
    Vector,
    vec_dot,
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

    def is_prefix_closed(self) -> bool:
        return all(w[:-1] in self.word_to_index for w in self.words if w)


class WeightedAutomaton:
    """(lambda, mu, gamma) over one field, alphabet order fixed."""

    __slots__ = ("field", "alphabet", "dim", "lam", "mu", "gamma")

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
        lam = tuple(field.scalar(x) for x in lam)
        gamma = tuple(field.scalar(x) for x in gamma)
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
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mats)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedAutomaton is immutable")

    @classmethod
    def zero(cls, field: FieldSpec, alphabet: Sequence[str]) -> "WeightedAutomaton":
        return cls(field, alphabet, (), {a: DenseMatrix.zeros(field, 0, 0) for a in alphabet}, ())

    def weight(self, word: Iterable[str]):
        """Series coefficient of the given word (any iterable of labels)."""
        v = self.lam
        for letter in word:
            if letter not in self.mu:
                raise ValueError(f"letter {letter!r} is not in the alphabet")
            v = self.mu[letter].apply_row(v)
        if self.dim == 0:
            return self.field.zero()
        return vec_dot(v, self.gamma)

    def __repr__(self) -> str:
        return f"WeightedAutomaton(dim={self.dim}, alphabet={list(self.alphabet)}, {self.field})"


class CoveringTree(NamedTuple):
    """Kept words and vectors, their span, and each label's step in coordinates.

    images[label][i] holds the coordinates, over the kept vectors, of
    step(label, vectors[i]).
    """

    words: list
    vectors: list
    solver: SpanSolver
    images: dict


def covering_tree(
    field: FieldSpec,
    length: int,
    root: Vector,
    labels: Sequence,
    step: Callable[[object, Vector], Vector],
) -> CoveringTree:
    """Breadth-first covering tree of root under step; empty when root is zero.

    Each label's step is applied once to each kept vector; the images
    are rewritten in coordinates once the tree is complete.
    """
    solver = SpanSolver(field, length)
    words, vectors = [], []
    successors = {label: [] for label in labels}
    if solver.add(root):
        words.append(())
        vectors.append(root)
    # kept vectors are appended behind the one being expanded, so walking
    # the list in index order is the breadth-first queue
    i = 0
    while i < len(vectors):
        for label in labels:
            v = step(label, vectors[i])
            if solver.add(v):
                words.append(words[i] + (label,))
                vectors.append(v)
            successors[label].append(v)
        i += 1
    images = {}
    for label in labels:
        images[label] = [solver.coordinates(v) for v in successors[label]]
        if any(coords is None for coords in images[label]):
            raise RuntimeError("covering tree failed to span its own successors")
    return CoveringTree(words, vectors, solver, images)


def left_reduce(a: WeightedAutomaton):
    """Reachability reduction; returns (reduced automaton, PrefixBasis).

    The reduced lambda is (1, 0, ..., 0) whenever lambda is nonzero,
    because the root vector of the covering tree is lambda itself.
    """
    tree = covering_tree(a.field, a.dim, a.lam, a.alphabet, lambda s, v: a.mu[s].apply_row(v))
    n = len(tree.vectors)
    mu = {s: DenseMatrix(a.field, tree.images[s], cols=n) for s in a.alphabet}
    gamma = tuple(vec_dot(v, a.gamma) for v in tree.vectors)
    reduced = WeightedAutomaton(a.field, a.alphabet, tree.solver.coordinates(a.lam), mu, gamma)
    return reduced, PrefixBasis(tree.words, tree.vectors)


def right_reduce(a: WeightedAutomaton):
    """Observability reduction: the covering tree of the columns mu(w) * gamma.

    The returned word set is suffix-closed rather than prefix-closed,
    because the tree grows words from their last letter.
    """
    tree = covering_tree(a.field, a.dim, a.gamma, a.alphabet, lambda s, v: a.mu[s].apply(v))
    n = len(tree.vectors)
    lam = tuple(vec_dot(v, a.lam) for v in tree.vectors)
    mu = {s: DenseMatrix.from_columns(a.field, tree.images[s], rows=n) for s in a.alphabet}
    reduced = WeightedAutomaton(a.field, a.alphabet, lam, mu, tree.solver.coordinates(a.gamma))
    words = tuple(tuple(reversed(w)) for w in tree.words)
    return reduced, PrefixBasis(words, tree.vectors)


def minimize(a: WeightedAutomaton) -> WeightedAutomaton:
    """Minimal automaton realizing the same series (right then left reduction)."""
    b, _ = right_reduce(a)
    c, _ = left_reduce(b)
    return c


def direct_sum(a: WeightedAutomaton, b: WeightedAutomaton) -> WeightedAutomaton:
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} and {b.field}")
    if a.alphabet != b.alphabet:
        raise ValueError("direct sum needs identical alphabets")
    field = a.field
    zero = field.zero()
    n, m = a.dim, b.dim
    mu = {}
    for s in a.alphabet:
        rows = []
        for i in range(n):
            rows.append(list(a.mu[s].row(i)) + [zero] * m)
        for i in range(m):
            rows.append([zero] * n + list(b.mu[s].row(i)))
        mu[s] = DenseMatrix(field, rows, cols=n + m)
    return WeightedAutomaton(
        field, a.alphabet, a.lam + b.lam, mu, a.gamma + b.gamma
    )


def scale(a: WeightedAutomaton, c) -> WeightedAutomaton:
    """Same series multiplied by the scalar c (rescales lambda)."""
    c = a.field.scalar(c)
    return WeightedAutomaton(
        a.field, a.alphabet, tuple(c * x for x in a.lam), dict(a.mu), a.gamma
    )


def equivalent(a: WeightedAutomaton, b: WeightedAutomaton) -> bool:
    """Whether two automata realize the same series (exact decision)."""
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} and {b.field}")
    if a.alphabet != b.alphabet:
        raise ValueError("equivalence needs identical alphabets")
    diff = direct_sum(a, scale(b, -1))
    return minimize(diff).dim == 0
