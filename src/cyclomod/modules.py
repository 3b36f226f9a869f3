"""Cyclic modules over a finitely generated matrix algebra.

An AlgebraAction is an ordered list of labeled generators over one
field, square matrices or permutations of the coordinates; the algebra
they generate acts on the ambient coordinate space.  Each generator
keeps one step on raw column vectors: the matrix product, or for a
permutation a gather by its index map, so no permutation matrix is
built.  orbit_basis grows the cyclic module A*g with wfa.covering_tree,
the same routine that reduces automata, stepping column vectors by the
generators: a word wa is kept exactly when applying generator a to the
vector of w leaves the span, letters tried in generator order.  The kept
words are prefix closed and their vectors are a basis of A*g.
"""

from __future__ import annotations

from typing import Sequence

from .fields import FieldSpec
from .linalg import DenseMatrix, SpanSolver, Vector, _box, _RawVector, _unbox, _unit
from .wfa import covering_tree


def _check_bijection(perm: Sequence[int], degree: int, label: str):
    if len(perm) != degree:
        raise ValueError(f"generator {label!r} has length {len(perm)}, expected {degree}")
    if not all(isinstance(i, int) for i in perm) or set(perm) != set(range(degree)):
        raise ValueError(f"generator {label!r} is not a bijection of 0..{degree - 1}")


def _gather(inverse: list):
    return lambda x: [x[i] for i in inverse]


class AlgebraAction:
    """Ordered labeled generators acting on an ambient coordinate space.

    steps maps each label to the generator's action on a column vector
    of canonical raw values: the matrix product for a generator given as
    a matrix, a gather for one given as a permutation (from_permutations).
    matrices holds every generator as a DenseMatrix; for permutations
    it is built on first access, which the pipeline never makes.
    """

    __slots__ = ("field", "dim", "labels", "steps", "_matrices")

    def __init__(self, field: FieldSpec, generators: Sequence[tuple], dim: int | None = None):
        labels = []
        matrices = {}
        for label, mat in generators:
            if label in matrices:
                raise ValueError(f"duplicate generator label {label!r}")
            if not isinstance(mat, DenseMatrix):
                mat = DenseMatrix(field, mat)
            if mat.field != field:
                raise ValueError(f"generator {label!r} lives in {mat.field}, expected {field}")
            if mat.rows != mat.cols:
                raise ValueError(f"generator {label!r} is {mat.rows}x{mat.cols}, not square")
            labels.append(label)
            matrices[label] = mat
        if not labels:
            # generator-free action: the algebra is just the scalars
            if dim is None:
                raise ValueError("an action with no generators needs an explicit dimension")
            ambient = dim
        else:
            dims = {matrices[s].rows for s in labels}
            if len(dims) != 1:
                raise ValueError(f"generators disagree on ambient dimension: {sorted(dims)}")
            ambient = dims.pop()
            if dim is not None and dim != ambient:
                raise ValueError(f"declared dimension {dim} but generators act on {ambient}")
        self._store(field, ambient, labels, {s: matrices[s]._times_col for s in labels}, matrices)

    @classmethod
    def from_permutations(cls, field: FieldSpec, generators: Sequence[tuple], dim: int) -> "AlgebraAction":
        """Generators given as index maps: perm sends basis vector i to basis vector perm[i].

        Each acts by a gather, (g x)[perm[i]] = x[i], so no dim x dim
        matrix is built.  A map that is not a bijection of 0..dim-1 is
        rejected.
        """
        steps = {}
        for label, perm in generators:
            if label in steps:
                raise ValueError(f"duplicate generator label {label!r}")
            perm = tuple(perm)
            _check_bijection(perm, dim, label)
            inverse = [0] * dim
            for i, j in enumerate(perm):
                inverse[j] = i
            steps[label] = _gather(inverse)
        action = object.__new__(cls)
        action._store(field, dim, list(steps), steps, None)
        return action

    def _store(self, field, dim, labels, steps, matrices):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_matrices", matrices)

    @property
    def matrices(self) -> dict:
        """label -> generator as a DenseMatrix; for permutations, built on first access.

        Column i is the step of the generator from the unit vector e_i.
        """
        if self._matrices is None:
            field, n = self.field, self.dim
            units = [_unit(field.characteristic, n, i) for i in range(n)]
            matrices = {
                s: DenseMatrix.from_columns(field, [_RawVector(step(e)) for e in units], rows=n)
                for s, step in self.steps.items()
            }
            object.__setattr__(self, "_matrices", matrices)
        return self._matrices

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraAction is immutable")

    def apply_word(self, word: Sequence[str], v: Vector) -> Vector:
        """First letter acts first: apply_word((a, b), v) = mu(b) mu(a) v."""
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)}, expected {self.dim}")
        x = _unbox(self.field, v)
        for letter in word:
            x = self.steps[letter](x)
        return _box(self.field, x)

    def __repr__(self) -> str:
        return f"AlgebraAction(dim={self.dim}, labels={list(self.labels)}, {self.field})"


class CyclicModule:
    """A*g with a prefix-closed word basis and restricted generator matrices.

    basis_vectors[j] is the ambient vector of basis_words[j]; the
    restricted matrix of a generator holds, in column j, the module
    coordinates of that generator applied to basis vector j.  The
    generator and the basis vectors are stored as raw values and boxed
    when first read.
    """

    __slots__ = (
        "action", "basis_words", "restricted", "_raw_generator", "_raw_vectors",
        "_generator", "_basis_vectors", "_solver",
    )

    def __init__(self, action, generator, basis_words, basis_vectors, restricted, solver):
        field = action.field
        raw = [_unbox(field, v) for v in basis_vectors]
        self._store(action, _unbox(field, generator), basis_words, raw, restricted, solver)

    @classmethod
    def _from_raw(cls, action, generator, basis_words, vectors, restricted, solver) -> "CyclicModule":
        """A module from a raw generator and raw basis vectors, without per-entry coercion."""
        m = object.__new__(cls)
        m._store(action, generator, basis_words, vectors, restricted, solver)
        return m

    def _store(self, action, generator, basis_words, vectors, restricted, solver):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "basis_words", tuple(tuple(w) for w in basis_words))
        object.__setattr__(self, "restricted", dict(restricted))
        object.__setattr__(self, "_raw_generator", _RawVector(generator))
        object.__setattr__(self, "_raw_vectors", [_RawVector(v) for v in vectors])
        object.__setattr__(self, "_generator", None)
        object.__setattr__(self, "_basis_vectors", None)
        object.__setattr__(self, "_solver", solver)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicModule is immutable")

    @property
    def generator(self) -> Vector:
        """The generator g as a tuple of FieldScalar, boxed on first use."""
        if self._generator is None:
            object.__setattr__(self, "_generator", _box(self.field, self._raw_generator))
        return self._generator

    @property
    def basis_vectors(self) -> tuple:
        """The basis vectors as tuples of FieldScalar, boxed on first use."""
        if self._basis_vectors is None:
            boxed = tuple(_box(self.field, v) for v in self._raw_vectors)
            object.__setattr__(self, "_basis_vectors", boxed)
        return self._basis_vectors

    @property
    def field(self) -> FieldSpec:
        return self.action.field

    @property
    def dim(self) -> int:
        return len(self._raw_vectors)

    def _span(self) -> SpanSolver:
        """The span of the basis vectors over the ambient space, built on first use."""
        if self._solver is None:
            solver = SpanSolver(self.field, self.action.dim)
            for v in self._raw_vectors:
                solver.add(v)
            object.__setattr__(self, "_solver", solver)
        return self._solver

    def coordinates(self, v: Vector):
        """Module coordinates of an ambient vector, or None if outside."""
        return self._span().coordinates(v)

    def contains(self, v: Vector) -> bool:
        return self._span().contains(v)

    def __repr__(self) -> str:
        return f"CyclicModule(dim={self.dim}, ambient={self.action.dim}, {self.field})"


def orbit_basis(action: AlgebraAction, g: Vector) -> CyclicModule:
    """Cyclic module generated by g under the action, by breadth-first orbit."""
    field = action.field
    g = _unbox(field, g)
    if len(g) != action.dim:
        raise ValueError(f"generator length {len(g)}, expected {action.dim}")
    tree = covering_tree(field, action.dim, g, action.steps)
    return _module_from_tree(action, g, tree, tree.vectors, tree.solver)


def _module_from_tree(action: AlgebraAction, g: list, tree, vectors, solver) -> CyclicModule:
    """The CyclicModule of a covering tree under the action's generators, or their restrictions.

    g and vectors, the ambient vectors of the tree's words, are raw;
    solver, their span over the ambient space, may be None and is then
    built on first use.
    """
    n = len(tree.words)
    field = action.field
    restricted = {s: DenseMatrix.from_columns(field, tree.images[s], rows=n) for s in action.labels}
    return CyclicModule._from_raw(action, g, tree.words, vectors, restricted, solver)


class ActionGraph:
    """Nodes and labeled edges of the generator action on a module basis."""

    __slots__ = ("node_labels", "edges")

    def __init__(self, node_labels, edges):
        object.__setattr__(self, "node_labels", tuple(node_labels))
        object.__setattr__(self, "edges", tuple(edges))

    def __setattr__(self, name, value):
        raise AttributeError("ActionGraph is immutable")


def render_vector(v: Vector, names=None) -> str:
    """Linear-combination rendering against coordinate names, or the tuple; v may be raw."""
    if names is None:
        return "(" + ", ".join(str(x) for x in v) + ")"
    if len(names) != len(v):
        raise ValueError(f"{len(names)} names for a vector of length {len(v)}")
    parts = []
    for c, name in zip(v, names):
        if not c:
            continue
        parts.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(parts) if parts else "0"


def graph_from_parts(labels, basis_vectors, restricted, names=None) -> ActionGraph:
    """One node per basis vector, one edge per nonzero restricted entry.

    An edge (j, i, label, coeff) says that the generator sends basis
    vector j to coeff times basis vector i plus terms on other nodes;
    coeff is a raw value, and the basis vectors may be raw or boxed.
    """
    node_labels = [render_vector(v, names) for v in basis_vectors]
    n = len(basis_vectors)
    edges = []
    for label in labels:
        mat = restricted[label]
        for j in range(n):
            for i in range(n):
                c = mat._raw[i][j]
                if c:
                    edges.append((j, i, label, c))
    return ActionGraph(node_labels, edges)


def action_graph(m: CyclicModule, names=None) -> ActionGraph:
    return graph_from_parts(m.action.labels, m._raw_vectors, m.restricted, names)
