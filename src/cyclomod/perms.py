"""Permutation modules over Q: presentations, Cayley-style translation actions.

A presentation is a degree and an ordered list of labeled generator
permutations given as index arrays; in its action a permutation p sends
basis vector i to basis vector p[i] and is applied as a gather, with no
matrix built.  Its matrix, built only when AlgebraAction.matrices is
read, has a 1 in row p[i] of column i, so matrices compose the same way
the permutations do.
"""

from __future__ import annotations

from typing import Sequence

from .fields import QQ
from .modules import AlgebraAction, CyclicModule, _check_bijection, orbit_basis


class PermutationPresentation:
    """Labeled generator permutations of {0..degree-1}, order preserved."""

    __slots__ = ("degree", "labels", "generators")

    def __init__(self, degree: int, generators: Sequence[tuple]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        labels = []
        perms = {}
        for label, perm in generators:
            if label in perms:
                raise ValueError(f"duplicate generator label {label!r}")
            perm = tuple(int(i) for i in perm)
            _check_bijection(perm, degree, label)
            labels.append(label)
            perms[label] = perm
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "generators", perms)

    def __setattr__(self, name, value):
        raise AttributeError("PermutationPresentation is immutable")

    def action(self) -> AlgebraAction:
        """The generators acting on Q^degree, each by its index map."""
        return AlgebraAction.from_permutations(
            QQ, [(label, self.generators[label]) for label in self.labels], self.degree
        )

    def __repr__(self) -> str:
        return f"PermutationPresentation(degree={self.degree}, labels={list(self.labels)})"


def permutation_module(p: PermutationPresentation, g: Sequence) -> CyclicModule:
    """Cyclic Q-module generated by g under the presentation's action."""
    if len(g) != p.degree:
        raise ValueError(f"generator vector length {len(g)}, expected {p.degree}")
    return orbit_basis(p.action(), g)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple:
    """(p o q)[i] = p[q[i]]: apply q first, then p."""
    if len(p) != len(q):
        raise ValueError("cannot compose permutations of different lengths")
    return tuple(p[q[i]] for i in range(len(q)))


def left_translation_action(
    group_elements: Sequence[Sequence[int]], generators: Sequence[int]
) -> PermutationPresentation:
    """Left translation by chosen elements on the element list itself.

    group_elements are permutations of one common degree; generators are
    indices into that list.  Every product generator o element must land
    back in the list, otherwise the failing pair is reported.
    """
    elements = [tuple(int(i) for i in e) for e in group_elements]
    if not elements:
        raise ValueError("the element list is empty")
    degree = len(elements[0])
    for k, e in enumerate(elements):
        _check_bijection(e, degree, f"element {k}")
    if len(set(elements)) != len(elements):
        raise ValueError("the element list has duplicates")
    index = {e: i for i, e in enumerate(elements)}
    translation_pairs = []
    for pos, gi in enumerate(generators):
        if not 0 <= gi < len(elements):
            raise ValueError(f"generator index {gi} out of range")
        gen = elements[gi]
        moved = []
        for e in elements:
            product = compose(gen, e)
            if product not in index:
                raise ValueError(
                    f"closure violation: element {gi} times element {index[e]} "
                    f"gives {list(product)}, which is not in the list"
                )
            moved.append(index[product])
        translation_pairs.append((f"s{pos + 1}", tuple(moved)))
    return PermutationPresentation(len(elements), translation_pairs)


def symmetric_group(k: int) -> list:
    """All permutations of {0..k-1} in lexicographic order."""
    import itertools

    if k < 1:
        raise ValueError("need at least one point")
    return [tuple(p) for p in itertools.permutations(range(k))]
