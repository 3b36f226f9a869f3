"""Permutation modules over Q: presentations and the cyclic modules they act on.

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
