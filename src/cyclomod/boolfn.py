"""Boolean functions in algebraic normal form and the variable-swap action.

A function of n inputs is a GF(2) vector of 2^n ANF coefficients, one
per monomial, monomials ordered by their variable bitmask (so 1, x1,
x2, x1*x2, x3, ...).  Adjacent transpositions of variables permute the
monomials, acting over GF(2) as index maps; decompose_boolean builds the
cyclic module generated by a function under all of them and runs the
complete decomposition.
"""

from __future__ import annotations

from typing import Sequence

from .decompose import DecompositionReport, complete_decomposition
from .fields import GF2
from .modules import AlgebraAction, orbit_basis

MAX_VARIABLES = 12


class ParseError(ValueError):
    """Input rejection with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BooleanFunction:
    """ANF coefficient vector of a function of n boolean inputs."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[int]):
        if n < 1:
            raise ValueError("a boolean function needs at least one input")
        if len(coeffs) != 1 << n:
            raise ValueError(f"expected {1 << n} coefficients, got {len(coeffs)}")
        cleaned = []
        for c in coeffs:
            c = int(c) if not hasattr(c, "value") else int(c.value)
            if c not in (0, 1):
                raise ValueError("ANF coefficients must be 0 or 1")
            cleaned.append(c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("BooleanFunction is immutable")

    @classmethod
    def from_indices(cls, n: int, indices) -> "BooleanFunction":
        return cls(n, [1 if i in set(indices) else 0 for i in range(1 << n)])

    def vector(self):
        """The coefficients as GF(2) scalars, ready for orbit_basis."""
        return tuple(GF2.scalar(c) for c in self.coeffs)

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def evaluate(self, assignment: int) -> int:
        """Value on the inputs encoded as a bitmask (bit k = value of x_{k+1})."""
        if not 0 <= assignment < (1 << self.n):
            raise ValueError(f"assignment {assignment} out of range for {self.n} inputs")
        val = 0
        for mono in self.support():
            if mono & assignment == mono:
                val ^= 1
        return val

    def anf(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(monomial_name(m) for m in self.support())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and other.n == self.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"BooleanFunction({self.n}, {self.anf()!r})"


def monomial_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"x{k + 1}" for k in range(mask.bit_length()) if mask >> k & 1)


def monomial_names(n: int) -> list:
    """monomial_name of every mask below 2^n, each built on the name of the mask without its top variable."""
    names = ["1"]
    for k in range(n):
        top = f"x{k + 1}"
        names += [top] + [f"{name}*{top}" for name in names[1:]]
    return names


def parse_anf(text: str, n: int) -> BooleanFunction:
    """Strict ANF parser: terms joined by +, each a product of variables
    with * or juxtaposition, or a standalone constant 0 or 1."""
    if n < 1:
        raise ValueError("a boolean function needs at least one input")
    coeffs = [0] * (1 << n)
    i = 0
    length = len(text)

    def skip_space(k):
        while k < length and text[k].isspace():
            k += 1
        return k

    i = skip_space(i)
    if i == length:
        raise ParseError("empty input", i)
    while True:
        term_start = i
        mask = None
        constant = None
        while True:
            i = skip_space(i)
            if i < length and text[i] in "01":
                if mask is not None or constant is not None:
                    raise ParseError("constants must stand alone in a term", i)
                constant = int(text[i])
                i += 1
            elif i < length and text[i] == "x":
                if constant is not None:
                    raise ParseError("constants must stand alone in a term", i)
                var_pos = i
                i += 1
                digits = ""
                while i < length and text[i].isdigit():
                    digits += text[i]
                    i += 1
                if not digits:
                    raise ParseError("variable needs an index", var_pos)
                index = int(digits)
                if not 1 <= index <= n:
                    raise ParseError(f"variable x{index} out of range 1..{n}", var_pos)
                mask = (mask or 0) | (1 << (index - 1))
            else:
                where = i if i < length else length
                raise ParseError("expected a variable or constant", where)
            i = skip_space(i)
            if i < length and text[i] == "*":
                i += 1
                continue
            if i < length and text[i] == "x":
                # juxtaposition: x1x2 means x1*x2
                continue
            break
        if constant is not None:
            if constant == 1:
                coeffs[0] ^= 1
        elif mask is not None:
            coeffs[mask] ^= 1
        else:
            raise ParseError("empty term", term_start)
        if i == length:
            break
        if text[i] != "+":
            raise ParseError(f"unexpected character {text[i]!r}", i)
        plus_pos = i
        i += 1
        i = skip_space(i)
        if i == length:
            raise ParseError("trailing +", plus_pos)
    return BooleanFunction(n, coeffs)


def _bit_swap(mask: int, i: int, j: int) -> int:
    bi = mask >> i & 1
    bj = mask >> j & 1
    if bi == bj:
        return mask
    return mask ^ ((1 << i) | (1 << j))


def sn_action(n: int) -> AlgebraAction:
    """Adjacent variable swaps s1..s{n-1} as permutations of the 2^n monomials.

    Each swap is an index map applied as a gather, so a step costs 2^n
    and no 2^n x 2^n matrix is built (unless .matrices is read).
    MAX_VARIABLES bounds n, and with it the ambient dimension 2^n of the
    vectors that orbit_basis steps and reduces.
    """
    if n < 2:
        raise ValueError("the swap action needs at least two variables")
    if n > MAX_VARIABLES:
        raise ValueError(f"{n} variables means {1 << n} monomials, over the cap of {MAX_VARIABLES} variables")
    size = 1 << n
    generators = [(f"s{k}", [_bit_swap(m, k - 1, k) for m in range(size)]) for k in range(1, n)]
    return AlgebraAction.from_permutations(GF2, generators, size)


def decompose_boolean(f: BooleanFunction) -> DecompositionReport:
    """Complete decomposition of the cyclic module generated by f."""
    module = orbit_basis(sn_action(f.n), f.coeffs)
    return complete_decomposition(module)
