"""Exact scalar arithmetic over GF(p) and Q.

Scalars are thin immutable wrappers around a canonical representative:
an int in [0, p) for prime characteristic, a reduced Fraction for
characteristic 0.  All arithmetic stays exact; nothing here ever touches
floating point.

A FieldScalar is made only where input is parsed or a public accessor
is read.  Everything the package's modules pass to each other stays
raw, the canonical representative alone; the operators here serve
callers outside that pipeline.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A base field: GF(p) for prime p, or Q for characteristic 0."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        if characteristic != 0:
            if characteristic > MAX_PRIME:
                raise ValueError(f"characteristic {characteristic} exceeds 2^31")
            if not _is_prime(characteristic):
                raise ValueError(f"characteristic {characteristic} is not prime")
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def scalar(self, value) -> "FieldScalar":
        """Coerce an int, Fraction, decimal string or FieldScalar into this field."""
        if isinstance(value, FieldScalar):
            if value.field != self:
                raise ValueError(f"scalar belongs to {value.field}, not {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        p = self.characteristic
        if p:
            if not isinstance(value, int):
                raise TypeError(f"GF({p}) takes int values, got {type(value).__name__}")
            return FieldScalar(self, value % p)
        if isinstance(value, int):
            return FieldScalar(self, Fraction(value))
        if isinstance(value, Fraction):
            return FieldScalar(self, value)
        raise TypeError(f"cannot coerce {type(value).__name__} into {self}")

    def parse(self, text: str) -> "FieldScalar":
        """Parse a decimal scalar string, "3" or "-7/2"."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar literal {text!r}: {exc}") from None
        p = self.characteristic
        if p == 0:
            return FieldScalar(self, value)
        if value.denominator % p == 0:
            raise ValueError(f"bad scalar literal {text!r}: denominator vanishes in GF({p})")
        inv = pow(value.denominator, -1, p)
        return FieldScalar(self, value.numerator * inv % p)

    def zero(self) -> "FieldScalar":
        return FieldScalar(self, 0 if self.characteristic else Fraction(0))

    def one(self) -> "FieldScalar":
        return FieldScalar(self, 1 if self.characteristic else Fraction(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.characteristic))

    def __repr__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


class FieldScalar:
    """One field element; supports the usual operators against scalars and ints."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldScalar is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise ValueError(f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value + other.value
        return FieldScalar(self.field, v % p if p else v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value - other.value
        return FieldScalar(self.field, v % p if p else v)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.characteristic
        v = self.value * other.value
        return FieldScalar(self.field, v % p if p else v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        p = self.field.characteristic
        return FieldScalar(self.field, -self.value % p if p else -self.value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        p = self.field.characteristic
        if p:
            return FieldScalar(self.field, pow(self.value, exponent, p))
        return FieldScalar(self.field, self.value**exponent)

    def inverse(self) -> "FieldScalar":
        if not self:
            raise ZeroDivisionError(f"inverting zero in {self.field}")
        p = self.field.characteristic
        if p:
            return FieldScalar(self.field, pow(self.value, -1, p))
        return FieldScalar(self.field, 1 / self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return other.field == self.field and other.value == self.value

    def __hash__(self) -> int:
        return hash((self.field.characteristic, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.field}({self.value})"


QQ = FieldSpec(0)
GF2 = FieldSpec(2)


def gf(p: int) -> FieldSpec:
    """The prime field GF(p)."""
    spec = FieldSpec(p)
    if spec.is_rational:
        raise ValueError("gf() needs a prime; use QQ for characteristic 0")
    return spec
