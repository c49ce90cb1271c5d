"""Fixed-width binary logic vectors and the five machine primitives.

A :class:`BitVector` is an immutable sequence of n binary coordinates,
numbered 1..n left to right exactly as printed. The module exposes the
five operations every sequencer implements in hardware -- ``vand``,
``vor``, ``vnot``, ``vxor``, ``sls`` -- plus the OR-fold ``orf`` that
collapses a vector to a single decision bit.

Internally a vector is one Python int with coordinate 1 in the most
significant position; any bits beyond the declared width are masked on
every operation so padding can never leak into a result.
"""

from __future__ import annotations

from .errors import CoordinateOutOfRange, LengthMismatch, ParseError, ZeroLength


class BitVector:
    """Immutable n-coordinate binary vector."""

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        if n <= 0:
            raise ZeroLength(f"vector width must be positive, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value & ((1 << n) - 1))

    def __setattr__(self, name, _value):
        raise AttributeError(f"BitVector is immutable, cannot set {name!r}")

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse a {0,1} string; underscores are ignored."""
        s = text.replace("_", "")
        if not s:
            raise ZeroLength("empty vector literal")
        if set(s) - {"0", "1"}:
            bad = next(c for c in s if c not in "01")
            raise ParseError(f"invalid bit {bad!r} in vector literal {text!r}")
        return cls(len(s), int(s, 2))

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        """Build from an iterable of 0/1 ints, coordinate 1 first."""
        bits = list(bits)
        v = 0
        for b in bits:
            v = (v << 1) | (1 if b else 0)
        return cls(len(bits), v)

    def bit(self, i: int) -> int:
        """Coordinate i, 1-based from the left."""
        if not 1 <= i <= self.n:
            raise CoordinateOutOfRange(f"coordinate {i} outside 1..{self.n}")
        return (self.value >> (self.n - i)) & 1

    def bits(self) -> list[int]:
        return [self.bit(i) for i in range(1, self.n + 1)]

    def ones_count(self) -> int:
        return self.value.bit_count()

    def is_prefix(self) -> bool:
        """True when all ones are flushed left (no 0 before a 1)."""
        k = self.value.bit_count()
        return self.value == (((1 << k) - 1) << (self.n - k))

    def to01(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __repr__(self) -> str:
        return f"BitVector('{self.to01()}')"

    # Operator sugar; the module-level functions are the primary API.
    def __and__(self, other):
        return vand(self, other)

    def __or__(self, other):
        return vor(self, other)

    def __xor__(self, other):
        return vxor(self, other)

    def __invert__(self):
        return vnot(self)


def _check_len(a: BitVector, b: BitVector) -> None:
    if a.n != b.n:
        raise LengthMismatch(f"widths differ: {a.n} vs {b.n}")


def vand(a: BitVector, b: BitVector) -> BitVector:
    """Coordinatewise conjunction."""
    _check_len(a, b)
    return BitVector(a.n, a.value & b.value)


def vor(a: BitVector, b: BitVector) -> BitVector:
    """Coordinatewise disjunction."""
    _check_len(a, b)
    return BitVector(a.n, a.value | b.value)


def vxor(a: BitVector, b: BitVector) -> BitVector:
    """Coordinatewise exclusive or."""
    _check_len(a, b)
    return BitVector(a.n, a.value ^ b.value)


def vnot(a: BitVector) -> BitVector:
    """Coordinatewise complement (width-masked)."""
    return BitVector(a.n, ~a.value)


def sls(a: BitVector) -> BitVector:
    """Shift-left crowding: compact all ones against the left edge.

    Returns the prefix vector 1^k 0^(n-k) where k is the number of ones
    in ``a``. The hardware register does this in one clock cycle; the
    contract here is only the output, so counting internally is fine.
    """
    k = a.value.bit_count()
    return BitVector(a.n, ((1 << k) - 1) << (a.n - k))


def orf(a: BitVector) -> int:
    """Devectorization: OR of all coordinates, as a plain 0/1 int."""
    return 1 if a.value else 0
