"""Ternary vectors over {0,1,x}: cube intersection and interaction classes.

A ternary vector denotes a cube, i.e. the set of binary points obtained
by expanding every ``x`` both ways. Each symbol is encoded in two bits
(0 -> 10, 1 -> 01, x -> 11) inside a doubled-width :class:`BitVector`,
so cube intersection is a single coordinatewise AND and an empty
coordinate shows up as the pair 00.

Checks, conversions and counts are mask expressions over the 2-bit
code, built on the low-bit mask ``0101...01``: a pair is ``x`` where
both of its bits are set and empty where neither is. The ``{0,1,x}``
string is rendered for display only.

Read as a base-4 digit, a symbol's code is 0 -> 2, 1 -> 1, x -> 3, so
:func:`parse_code` turns a whole symbol string into its code with one
byte translation and one ``int(digits, 4)``. :func:`parse_columns` reads
the lines of a whole table with one translation, to the complement of
each symbol's code, and one ``int(digits, 4)`` per column: the table's
transpose, which :class:`lamp.assoc.AssocTable` keeps and searches. A
:class:`TernaryVector` is built only for a row that a caller reads.
"""

from __future__ import annotations

import enum
import functools
import itertools

from .bitvec import BitVector, vand
from .errors import (
    CoordinateOutOfRange,
    EmptyIntersection,
    InvalidArgument,
    LengthMismatch,
    NotAVector,
    NotBinary,
    ParseError,
    WidthMismatch,
    ZeroLength,
)

_DEC = {0b10: "0", 0b01: "1", 0b11: "x", 0b00: "e"}  # 'e' = empty
_DROP_SYMBOLS = str.maketrans("", "", "01x")
# each symbol byte to its code as a base-4 digit, every other digit byte
# to a non-digit, so that isdigit() accepts exactly the symbol strings
_CODE = bytes.maketrans(b"0123456789xX", b"21!!!!!!!!33")
_COLUMN = bytes.maketrans(b"0123456789xX", b"12!!!!!!!!00")  # 3 minus _CODE's digit


@functools.cache
def low_bits(n: int) -> int:
    """0101...01 over 2n bits: the low bit of every pair."""
    return ((1 << 2 * n) - 1) // 3


def _empty_pairs(enc: BitVector) -> int:
    """The low bit of every 00 pair, all other bits clear."""
    return ~(enc.value | (enc.value >> 1)) & low_bits(enc.n // 2)


def parse_code(text: str) -> tuple[int, int]:
    """(n, 2n-bit code) of a {0,1,x} string; X accepted, underscores ignored."""
    digits = text.encode("utf-8", "surrogatepass").translate(_CODE, b"_")
    if digits.isdigit():
        return len(digits), int(digits, 4)
    s = text.replace("_", "").lower()
    if not s:
        raise ZeroLength("empty vector literal")
    bad = s.translate(_DROP_SYMBOLS)
    raise ParseError(f"invalid symbol {bad[0]!r} in vector literal {text!r}")


def parse_columns(text: str) -> tuple[list[int], int, bool] | None:
    """(columns, rows, whether some symbol is x) of the lines of ``text``,
    split at ``\\n`` only, when each is a {0,1,x} string of n symbols,
    read as :func:`parse_code` reads it; None when some line is not, and
    :func:`parse_code` then names the fault.

    The text is translated to one base-4 digit per symbol, the complement
    of its code (0 -> 01, 1 -> 10, x -> 00), and column j is
    ``int(digits[j::n+1], 4)``: its pair r, counted from the most
    significant, is that of line r's symbol j. The whole text is checked
    at once: a newline must be at every (n+1)-th byte, and ``int`` refuses
    any other byte inside a column. At a column's ends it would allow a
    sign or a space, so the first and the last line are checked for digits.
    """
    digits = text.encode("utf-8", "surrogatepass").translate(_COLUMN, b"_")
    n = digits.find(b"\n") % (len(digits) + 1)  # the whole text when it has one line
    rows, rest = divmod(len(digits) + 1, n + 1)
    if (not n or rest or digits[n::n + 1].strip(b"\n")
            or not (digits[:n] + digits[-n:]).isdigit()):
        return None
    try:
        return [int(digits[j::n + 1], 4) for j in range(n)], rows, b"0" in digits
    except ValueError:
        return None


def check_codes(codes: list[int], n: int) -> None:
    """Raise unless every item of ``codes`` is the int code of an
    n-symbol vector.

    A code is wrong if it is wider than 2n bits or holds a 00 pair; a
    narrower code has 00 pairs on its left.
    """
    kinds = set(map(type, codes))
    if kinds - {int}:
        kind = next(k for k in kinds if k is not int)
        raise NotAVector(f"expected a row code, got {kind.__name__}")
    if n < 1:
        raise ZeroLength(f"table width must be positive, got {n}")
    low = low_bits(n)
    bad = next((c for c in codes if c >> 2 * n or ~(c | c >> 1) & low), None)
    if bad is None:
        return
    if bad < 0:
        raise InvalidArgument(f"row code {bad} is negative")
    width = (bad.bit_length() + 1) // 2
    if width != n:
        raise WidthMismatch(f"row width {width} differs from table width {n}")
    TernaryVector(BitVector(2 * n, bad))  # names the leftmost empty coordinate


def any_x(codes: list[int], n: int) -> bool:
    """Whether some n-symbol code holds an x, an 11 pair."""
    low = low_bits(n)
    return any(c & c >> 1 & low for c in codes)


def _pair(enc: BitVector, i: int) -> int:
    return (enc.value >> (enc.n - 2 * i)) & 0b11


def _render(enc: BitVector) -> str:
    return "".join(_DEC[_pair(enc, i)] for i in range(1, enc.n // 2 + 1))


class TernaryVector:
    """Immutable n-symbol vector over {0,1,x}."""

    __slots__ = ("n", "enc")

    def __init__(self, enc: BitVector):
        if enc.n % 2 != 0:
            raise InvalidArgument("encoded width must be even")
        object.__setattr__(self, "n", enc.n // 2)
        object.__setattr__(self, "enc", enc)
        empty = _empty_pairs(enc)
        if empty:
            i = self.n - (empty.bit_length() - 1) // 2  # the leftmost 00 pair
            raise ParseError(f"empty symbol at coordinate {i} not allowed")

    def __setattr__(self, name, _value):
        raise AttributeError(f"TernaryVector is immutable, cannot set {name!r}")

    @classmethod
    def _of_code(cls, code: int, n: int) -> "TernaryVector":
        """The vector of a 2n-bit code known to hold no empty pair."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "enc", BitVector(2 * n, code))
        return v

    @classmethod
    def parse(cls, text: str) -> "TernaryVector":
        """Parse a {0,1,x} string (X accepted); underscores ignored."""
        n, code = parse_code(text)
        return cls._of_code(code, n)

    @classmethod
    def from_bitvector(cls, v: BitVector) -> "TernaryVector":
        # binary digits read in base 4 land on the low bit of each pair
        ones = int(format(v.value, "b"), 4)
        return cls._of_code(ones | (low_bits(v.n) ^ ones) << 1, v.n)

    def symbol(self, i: int) -> str:
        """Symbol at coordinate i, 1-based from the left."""
        if not 1 <= i <= self.n:
            raise CoordinateOutOfRange(f"coordinate {i} outside 1..{self.n}")
        return _DEC[_pair(self.enc, i)]

    def symbols(self) -> str:
        return _render(self.enc)

    @property
    def is_binary(self) -> bool:
        return card_x(self) == 0

    def to_bitvector(self) -> BitVector:
        if not self.is_binary:
            raise NotBinary("vector contains x, not a binary vector")
        # the low bit of each pair is every second binary digit of the code
        return BitVector(self.n, int(format(self.enc.value, f"0{self.enc.n}b")[1::2], 2))

    def points(self):
        """Yield every binary point covered by this cube.

        Expands each ``x`` both ways: 2^card_x points, so use on small
        vectors only.
        """
        choices = [(0, 1) if s == "x" else (int(s),) for s in self.symbols()]
        for bits in itertools.product(*choices):
            yield BitVector.from_bits(bits)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, TernaryVector) and self.enc == other.enc

    def __hash__(self) -> int:
        return hash(("t", self.enc))

    def __repr__(self) -> str:
        return f"TernaryVector('{self.symbols()}')"


class IntersectionResult:
    """Coordinatewise meet of two cubes; may contain empty coordinates."""

    __slots__ = ("n", "enc")

    def __init__(self, enc: BitVector):
        self.n = enc.n // 2
        self.enc = enc

    @property
    def is_empty(self) -> bool:
        return bool(_empty_pairs(self.enc))

    def empty_coords(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if _pair(self.enc, i) == 0b00]

    def symbols(self) -> str:
        return _render(self.enc)

    def to_ternary(self) -> TernaryVector:
        if self.is_empty:
            raise EmptyIntersection("empty intersection has no ternary form")
        return TernaryVector(self.enc)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntersectionResult) and self.enc == other.enc

    def __repr__(self) -> str:
        return f"IntersectionResult('{self.symbols()}')"


class InteractionClass(enum.Enum):
    """The five set-theoretic ways two cubes can interact."""

    EQUAL = "equal"
    QUERY_INSIDE_ASSOCIATOR = "query-inside-associator"  # m strictly inside a
    ASSOCIATOR_INSIDE_QUERY = "associator-inside-query"  # a strictly inside m
    OVERLAP = "overlap"  # nonempty meet, no containment
    DISJOINT = "disjoint"  # empty meet


def intersect(m: TernaryVector, a: TernaryVector) -> IntersectionResult:
    """Cube intersection: s&s=s, x&s=s, 0&1=empty, coordinatewise."""
    if m.n != a.n:
        raise LengthMismatch(f"widths differ: {m.n} vs {a.n}")
    return IntersectionResult(vand(m.enc, a.enc))


def card_x(v: TernaryVector) -> int:
    """Number of x symbols; the cube covers 2^card_x points."""
    code = v.enc.value
    return (code & code >> 1 & low_bits(v.n)).bit_count()


def empty_coord_count(m: TernaryVector, a: TernaryVector) -> int:
    """Number of coordinates whose intersection is empty."""
    return _empty_pairs(intersect(m, a).enc).bit_count()


def classify_interaction(m: TernaryVector, a: TernaryVector) -> InteractionClass:
    """Classify the pair by its intersection and containment relations."""
    r = intersect(m, a)
    if r.is_empty:
        return InteractionClass.DISJOINT
    if m == a:
        return InteractionClass.EQUAL
    if r.enc == m.enc:
        return InteractionClass.QUERY_INSIDE_ASSOCIATOR
    if r.enc == a.enc:
        return InteractionClass.ASSOCIATOR_INSIDE_QUERY
    return InteractionClass.OVERLAP
