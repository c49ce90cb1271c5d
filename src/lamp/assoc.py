"""Associative tables and the search / recognition / decision procedures.

A table is an ordered list of associator rows, optionally labeled, held
by columns (:class:`AssocTable`): one int per coordinate, whose pair r
holds row r's symbol. :func:`load_table` reads a whole table text in one
pass, with one byte translation for all rows and one base-4 ``int`` per
column (:func:`lamp.ternary.parse_columns`), and builds no object per
row; it strips the lines one by one only when some line is not a row as
it stands, and reads them one by one only to name the first bad line.

A query is answered word-parallel, as an associative memory answers it:
each operation acts on one coordinate of every row at once, as in the
bit-serial, word-parallel search and min search of Foster's
*Content-Addressable Parallel Processors* (1976). For each coordinate
the probe m does not leave open, the rows whose symbol conflicts with
m's (a 1 against a 0) form one bit plane. A carry-save adder tree, the
Harley-Seal population count, adds those planes into about log2 n
counter planes that hold each row's count e of empty coordinates, and a
min search from the top counter plane down gives the rows with the
least e. On binary rows e is k = popcount(m XOR a), the quality index,
so both modes share this search. When some rows of a ternary table have
e = 0, the same count and min search run on them over p, the x of the
row where m has none, and q, the x of m where the row has none, and rank
them by (min(p, q), max(p, q)), the order of :func:`lamp.quality.arith_keys`.
``rank`` repeats the min search on the rows left, and ``per_row`` reads
every row's counts back from the counter planes.

The paper's and/xor/or selection of the winner is
:func:`lamp.quality.decide`, and the grid machine runs it
(:func:`lamp.sim.builtin_query_program`). The mode only picks the score
a user sees: a :class:`QualityIndex` for binary rows, a Fraction
:class:`QualityScoreNorm` for ternary ones, built only for a score that
is read. All optimal rows are reported, in ascending row order; row
indices in results are 1-based.

Table file format (UTF-8 text):
  * ``#`` starts a comment to end of line, blank lines are ignored;
  * each remaining line is either a bare vector or ``label<TAB>vector``;
  * vector symbols are {0,1,x} and all rows must share one width;
  * labels, when present, must be unique.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, repeat
from operator import not_, or_
from typing import Callable, Iterable, Optional, Union

from .bitvec import BitVector
from .errors import (
    EmptyTable,
    InvalidArgument,
    LengthMismatch,
    ModeMismatch,
    NotAVector,
    ParseError,
    WidthMismatch,
    ZeroLength,
)
from .quality import (
    QualityIndex,
    QualityScoreNorm,
    _score_norm,
    choose_best,  # unused here; bench/tracer.py hooks lamp.assoc.choose_best
    criterion_vector,  # unused here; bench/tracer.py hooks lamp.assoc.criterion_vector
    quality_arith,
    quality_index,
)
from .ternary import (
    TernaryVector,
    any_x,
    check_codes,
    low_bits,
    parse_code,
    parse_columns,
)

RowScore = Union[QualityIndex, QualityScoreNorm]


class Mode(enum.Enum):
    BINARY = "binary"
    TERNARY = "ternary"


class AssocTable:
    """Matrix of associators with optional per-row labels, held by columns.

    Column j is an int of one 2-bit pair per row, the first row most
    significant. Pair r holds the bits of row r's symbol j that a probe
    symbol can conflict with: 01 for a 0, which conflicts with a probe 1,
    10 for a 1, which conflicts with a probe 0, and 00 for an x; it is
    the complement of the symbol's 2-bit code (:mod:`lamp.ternary`). The
    table keeps each column in two: ``_zeros[j]``, its pairs' low bits,
    and ``_ones[j]``, their high bits. ``codes`` and ``rows`` are built
    from them on each read. The mode is decided once, at construction;
    the rows must not change afterwards.
    """

    def __init__(self, name: str, cols: int, codes: list[int], labels=None):
        if not codes:
            raise EmptyTable(f"table {name!r} has no rows")
        labels = _checked_labels(labels, len(codes), lambda: check_codes(codes, cols))
        self._set(name, _flip(codes, cols), labels, any_x(codes, cols))

    def _set(self, name, columns, labels, ternary) -> None:
        self.name, self.cols, self.labels = name, len(columns), labels
        low = low_bits(len(labels))
        self._zeros = [column & low for column in columns]
        self._ones = columns  # their high bits, cut in place so that no third list is held
        for j, zeros in enumerate(self._zeros):
            columns[j] ^= zeros
        self.mode = Mode.TERNARY if ternary else Mode.BINARY
        self._search = None  # the last query's, which rank reuses for the same probe

    @classmethod
    def from_rows(cls, rows, labels=None, name="table") -> "AssocTable":
        """Build from TernaryVector/BitVector rows or vector strings.

        BitVectors of one width are transposed to columns from their bytes,
        with no TernaryVector or code built for a row; other rows go through
        their codes, whose checks name the first bad row.
        """
        rows = list(rows)
        if not rows:
            raise EmptyTable(f"table {name!r} has no rows")
        labels = list(labels) if labels else []
        if all(isinstance(row, BitVector) and row.n == rows[0].n for row in rows):
            n, size = rows[0].n, (rows[0].n + 7) // 8
            columns = _columns(b"".join([row.value.to_bytes(size, "big") for row in rows]),
                               size, _BIT, n)
            table = cls.__new__(cls)
            table._set(name, columns, _checked_labels(labels, len(rows)), False)
            return table
        vectors = [TernaryVector.parse(row) if isinstance(row, str) else _as_ternary(row)
                   for row in rows]
        return cls(name, vectors[0].n, [row.enc.value for row in vectors], labels)

    @property
    def codes(self) -> list[int]:
        """Each row's 2n-bit code, built on each read."""
        return _flip(map(or_, self._zeros, self._ones), len(self))

    @property
    def rows(self) -> list[TernaryVector]:
        """The rows as TernaryVectors, built on each read."""
        return [TernaryVector._of_code(c, self.cols) for c in self.codes]

    @cached_property
    def _column_bytes(self) -> bytes:
        """The columns' bytes, (R + 3) // 4 for each, from which rows are read."""
        return _bytes(map(or_, self._zeros, self._ones), len(self))

    def _row(self, i: int) -> TernaryVector:
        """Row i, 0-based, as a TernaryVector."""
        code = _flipped(self._column_bytes, len(self), i)
        return TernaryVector._of_code(code, self.cols)

    @property
    def is_binary(self) -> bool:
        return self.mode is Mode.BINARY

    def row_bits(self) -> list[BitVector]:
        """The rows of a binary table as BitVectors, converted on each call."""
        return [row.to_bitvector() for row in self.rows]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, AssocTable) and (
            (self.name, self.labels, self._zeros, self._ones)
            == (other.name, other.labels, other._zeros, other._ones)
        )

    __hash__ = None  # unhashable, as the dataclass with mutable fields it was

    def __repr__(self) -> str:
        return (f"AssocTable(name={self.name!r}, cols={self.cols!r}, codes={self.codes!r}, "
                f"labels={self.labels!r}, mode={self.mode!r})")


def _checked_labels(labels, count: int, check_rows=lambda: None) -> list:
    """``labels`` for ``count`` rows, or None for each when there are none;
    their number is checked, then ``check_rows`` runs, then the labels are
    checked for a repeat."""
    if not labels:
        labels = [None] * count
    if len(labels) != count:
        raise ParseError(f"{len(labels)} labels for {count} rows")
    check_rows()
    named = [label for label in labels if label is not None]
    if len(set(named)) != len(named):
        seen = set()
        label = next(lab for lab in named if lab in seen or seen.add(lab))
        raise ParseError(f"duplicate row label {label!r}")
    return labels


def _bytes(values: Iterable[int], width: int) -> bytes:
    """Ints of ``width`` 2-bit pairs each, in (width + 3) // 4 bytes each."""
    return b"".join(map(int.to_bytes, values, repeat((width + 3) // 4), repeat("big")))


# _FLIPPED[k] maps a byte to its pair k, from the most significant,
# complemented, as a base-4 digit
_FLIPPED = [bytes(ord("3") - (b >> 6 - 2 * k & 3) for b in range(256)) for k in range(4)]
# _BIT[k] maps a byte to its bit k, from the most significant, as the
# base-4 digit of that binary symbol's pair in a column: 0 -> 01, 1 -> 10
_BIT = [bytes(ord("1") + (b >> 7 - k & 1) for b in range(256)) for k in range(8)]


def _flipped(matrix: bytes, width: int, i: int) -> int:
    """Pair i of every value in ``matrix``, complemented, as the pairs of one
    int, the first value's most significant. ``matrix`` holds values of
    ``width`` pairs each, as :func:`_bytes` writes them."""
    size = (width + 3) // 4
    at = 4 * size - width + i  # the pair's place in a value's bytes
    return int(matrix[at // 4::size].translate(_FLIPPED[at % 4]), 4)


def _flip(values: Iterable[int], width: int) -> list[int]:
    """The transpose of a matrix of 2-bit pairs, each pair complemented:
    ``values`` hold ``width`` pairs each, and result i holds pair i of
    every value, as :func:`_flipped` reads it. The rows' codes flip to
    the table's columns, and back."""
    return _columns(_bytes(values, width), (width + 3) // 4, _FLIPPED, width)


def _columns(matrix: bytes, size: int, tables: list[bytes], width: int) -> list[int]:
    """The columns of ``matrix``, whose values take ``size`` bytes each and
    end in ``width`` symbols of len(tables) to a byte: column i is a base-4
    int whose digit r is value r's symbol i, as ``tables`` map it. Table k
    reads the k-th symbol of a byte, from the most significant."""
    columns = []
    for k in range(size):
        column = matrix[k::size]
        columns += [int(column.translate(table), 4) for table in tables]
    return columns[len(tables) * size - width:]


class _Deferred:
    """Per-row scores not computed yet: ``every()`` computes them all, and
    ``winners()`` the winners' alone."""

    __slots__ = ("every", "winners")

    def __init__(self, every: Callable[[], list[RowScore]], winners: Callable[[], list[RowScore]]):
        self.every, self.winners = every, winners


class _PerRow:
    """The ``per_row`` field: a list, or a :class:`_Deferred` that is
    computed on first read and replaced by its list."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("per_row")  # so @dataclass gives the field no default
        rows = obj.__dict__["_per_row"]
        if isinstance(rows, _Deferred):
            rows = obj.__dict__["_per_row"] = rows.every()
        return rows

    def __set__(self, obj, rows) -> None:
        obj.__dict__["_per_row"] = rows


@dataclass
class QueryResult:
    """Outcome of a table query.

    ``per_row`` holds one score per row: a :class:`QualityIndex` in
    binary mode, a :class:`QualityScoreNorm` in ternary mode.
    :func:`query` scores the rows on the first read of ``per_row`` and
    then keeps the list; ``winner_scores`` reads the winners' without it.
    ``best_index`` is the winning score in the same convention and
    ``best_rows`` lists every optimal (1-based row, label) pair.
    """

    mode: Mode
    best_rows: list[tuple[int, Optional[str]]]
    best_index: RowScore
    per_row: list[RowScore] = _PerRow()

    def winner_scores(self) -> list[RowScore]:
        """The score of each of ``best_rows``, in order, from ``per_row``
        once it is built; before that, :func:`query` reads the winners'
        alone. Tied ternary rows can differ in their mu components."""
        rows = self.__dict__["_per_row"]
        if isinstance(rows, _Deferred):
            return rows.winners()
        return [rows[i - 1] for i, _ in self.best_rows]


def load_table(source, name="table") -> AssocTable:
    """Parse a table from a string, a text-mode file, or an iterable of lines.

    A string and a file's ``read()`` are one text, whose lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` only (universal newlines, PEP 278), so a
    string and a text-mode file are read alike; each item of an iterable
    is one line. A ``#`` cuts its line there. A text is read whole: its
    comments are cut (:func:`_uncommented`), its two ends are stripped, and
    :func:`_parsed` hands it to :func:`lamp.ternary.parse_columns`, which
    reads all vectors with one encode and translate, and one ``int`` per
    column, building no object per line. That read refuses a line that is
    not a row as it stands (padded, blank, or a comment alone), and only
    then, or for an iterable, are the lines stripped one by one
    (:func:`_by_line`). A source that gives no text, such as bytes, a
    binary file or None, is a :class:`NotAVector` error, and a file whose
    bytes its encoding cannot decode an :class:`InvalidArgument`.
    """
    if hasattr(source, "read"):
        try:
            source = source.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"table text is not {exc.encoding}: {exc.reason}") from None
    if isinstance(source, str):
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        source = _uncommented(source)
        parsed = _parsed(source.strip()) or _by_line(source.split("\n"), name)
    else:
        parsed = _by_line(_lines(source), name)
    table = AssocTable.__new__(AssocTable)
    table._set(name, *parsed)
    return table


def _uncommented(text: str) -> str:
    """``text`` with each comment cut, from its ``#`` to the end of its line.

    ``str.find`` jumps from one ``#`` or newline to the next, so a text
    with few comments is cut in about the time of one copy."""
    pieces, start, at = [], 0, text.find("#")
    while at >= 0:
        pieces.append(text[start:at])
        start = text.find("\n", at) % (len(text) + 1)  # the text's end after its last line
        at = text.find("#", start)
    pieces.append(text[start:])
    return "".join(pieces)


def _parsed(text: str) -> tuple[list[int], list, bool] | None:
    """(columns, labels, whether some symbol is x) of a table text each of
    whose lines is one row: a vector, or a label, a tab and a vector, the
    label and that vector stripped; None when some line is not (a padded
    bare vector, a blank line, an empty label) or a label repeats."""
    if "\t" not in text:
        parsed = parse_columns(text)
        return parsed and (parsed[0], [None] * parsed[1], parsed[2])
    heads, tabs, tails = zip(*map(str.partition, text.split("\n"), repeat("\t")))
    labels = [h if t else None for h, t in zip(map(str.strip, heads), tabs)]
    named = set(labels)
    named.discard(None)
    if "" in named or len(named) != len(labels) - labels.count(None):
        return None
    vectors = [v if t else h for h, t, v in zip(heads, tabs, map(str.strip, tails))]
    parsed = parse_columns("\n".join(vectors))
    return parsed and (parsed[0], labels, parsed[2])


def _by_line(lines: list[str], name: str) -> tuple[list[int], list, bool]:
    """:func:`_parsed` of the rows of ``lines``, each line stripped and the
    blank ones dropped; when that fails, the lines are read one by one to
    raise the error of the earliest bad line with its line number."""
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise EmptyTable(f"table {name!r} has no rows")
    parsed = _parsed("\n".join(rows))
    # labels for other than len(rows) rows: an item of an iterable held a newline
    if parsed is None or len(parsed[1]) != len(rows):
        _raise_first_fault(lines)
    return parsed


def _lines(source) -> list[str]:
    """The items of an iterable table source, each cut at its first ``#``."""
    if isinstance(source, (bytes, bytearray)):
        raise _not_text(source)
    try:
        items = iter(source)
    except TypeError:
        raise _not_text(source) from None
    lines = list(items)
    for line in lines:
        if not isinstance(line, str):
            raise _not_text(line)
    # a line without a comment stays the same object
    return [line.partition("#")[0] if "#" in line else line for line in lines]


def _not_text(obj) -> NotAVector:
    return NotAVector(f"expected table text, a text file or lines, got {type(obj).__name__}")


def _raise_first_fault(lines: list[str]) -> None:
    """Raise the error of the earliest bad line, each line checked for a
    bad vector, then its width, then a repeated label."""
    seen: set[str] = set()
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        label, tab, vec_text = line.partition("\t")
        label, vec_text = (label.strip(), vec_text.strip()) if tab else (None, line)
        try:
            n, _ = parse_code(vec_text)
        except (ParseError, ZeroLength) as exc:
            raise ParseError(str(exc), line=lineno) from None
        if width is None:
            width = n
        elif n != width:
            raise WidthMismatch(f"line {lineno}: row width {n} differs from {width}")
        if label is not None:
            if label in seen:
                raise ParseError(f"duplicate row label {label!r}", line=lineno)
            seen.add(label)
    raise AssertionError("a whole-table check failed on lines that each pass")


def _as_ternary(m) -> TernaryVector:
    if isinstance(m, TernaryVector):
        return m
    if isinstance(m, BitVector):
        return TernaryVector.from_bitvector(m)
    raise NotAVector(f"expected a vector, got {type(m).__name__}")


_CLEAR = bytes.maketrans(b"01", b"\1\0")  # a bit's text to a selector of its clear bits


def _count(planes: list[int]) -> list[int]:
    """The per-row number of ``planes`` that have the row's bit set, as
    bit-sliced counter planes: bit i of a row's count is its bit in plane i.

    A carry-save adder tree (the Harley-Seal population count): each
    full adder folds two more planes of one weight into that weight's
    running sum and passes their carry on to the next weight, so n planes
    take about n adders of five bitwise operations, each over every row.
    """
    counts = []
    while planes:
        it = iter(planes)
        total, carries = next(it), []
        for a, b in zip(it, it):
            t = total ^ a
            carries.append(total & a | t & b)
            total = t ^ b
        if not len(planes) % 2:  # zip dropped the last plane
            a = planes[-1]
            carries.append(total & a)
            total ^= a
        counts.append(total)
        planes = carries
    return counts


def _add(a: list[int], b: list[int]) -> list[int]:
    """The bit-sliced sum of two bit-sliced counts of the same length."""
    total, carry = [], 0
    for x, y in zip(a, b):
        t = x ^ y
        total.append(t ^ carry)
        carry = x & y | t & carry
    return total + [carry] if carry else total


def _least(rows: int, counts: list[int]) -> tuple[int, int]:
    """(the rows of mask ``rows`` whose count is least, that count): a min
    search from the top counter plane down."""
    least = 0
    for i in range(len(counts) - 1, -1, -1):
        fewer = rows & ~counts[i]
        if fewer:
            rows = fewer
        else:
            least |= 1 << i
    return rows, least


def _min_max(p: list[int], q: list[int]) -> tuple[list[int], list[int], int]:
    """The per-row min and max of two bit-sliced counts, and the rows
    whose q is less than their p."""
    width = max(len(p), len(q))
    p, q = p + [0] * (width - len(p)), q + [0] * (width - len(q))
    swap, same = 0, -1  # the rows known to have q < p; those with equal bits so far
    for a, b in zip(reversed(p), reversed(q)):
        swap |= same & a & ~b
        same &= ~(a ^ b)
    return ([a ^ (a ^ b) & swap for a, b in zip(p, q)],
            [b ^ (a ^ b) & swap for a, b in zip(p, q)], swap)


def _count_at(counts: list[int], at: int) -> int:
    """The count of the row at bit ``at`` of bit-sliced ``counts``."""
    return sum((plane >> at & 1) << i for i, plane in enumerate(counts))


def _transpose(planes: list[int], height: int) -> list[int]:
    """One int per row of ``height``: row r reads bit 2(height-1-r) of each
    plane, the first plane as its most significant bit."""
    text = "".join([format(plane, f"0{2 * height}b")[1::2] for plane in planes])
    return [int(text[r::height] or "0", 2) for r in range(height)]


def _indices(rows: int, height: int) -> list[int]:
    """The 0-based rows of mask ``rows`` over ``height`` rows, ascending."""
    text = format(rows, f"0{2 * height}b")
    found, at = [], text.find("1")
    while at >= 0:
        found.append(at // 2)
        at = text.find("1", at + 2)
    return found


class _Search:
    """The counts of one probe m against every row of one table.

    ``e`` counts each row's empty coordinates, where m is 0 and the row is
    1 or the reverse: on binary rows it is the quality index k. For the
    rows with e = 0 of a ternary table, ``_pq`` counts p, the x of the row
    where m has none, and q, the x of m where the row has none; such rows
    score better as (min(p, q), max(p, q)) is less
    (:func:`lamp.quality.arith_keys` derives it), so rows are ranked by
    (e, min(p, q), max(p, q)). Every count is bit-sliced, its planes over
    the columns' pairs: a row's bit is the low bit of its pair, and the
    high bits hold nothing of use.
    """

    def __init__(self, table: AssocTable, m):
        mt = _as_ternary(m)
        if mt.n != table.cols:
            raise LengthMismatch(
                f"query width {mt.n} differs from table width {table.cols}"
            )
        if table.is_binary and not mt.is_binary:
            raise ModeMismatch("ternary query against a binary table")
        self.table, self.m, self.mt = table, m, mt
        # a probe 1 (code 01) conflicts with a row's 0, at the low bits, a
        # probe 0 (code 10) with a 1, at the high bits; an x (11) with neither
        pairs = format(mt.enc.value, f"0{2 * mt.n}b").encode()
        ones, zeros = pairs[0::2].translate(_CLEAR), pairs[1::2].translate(_CLEAR)
        self._selectors = ones, zeros  # the coordinates where m is 1, where m is 0
        lows, highs = list(compress(table._zeros, ones)), list(compress(table._ones, zeros))
        # a low and a high plane share one int, so each adder adds two columns
        counts = _count([*map(or_, lows, highs), *lows[len(highs):], *highs[len(lows):]])
        low = low_bits(len(table))
        self.e = _add([c & low for c in counts], [c >> 1 & low for c in counts])
        self._pq_counts = self._order_counts = None

    def _pq(self) -> tuple[list[int], list[int]]:
        """The counter planes of p and q, counted on first use."""
        if self._pq_counts is None:
            low, n = low_bits(len(self.table)), self.table.cols
            filled = [z | o >> 1 for z, o in zip(self.table._zeros, self.table._ones)]  # not x
            ones, zeros = map(int.from_bytes, self._selectors)
            known = (ones | zeros).to_bytes(n)  # where m is not x; bytes of 0 or 1 or bytewise
            p = _count([low ^ f for f in compress(filled, known)])
            q = _count(list(compress(filled, map(not_, known))))
            self._pq_counts = p, q
        return self._pq_counts

    def best(self, rows: int) -> tuple[int, int]:
        """(the rows of mask ``rows`` that score best, their e)."""
        rows, e = _least(rows, self.e)
        if e == 0 and not self.table.is_binary:
            if self._order_counts is None:
                self._order_counts = _min_max(*self._pq())
            for counts in self._order_counts[:2]:
                rows = _least(rows, counts)[0]
        return rows, e

    def order(self):
        """The 0-based rows, best first; tied rows in ascending order."""
        height = len(self.table)
        rows = low_bits(height)
        while rows:
            best = self.best(rows)[0]
            yield from _indices(best, height)
            rows ^= best

    def _scored(self, e: int, p: int, q: int) -> RowScore:
        n = self.table.cols
        if self.table.is_binary:
            return QualityIndex(e, n)
        return _score_norm(n, e, 0, 0) if e else _score_norm(n, 0, p, q)

    def score(self, i: int) -> RowScore:
        """Row i's score (0-based), read off the counter planes."""
        at = 2 * (len(self.table) - 1 - i)
        e = _count_at(self.e, at)
        if e or self.table.is_binary:
            return self._scored(e, 0, 0)
        return self._scored(0, *(_count_at(counts, at) for counts in self._pq()))

    def tied(self, rows: int, found: list[int], e: int, first: RowScore) -> list[RowScore]:
        """The scores of the rows of mask ``rows``, which :meth:`best` gave
        with their e; ``found`` lists them, and the first of them scores
        ``first``. Such rows share e and the min and max of p and q, so each
        scores ``first`` unless its p and q are the first row's swapped: at
        most one more score is read, whatever the number of rows."""
        if e or self.table.is_binary:
            return [first] * len(found)
        height, swap = len(self.table), self._order_counts[2]
        other = rows & (swap ^ -(swap >> 2 * (height - 1 - found[0]) & 1))
        if not other:
            return [first] * len(found)
        others = set(_indices(other, height))
        second = self.score(min(others))
        return [second if i in others else first for i in found]

    def scores(self) -> list[RowScore]:
        """Every row's score, read off the counter planes transposed;
        rows with the same counts share one score."""
        height = len(self.table)
        es = _transpose(self.e[::-1], height)
        if self.table.is_binary or 0 not in es:
            keys = [(e, 0, 0) for e in es]
        else:
            ps, qs = (_transpose(counts[::-1], height) for counts in self._pq())
            keys = [(e, 0, 0) if e else (0, p, q) for e, p, q in zip(es, ps, qs)]
        built: dict[tuple[int, int, int], RowScore] = {}
        return [built.get(key) or built.setdefault(key, self._scored(*key)) for key in keys]

    def criterion(self, i: int) -> RowScore:
        """Row i's score (0-based) from the criterion itself, on the row."""
        row, m = self.table._row(i), self.m
        if self.table.is_binary:
            mb = m if isinstance(m, BitVector) else self.mt.to_bitvector()
            return quality_index(mb, row.to_bitvector())
        return quality_arith(self.mt, row)


def query(table: AssocTable, m) -> QueryResult:
    """Find the best-interacting row(s) for query vector ``m``.

    The winners are the rows that :class:`_Search` ranks first; only the
    first of them is scored for ``best_index``, and ``per_row`` scores
    every row when it is read.
    """
    search = table._search = _Search(table, m)
    best, e = search.best(low_bits(len(table)))
    found = _indices(best, len(table))
    first = search.criterion(found[0])
    scores = _Deferred(search.scores, lambda: search.tied(best, found, e, first))
    winners = [(i + 1, table.labels[i]) for i in found]
    return QueryResult(table.mode, winners, first, scores)


def rank(table: AssocTable, m, k: int) -> list[tuple[int, RowScore]]:
    """First k rows best-first; ties broken by ascending row index.

    The rows are found by repeated min searches, and only the k rows
    returned are scored. After a :func:`query` of the same probe object
    on the table, its counts are reused, so ``--top`` searches once.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    search = table._search
    if search is None or search.m is not m:
        search = _Search(table, m)
    return [(i + 1, search.criterion(i)) for i in islice(search.order(), k)]


def diagnose(dictionary: AssocTable, response: BitVector) -> QueryResult:
    """Match a circuit response against a labeled fault dictionary.

    A plain :func:`query` restricted to binary signature tables; the
    winners carry the fault labels.
    """
    if not dictionary.is_binary:
        raise ModeMismatch("fault dictionary must contain binary signatures")
    return query(dictionary, response)
