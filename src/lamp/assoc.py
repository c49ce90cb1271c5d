"""Associative tables and the search / recognition / decision procedures.

A table is an ordered list of associator rows, optionally labeled, held
by columns (:class:`AssocTable`): each column is two bit planes, ints of
one bit per row, one marking the rows whose symbol there is 0 and one
those whose symbol is 1. :func:`load_table` checks a whole table text
with one byte translation (:func:`lamp.ternary.parse_columns`) and keeps
it as lanes, one byte per symbol; it strips the lines one by one only
when some line is not a row as it stands, and reads them one by one only
to name the first bad line. Its planes are built by a second search or a
read of its rows. Rows and planes, planes and codes, and counter planes
and counts convert by one bit-matrix transpose (:func:`_transpose`).

A query is answered word-parallel, as an associative memory answers it:
each operation acts on one coordinate of every row at once (Foster,
*Content-Addressable Parallel Processors*, 1976). A row's count e of
empty coordinates, where its symbol conflicts with m's (a 1 against a
0), is k = popcount(m XOR a) on binary rows, so both modes share one
search. The first search of a table read from text, at most 255 wide,
adds its columns as ints with a byte lane per row (Lamport, "Multiple
Byte Processing with Full-Word Instructions", CACM, 1975), whose bytes
are then every row's e.
Any other adds the conflicting bit planes, a row's 0s where m is 1 and
its 1s where m is 0, with a carry-save adder tree, the Harley-Seal
population count, and a min search from the top counter plane down
gives the rows with the least e. Ternary rows with e = 0 rank
by (min(p, q), max(p, q)), the order of :func:`lamp.quality.arith_keys`:
p counts the x of the row where m has none, q the x of m where the row
has none. ``rank`` and ``per_row`` read every count as one per row.

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
from itertools import compress, repeat
from operator import not_, or_
from typing import Optional, Union

from .bitvec import BitVector
from .errors import (
    EmptyTable,
    InvalidArgument,
    LengthMismatch,
    ModeMismatch,
    NotAVector,
    NotBinary,
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
    parse_code,
    parse_columns,
)

RowScore = Union[QualityIndex, QualityScoreNorm]


class Mode(enum.Enum):
    BINARY = "binary"
    TERNARY = "ternary"


class AssocTable:
    """Matrix of associators with optional per-row labels, held by columns.

    Column j is two bit planes, R-bit ints with one bit per row, the first
    row most significant: ``_zeros[j]`` has row r's bit set when its
    symbol j is 0, which conflicts with a probe 1, and ``_ones[j]`` when it
    is 1, which conflicts with a probe 0; an x sets neither. In a binary
    table each plane is the other's complement under the row mask. A table
    read from text holds lanes and builds its planes on first read.
    ``codes`` and ``rows`` are built from the planes on each read. The mode
    is decided once, at construction; the rows must not change afterwards.
    """

    def __init__(self, name: str, cols: int, codes: list[int], labels=None):
        if not codes:
            raise EmptyTable(f"table {name!r} has no rows")
        labels = _checked_labels(labels, len(codes), lambda: check_codes(codes, cols))
        # a code's pair is 10 for a 0 and 01 for a 1: complemented, a 1's bit then a 0's
        planes = _transpose([((1 << 2 * cols) - 1) ^ code for code in codes], 2 * cols)
        self._set(name, (planes[1::2], planes[0::2]), labels, any_x(codes, cols))

    def _set(self, name, planes, labels, ternary) -> None:
        """Hold lane text, whose planes are built on first read, or the
        planes (zeros, ones); a binary table's zeros may be None, as they
        are its ones' complements."""
        self.name, self.labels = name, labels
        self.mode = Mode.TERNARY if ternary else Mode.BINARY
        self._search = None  # the last search, which rank reuses for the same probe
        if not isinstance(planes, tuple):  # lane text
            self._lanes, self.cols = planes, (len(planes) + 1) // len(labels) - 1
            return
        zeros, self._ones = planes
        mask = (1 << len(labels)) - 1
        self._zeros = [mask ^ ones for ones in self._ones] if zeros is None else zeros
        self.cols = len(self._ones)

    def __getattr__(self, name):
        """``_zeros`` and ``_ones`` of a table read from text, built on first read."""
        if name not in ("_zeros", "_ones") or "_lanes" not in self.__dict__:
            raise AttributeError(name)
        lanes, n, ternary = self.__dict__.pop("_lanes"), self.cols, self.mode is Mode.TERNARY
        # a lane byte is 1 for a 0 and 16 for a 1: its bit 7 or its bit 3
        ones = [int(lanes[j::n + 1].translate(_BIT[3]), 2) for j in range(n)]
        zeros = [int(lanes[j::n + 1].translate(_BIT[7]), 2) for j in range(n)] if ternary else None
        self._set(self.name, (zeros, ones), self.labels, ternary)
        return self.__dict__[name]

    @classmethod
    def from_rows(cls, rows, labels=None, name="table") -> "AssocTable":
        """Build from TernaryVector/BitVector rows or vector strings.

        BitVectors of one width are transposed to ones planes, with no
        TernaryVector or code built for a row; other rows go through their
        codes, whose checks name the first bad row.
        """
        rows = list(rows)
        if not rows:
            raise EmptyTable(f"table {name!r} has no rows")
        labels = list(labels) if labels else []
        if all(isinstance(row, BitVector) and row.n == rows[0].n for row in rows):
            table = cls.__new__(cls)
            ones = _transpose([row.value for row in rows], rows[0].n)
            table._set(name, (None, ones), _checked_labels(labels, len(rows)), False)
            return table
        vectors = [TernaryVector.parse(row) if isinstance(row, str) else _as_ternary(row)
                   for row in rows]
        return cls(name, vectors[0].n, [row.enc.value for row in vectors], labels)

    def _pairs(self) -> list[int]:
        """Each column's ones plane, then its zeros plane: read down a row,
        its code complemented."""
        return [plane for column in zip(self._ones, self._zeros) for plane in column]

    @property
    def codes(self) -> list[int]:
        """Each row's 2n-bit code, built on each read."""
        mask = (1 << 2 * self.cols) - 1
        return [mask ^ code for code in _transpose(self._pairs(), len(self))]

    @property
    def rows(self) -> list[TernaryVector]:
        """The rows as TernaryVectors, built on each read."""
        return [TernaryVector._of_code(c, self.cols) for c in self.codes]

    @cached_property
    def _plane_bytes(self) -> bytearray:
        """The planes that rows are read from, as :func:`_matrix` holds them:
        a binary table's ones planes, else :meth:`_pairs`."""
        return _matrix(self._ones if self.is_binary else self._pairs(), len(self))

    def _row(self, i: int) -> Union[BitVector, TernaryVector]:
        """Row i, 0-based: a BitVector in a binary table, else a TernaryVector."""
        n, lanes = self.cols, self.__dict__.get("_lanes")
        if lanes is None:
            bits = _column(self._plane_bytes, len(self), i)
        else:  # bit 3 of a 1's lane byte is set; the bytes' hex digits spell the code's
            lane = lanes[i * (n + 1):i * (n + 1) + n]  # pairs complemented
            bits = int(lane.translate(_BIT[3]) if self.is_binary else lane.hex(), 2)
        if self.is_binary:
            return BitVector(n, bits)
        return TernaryVector._of_code(((1 << 2 * n) - 1) ^ bits, n)

    @property
    def is_binary(self) -> bool:
        return self.mode is Mode.BINARY

    def row_bits(self) -> list[BitVector]:
        """The rows of a binary table as BitVectors, read from its ones
        planes on each call."""
        if not self.is_binary:
            raise NotBinary("vector contains x, not a binary vector")
        return [BitVector(self.cols, bits) for bits in _transpose(self._ones, len(self))]

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


# _BIT[k] maps a byte to its bit k, from the most significant, as a binary digit
_BIT = [bytes(ord("0") + (b >> 7 - k & 1) for b in range(256)) for k in range(8)]


def _matrix(values: list[int], width: int) -> bytearray:
    """``values`` of ``width`` bits each, in (width + 7) // 8 bytes each,
    the most significant first. They are joined about a megabyte at a
    time into the matrix, so that no second copy of it is held."""
    size = (width + 7) // 8
    matrix, step = bytearray(size * len(values)), 1 + (1 << 20) // size
    for at in range(0, len(values), step):
        matrix[at * size:(at + step) * size] = b"".join(
            map(int.to_bytes, values[at:at + step], repeat(size), repeat("big")))
    return matrix


def _column(matrix: bytearray, width: int, i: int) -> int:
    """Bit i, from the most significant, of every value of ``width`` bits
    in ``matrix``, as one int, the first value's bit most significant."""
    size = (width + 7) // 8
    at = 8 * size - width + i  # the bit's place in a value's bytes
    return int(matrix[at // 8::size].translate(_BIT[at % 8]), 2)


def _transpose(values: list[int], width: int) -> list[int]:
    """The transpose of a bit matrix: ``values`` hold ``width`` bits each,
    and result i holds bit i of every value, as :func:`_column` reads it.
    Rows and planes, planes and codes, and counter planes and counts are
    each other's transposes."""
    matrix, size = _matrix(values, width), (width + 7) // 8
    columns = []
    for k in range(size):  # each byte of a value, sliced once for its eight bits
        column = matrix[k::size]
        columns += [int(column.translate(bit), 2) for bit in _BIT]
    return columns[8 * size - width:]


class _PerRow:
    """The ``per_row`` field: a list, or the :class:`_Search` of the query,
    which scores every row on first read and is replaced by the list."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("per_row")  # so @dataclass gives the field no default
        rows = obj.__dict__["_per_row"]
        if isinstance(rows, _Search):
            rows = obj.__dict__["_per_row"] = rows.scores()
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
        if isinstance(rows, _Search):
            return rows.winner_scores()
        return [rows[i - 1] for i, _ in self.best_rows]


def load_table(source, name="table") -> AssocTable:
    """Parse a table from a string, a text-mode file, or an iterable of lines.

    A string and a file's ``read()`` are one text, whose lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` only (universal newlines, PEP 278), so a
    string and a text-mode file are read alike; each item of an iterable
    is one line. A ``#`` cuts its line there. A text is read whole: its
    comments are cut (:func:`_uncommented`), its two ends are stripped, and
    :func:`_parsed` hands it to :func:`lamp.ternary.parse_columns`, which
    checks all vectors with one encode and translate to the lanes that the
    first search reads, building no object per line and parsing no int.
    That read refuses a line that is not a row as it stands (padded,
    blank, or a comment alone), and only then, or for an iterable, are the
    lines stripped one by one (:func:`_by_line`). A source that gives no
    text, such as bytes, a binary file or None, is a :class:`NotAVector`
    error, and a file whose bytes its encoding cannot decode an
    :class:`InvalidArgument`.
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


def _parsed(text: str) -> tuple[bytearray, list, bool] | None:
    """(lane text, labels, whether some symbol is x) of a table text each of
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


def _by_line(lines: list[str], name: str) -> tuple[bytearray, list, bool]:
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
    return counts or [0]  # no planes: every count is 0


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


def _where(counts, value: int) -> list[int]:
    """The indices of ``value`` in ``counts``, ascending."""
    at = -1
    return [at := counts.index(value, at + 1) for _ in range(counts.count(value))]


class _Search:
    """The counts e, p and q, as the module describes them, of one probe m
    against every row of one table, which rank rows by (e, min(p, q),
    max(p, q)). They are counted in byte lanes (:meth:`_tally`) while a
    count fits in a byte, or else in counter planes, and read one per row."""

    def __init__(self, table: AssocTable, m):
        mt = _as_ternary(m)
        if mt.n != table.cols:
            raise LengthMismatch(
                f"query width {mt.n} differs from table width {table.cols}"
            )
        if table.is_binary and not mt.is_binary:
            raise ModeMismatch("ternary query against a binary table")
        self.table, self.m, self.mt = table, m, mt
        # a probe 1 (code 01) conflicts with a row's 0, a probe 0 (code 10)
        # with a 1, and an x (11) with neither
        pairs = format(mt.enc.value, f"0{2 * mt.n}b").encode()
        ones, zeros = pairs[0::2].translate(_CLEAR), pairs[1::2].translate(_CLEAR)
        self._selectors = ones, zeros  # the coordinates where m is 1, where m is 0
        # past 255 columns a count can pass its byte lane
        self._text = None if table._search or table.cols > 255 else table.__dict__.get("_lanes")
        if self._text is None:
            self.e = _count([*compress(table._zeros, ones), *compress(table._ones, zeros)])
        else:  # a row's e sums its 0s where m is 1 and its 1s where m is 0
            self._unit = int.from_bytes(b"\1" * len(table), "big")  # 1 in each lane
            (e, matched), (same, conflicts) = self._tally(ones), self._tally(zeros)
            self._e, self._matched = e + conflicts, matched + same
        table._search = self

    def _tally(self, selector) -> tuple[int, int]:
        """(each row's 0s, its 1s) where ``selector`` marks, as lanes: the
        text's columns summed 15 at a time, so that no nibble carries."""
        text, n, nibble = self._text, self.table.cols, 15 * self._unit
        columns = [int.from_bytes(text[j::n + 1], "big") for j in compress(range(n), selector)]
        zeros = ones = 0
        for at in range(0, len(columns), 15):
            total = sum(columns[at:at + 15])
            zeros += total & nibble
            ones += total >> 4 & nibble
        return zeros, ones

    def _rows(self, counts):
        """One count per row, of byte lanes or of counter planes (a list,
        the lowest first)."""
        if isinstance(counts, list):
            return _transpose(counts[::-1], len(self.table))
        return counts.to_bytes(len(self.table), "big")

    @cached_property
    def counts(self):
        """Each row's e."""
        return self._rows(self.e if self._text is None else self._e)

    @cached_property
    def pq(self) -> tuple:
        """Each row's p and each row's q."""
        known = bytes(map(or_, *self._selectors))  # where m is not x
        if self._text is not None:
            p = known.count(1) * self._unit - self._e - self._matched
            return self._rows(p), self._rows(sum(self._tally(map(not_, known))))
        mask = (1 << len(self.table)) - 1
        filled = list(map(or_, self.table._zeros, self.table._ones))  # not x
        p = _count([mask ^ f for f in compress(filled, known)])
        q = _count(list(compress(filled, map(not_, known))))
        return self._rows(p), self._rows(q)

    def _pq_key(self, i: int) -> tuple[int, int]:
        p, q = self.pq
        return min(p[i], q[i]), max(p[i], q[i])

    def winners(self) -> tuple[list[int], int, RowScore]:
        """``best``: (the 0-based rows that score best, ascending; their e;
        the first one's score, from the criterion itself)."""
        if self._text is None:  # a min search from the top counter plane down
            height = len(self.table)
            rows, e = _least((1 << height) - 1, self.e)
            found = _where(format(rows, f"0{height}b"), "1")
        else:
            e = min(self.counts)
            found = _where(self.counts, e)
        if e == 0 and len(found) > 1 and not self.table.is_binary:
            keys = list(map(self._pq_key, found))
            found = list(compress(found, map(min(keys).__eq__, keys)))
        self.best = found, e, self.criterion(found[0])
        return self.best

    def order(self, k: int) -> list[int]:
        """The first k rows (0-based), best first; tied rows in ascending order."""
        e = self.counts
        zeros = 0 if self.table.is_binary else e.count(0)
        rows = sorted(range(len(e)), key=e.__getitem__)[:max(k, zeros)]
        rows[:zeros] = sorted(rows[:zeros], key=self._pq_key)
        return rows[:k]

    def _scored(self, key) -> RowScore:
        """The score of a row's e, or of the (p, q) of a ternary row with e = 0."""
        n = self.table.cols
        if self.table.is_binary:
            return QualityIndex(key, n)
        return _score_norm(n, 0, *key) if isinstance(key, tuple) else _score_norm(n, key, 0, 0)

    def scores(self, rows=None) -> list[RowScore]:
        """The scores of ``rows`` (0-based), or of every row, read off the
        counts per row; rows with the same counts share one score."""
        e = self.counts
        keys = list(e) if rows is None else [e[i] for i in rows]
        if not self.table.is_binary and 0 in keys:
            p, q = self.pq
            keys = [k or (p[i], q[i]) for k, i in zip(keys, rows or range(len(e)))]
        built = {key: self._scored(key) for key in set(keys)}
        return list(map(built.__getitem__, keys))

    def winner_scores(self) -> list[RowScore]:
        """The scores of the rows that score best: the first's, unless they
        are ternary, e = 0 and have p and q swapped."""
        found, e, first = self.best
        if e or self.table.is_binary or len(found) == 1:
            return [first] * len(found)
        return self.scores(found)

    def criterion(self, i: int) -> RowScore:
        """Row i's score (0-based) from the criterion itself, on the row."""
        row, m = self.table._row(i), self.m
        if self.table.is_binary:
            return quality_index(m if isinstance(m, BitVector) else self.mt.to_bitvector(), row)
        return quality_arith(self.mt, row)


def query(table: AssocTable, m) -> QueryResult:
    """Find the best-interacting row(s) for query vector ``m``.

    The winners are the rows that :class:`_Search` ranks first; only the
    first of them is scored for ``best_index``, and ``per_row`` scores
    every row when it is read.
    """
    search = _Search(table, m)
    found, _, first = search.winners()
    winners = [(i + 1, table.labels[i]) for i in found]
    return QueryResult(table.mode, winners, first, search)


def rank(table: AssocTable, m, k: int) -> list[tuple[int, RowScore]]:
    """First k rows best-first; ties broken by ascending row index.

    The rows are sorted by their counts per row, and only the k rows
    returned are scored. After a search of the same probe object on the
    table, its counts are reused, so ``--top`` searches once.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    search = table._search
    if search is None or search.m is not m:
        search = _Search(table, m)
    return [(i + 1, search.criterion(i)) for i in search.order(k)]


def diagnose(dictionary: AssocTable, response: BitVector) -> QueryResult:
    """Match a circuit response against a labeled fault dictionary.

    A plain :func:`query` restricted to binary signature tables; the
    winners carry the fault labels.
    """
    if not dictionary.is_binary:
        raise ModeMismatch("fault dictionary must contain binary signatures")
    return query(dictionary, response)
