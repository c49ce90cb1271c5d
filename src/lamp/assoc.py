"""Associative tables and the search / recognition / decision procedures.

A table is an ordered list of associator rows, optionally labeled, held
as the rows' 2n-bit int codes (:mod:`lamp.ternary`) from the text to the
score: :func:`load_table` reads a whole table text in one pass, with one
byte translation for all rows and one base-4 ``int`` per row
(:func:`lamp.ternary.parse_codes`), and builds no vector object per row;
it reads the lines one by one only to name the first bad line. One int
key per row (:func:`lamp.quality.code_keys`) orders the rows of both
modes: the winners are the rows that reach the highest key and ``rank``
sorts by it. On binary rows the meet is empty exactly where m and a
differ, so the key is n - k with k = popcount(m XOR a), or n + 2^(n+1)
when k = 0, and the order is the quality index's. The paper's and/xor/or
selection of the winner is :func:`lamp.quality.decide`, and the grid
machine runs it (:func:`lamp.sim.builtin_query_program`). The mode only
picks the score a user sees: a :class:`QualityIndex` for binary rows, a
Fraction :class:`QualityScoreNorm` for ternary ones, built only for a
score that is read, and for every row from the counts the keys are made
of. All optimal rows are reported, in ascending row order; row indices
in results are 1-based.

Table file format (UTF-8 text):
  * ``#`` starts a comment to end of line, blank lines are ignored;
  * each remaining line is either a bare vector or ``label<TAB>vector``;
  * vector symbols are {0,1,x} and all rows must share one width;
  * labels, when present, must be unique.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Union

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
    choose_best,  # unused here; bench/tracer.py hooks lamp.assoc.choose_best
    criterion_vector,  # unused here; bench/tracer.py hooks lamp.assoc.criterion_vector
    code_keys,
    code_scores,
    quality_arith,
    quality_index,
)
from .ternary import TernaryVector, any_x, check_codes, parse_code, parse_codes

RowScore = Union[QualityIndex, QualityScoreNorm]


class Mode(enum.Enum):
    BINARY = "binary"
    TERNARY = "ternary"


@dataclass
class AssocTable:
    """Matrix of associators with optional per-row labels.

    ``codes`` holds each row's 2n-bit code (:mod:`lamp.ternary`), the
    one form in which a table keeps its rows; ``rows`` builds one
    :class:`TernaryVector` per row on each read. The mode is decided
    once, at construction; the rows must not change afterwards.
    """

    name: str
    cols: int
    codes: list[int]
    labels: list[Optional[str]] = field(default_factory=list)
    mode: Mode = field(init=False)

    def __post_init__(self):
        codes, n = self.codes, self.cols
        if not codes:
            raise EmptyTable(f"table {self.name!r} has no rows")
        if not self.labels:
            self.labels = [None] * len(codes)
        if len(self.labels) != len(codes):
            raise ParseError(f"{len(self.labels)} labels for {len(codes)} rows")
        check_codes(codes, n)
        named = [label for label in self.labels if label is not None]
        if len(set(named)) != len(named):
            seen = set()
            label = next(lab for lab in named if lab in seen or seen.add(lab))
            raise ParseError(f"duplicate row label {label!r}")
        self.mode = Mode.TERNARY if any_x(codes, n) else Mode.BINARY

    @classmethod
    def _checked(cls, name, cols, codes, labels) -> "AssocTable":
        """A table of rows whose widths and labels the caller has checked."""
        table = cls.__new__(cls)
        table.name, table.cols, table.codes, table.labels = name, cols, codes, labels
        table.mode = Mode.TERNARY if any_x(codes, cols) else Mode.BINARY
        return table

    @classmethod
    def from_rows(cls, rows, labels=None, name="table") -> "AssocTable":
        """Build from TernaryVector/BitVector rows or vector strings."""
        parsed = [
            TernaryVector.parse(row) if isinstance(row, str) else _as_ternary(row)
            for row in rows
        ]
        if not parsed:
            raise EmptyTable(f"table {name!r} has no rows")
        codes = [row.enc.value for row in parsed]
        return cls(name, parsed[0].n, codes, list(labels) if labels else [])

    @property
    def rows(self) -> list[TernaryVector]:
        """The rows as TernaryVectors, built on each read."""
        return [TernaryVector._of_code(c, self.cols) for c in self.codes]

    def _row(self, i: int) -> TernaryVector:
        """Row i, 0-based, as a TernaryVector."""
        return TernaryVector._of_code(self.codes[i], self.cols)

    @property
    def is_binary(self) -> bool:
        return self.mode is Mode.BINARY

    def row_bits(self) -> list[BitVector]:
        """The rows of a binary table as BitVectors, converted on each call."""
        return [row.to_bitvector() for row in self.rows]

    def __len__(self) -> int:
        return len(self.codes)


class _Deferred:
    """Per-row scores not computed yet: ``score()`` computes them."""

    __slots__ = ("score",)

    def __init__(self, score: Callable[[], list[RowScore]]):
        self.score = score


class _PerRow:
    """The ``per_row`` field: a list, or a :class:`_Deferred` that is
    computed on first read and replaced by its list."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("per_row")  # so @dataclass gives the field no default
        rows = obj.__dict__["_per_row"]
        if isinstance(rows, _Deferred):
            rows = obj.__dict__["_per_row"] = rows.score()
        return rows

    def __set__(self, obj, rows) -> None:
        obj.__dict__["_per_row"] = rows


@dataclass
class QueryResult:
    """Outcome of a table query.

    ``per_row`` holds one score per row: a :class:`QualityIndex` in
    binary mode, a :class:`QualityScoreNorm` in ternary mode.
    :func:`query` scores the rows on the first read of ``per_row`` and
    then keeps the list.
    ``best_index`` is the winning score in the same convention and
    ``best_rows`` lists every optimal (1-based row, label) pair.
    """

    mode: Mode
    best_rows: list[tuple[int, Optional[str]]]
    best_index: RowScore
    per_row: list[RowScore] = _PerRow()


def load_table(source, name="table") -> AssocTable:
    """Parse a table from a string, a text-mode file, or an iterable of lines.

    A string and a file's ``read()`` are one text, whose lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` only (universal newlines, PEP 278), so a
    string and a text-mode file are read alike; each item of an iterable
    is one line. Each line that holds a ``#`` is cut there. The lines are
    not parsed one by one: every line is stripped and split at its first
    tab by ``map``, and :func:`lamp.ternary.parse_codes` reads all vectors
    with one encode and translate. Only when a check of the whole table
    fails are the lines read one by one, to raise the error of the
    earliest bad line with its line number. A source that gives no text,
    such as bytes, a binary file or None, is a :class:`NotAVector` error,
    and a file whose bytes its encoding cannot decode an
    :class:`InvalidArgument`.
    """
    lines = _lines(source)
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise EmptyTable(f"table {name!r} has no rows")
    labels = [None] * len(rows)
    repeated = False
    text = "\n".join(rows)
    if "\t" in text:
        heads, tabs, tails = zip(*map(str.partition, rows, repeat("\t")))
        labels = [h if t else None for h, t in zip(map(str.strip, heads), tabs)]
        text = "\n".join([v if t else h for h, t, v in zip(heads, tabs, map(str.strip, tails))])
        named = set(labels)
        named.discard(None)
        repeated = len(named) != len(labels) - labels.count(None)
    parsed = parse_codes(text)
    # a count other than len(rows) means an item of an iterable held a newline
    if parsed is None or len(parsed[1]) != len(rows) or repeated:
        _raise_first_fault(lines)
    width, codes = parsed
    return AssocTable._checked(name, width, codes, labels)


def _lines(source) -> list[str]:
    """The lines of a table source, each cut at its first ``#``."""
    if hasattr(source, "read"):
        try:
            source = source.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"table text is not {exc.encoding}: {exc.reason}") from None
    if isinstance(source, str):
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        lines = source.split("\n")
    elif isinstance(source, (bytes, bytearray)):
        raise _not_text(source)
    else:
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


def _keyed(
    table: AssocTable, m
) -> tuple[list[int], Callable[[int], RowScore], Callable[[], list[RowScore]]]:
    """The rows' keys for query ``m`` (:func:`lamp.quality.code_keys`), and the
    scores that a user sees, in the table's mode: of row i (0-based), and
    of every row."""
    mt = _as_ternary(m)
    if mt.n != table.cols:
        raise LengthMismatch(
            f"query width {mt.n} differs from table width {table.cols}"
        )
    if table.is_binary and not mt.is_binary:
        raise ModeMismatch("ternary query against a binary table")
    keys = code_keys(mt, table.codes)
    if table.is_binary:
        mb = m if isinstance(m, BitVector) else mt.to_bitvector()
        score = lambda i: quality_index(mb, table._row(i).to_bitvector())
        n = table.cols  # a binary row's k is n - key, or 0 for the match key n + 2^(n+1)
        scores = lambda: [QualityIndex(max(n - key, 0), n) for key in keys]
    else:
        score = lambda i: quality_arith(mt, table._row(i))
        scores = lambda: code_scores(mt, table.codes)
    return keys, score, scores


def query(table: AssocTable, m) -> QueryResult:
    """Find the best-interacting row(s) for query vector ``m``.

    The winners are the rows with the highest key; only the first of
    them is scored for ``best_index``, and ``per_row`` scores every row
    when it is read.
    """
    keys, score, scores = _keyed(table, m)
    best_key = max(keys)
    winners = [(i + 1, table.labels[i]) for i, key in enumerate(keys) if key == best_key]
    return QueryResult(table.mode, winners, score(winners[0][0] - 1), _Deferred(scores))


def rank(table: AssocTable, m, k: int) -> list[tuple[int, RowScore]]:
    """First k rows best-first, by key; ties broken by ascending row index.

    Only the k rows returned are scored.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    keys, score, _ = _keyed(table, m)
    # sorted() is stable, so tied rows stay in ascending order
    order = sorted(range(len(keys)), key=lambda i: -keys[i])[:k]
    return [(i + 1, score(i)) for i in order]


def diagnose(dictionary: AssocTable, response: BitVector) -> QueryResult:
    """Match a circuit response against a labeled fault dictionary.

    A plain :func:`query` restricted to binary signature tables; the
    winners carry the fault labels.
    """
    if not dictionary.is_binary:
        raise ModeMismatch("fault dictionary must contain binary signatures")
    return query(dictionary, response)
