"""The table and vector parse contract, pinned against a per-symbol oracle.

``oracle_parse`` and ``oracle_load`` are the string-level reader that
``TernaryVector.parse`` and ``load_table`` must agree with: the same
symbols, labels, width and mode for every accepted text, and the same
exception class, message and line for every rejected one. The alphabet
holds the inputs that ``int()`` and ``bytes.isdigit()`` treat specially:
other digits, signs, spaces, tabs, underscores, non-ASCII digits and
letters, and a lone surrogate; and the characters that ``str.splitlines``
ends a line at but a file read in text mode does not.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamp.assoc import AssocTable, load_table
from lamp.bitvec import BitVector
from lamp.cli import main
from lamp.errors import EmptyTable, LampError, ParseError, WidthMismatch, ZeroLength
from lamp.ternary import TernaryVector

_DROP_SYMBOLS = str.maketrans("", "", "01x")


def oracle_parse(text: str) -> TernaryVector:
    """A {0,1,x} string (X accepted, underscores ignored) read symbol by symbol."""
    s = text.replace("_", "").lower()
    if not s:
        raise ZeroLength("empty vector literal")
    bad = s.translate(_DROP_SYMBOLS)
    if bad:
        raise ParseError(f"invalid symbol {bad[0]!r} in vector literal {text!r}")
    pairs = {"0": 0b10, "1": 0b01, "x": 0b11}
    code = 0
    for c in s:
        code = code << 2 | pairs[c]
    return TernaryVector(BitVector(2 * len(s), code))


def oracle_load(text: str):
    """(symbols, labels, width, binary) of a table text, line by line; a line
    ends at \\n, \\r\\n or \\r, as in a file read in text mode."""
    rows, labels, seen, width = [], [], set(), None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "\t" in line:
            label, _, vec_text = line.partition("\t")
            label, vec_text = label.strip(), vec_text.strip()
            if not label:
                raise ParseError("empty label before tab", line=lineno)
        else:
            label, vec_text = None, line
        try:
            row = oracle_parse(vec_text)
        except (ParseError, ZeroLength) as exc:
            raise ParseError(str(exc), line=lineno) from None
        if width is None:
            width = row.n
        elif row.n != width:
            raise WidthMismatch(f"line {lineno}: row width {row.n} differs from {width}")
        if label is not None:
            if label in seen:
                raise ParseError(f"duplicate row label {label!r}", line=lineno)
            seen.add(label)
        rows.append(row.symbols())
        labels.append(label)
    if not rows:
        raise EmptyTable("table 'table' has no rows")
    return rows, labels, width, all("x" not in r for r in rows)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LampError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


def loaded(text: str):
    t = load_table(text)
    return [r.symbols() for r in t.rows], t.labels, t.cols, t.is_binary


# the last eight end a line for str.splitlines only
NOISE = list("0123456789xX_+- \t#٣Ｘ") + ["\ud800", "\udcff", "F", "__"] + list(
    "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
)
noise = st.lists(st.sampled_from(NOISE), max_size=10).map("".join)


@st.composite
def vector_texts(draw, n):
    """n symbols from 0 1 x X, with runs of underscores around them."""
    symbols = draw(st.lists(st.sampled_from("01xX"), min_size=n, max_size=n))
    runs = st.sampled_from(["", "", "_", "__"])
    return "".join(draw(runs) + s for s in symbols) + draw(runs)


# str.isspace characters that str.strip removes and that end no line here
SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"]


@st.composite
def table_texts(draw):
    """Tables of labelled and unlabelled rows, clean or padded, between a
    header comment and blank lines, with lines ending in \\n or \\r\\n."""
    n = draw(st.integers(1, 6))
    label = st.sampled_from([None, None, "F1", "F2", " F3 ", ""])
    comment = st.sampled_from(["", "", "  # note", "#", "\t# tab"])
    pad = st.sampled_from(["", "", "", " ", *SPACES])

    @st.composite
    def good_line(draw):
        lab = draw(label)
        vec = draw(vector_texts(n))
        line = vec if lab is None else f"{lab}\t{vec}"
        return draw(pad) + line + draw(pad) + draw(comment)

    blank = st.sampled_from(["", "# a comment line", " ", *SPACES, "\x1c\u3000 \x85"])
    lines = draw(st.lists(st.one_of(good_line(), good_line(), good_line(), noise, blank),
                          max_size=6))
    head = draw(st.sampled_from([[], [], ["# header"], [""], ["", "\x85"]]))
    tail = draw(st.sampled_from([[], [""], ["", ""], [" ", "\u3000"]]))  # [""]: a final newline
    return draw(st.sampled_from(["\n", "\r\n"])).join(head + lines + tail)


@settings(max_examples=300, deadline=None)
@given(text=noise)
@example(text="")
@example(text="___")
@example(text="_1_0x_")
@example(text="X٣")
@example(text="1\ud800")
@example(text="+12")
@example(text=" 1 ")
def test_parse_matches_the_symbol_oracle(text):
    assert outcome(TernaryVector.parse, text) == outcome(oracle_parse, text)


@settings(max_examples=400, deadline=None)
@given(text=table_texts())
@example(text="F1\t1x0X\r\n__1x_0_x\n# end\n")
@example(text="10\n1z\n")
@example(text="F1\t10\nF1\t01\n")
@example(text="10\n101\n")
@example(text="10\n\t01\n")
@example(text="F1\t\n")
@example(text="___\n")
@example(text="# only a comment\n")
@example(text="1\ud800\n")
@example(text="Ｘ1\n")
@example(text="# header\r\n\r\nF1\t1x\r\n0_1\r\n\r\n")
@example(text="\x1c10\x1f\n\u3000\n01\x85\n")
@example(text="F1\t10\n01\t\n")
def test_load_table_matches_the_line_oracle(text):
    assert outcome(loaded, text) == outcome(oracle_load, text)


def query_report(path: str, m: str):
    """(status, stdout, stderr) of ``lamp query PATH --m M --format json``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["query", path, "--m", m, "--format", "json"])
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=table_texts())
@example(text="A\t01\f10\nB\t11\n")
@example(text="F1\t1x0X\r__1x_0_x\r\r# end\r")
@example(text="10\u202801\n01\x8510\n")
@example(text="10\r1z\n")
@example(text="# only a comment\r\n")
def test_a_string_a_text_file_and_lamp_query_read_one_table(text):
    from_str = outcome(loaded, text)
    assert outcome(loaded, io.StringIO(text, newline=None)) == from_str
    try:
        blob = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 file
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")  # the CLI names a table by its file
        with open(path, "wb") as fh:
            fh.write(blob)
        with open(path, encoding="utf-8") as fh:
            assert outcome(loaded, fh) == from_str
        if from_str[0] != "ok":
            assert query_report(path, "1") == (1, "", f"error: {from_str[1]}\n")
            return
        rows, labels = from_str[1][:2]
        report = query_report(path, rows[0])
        with open(path, "w", encoding="utf-8") as fh:  # the rows read, one a line
            for row, label in zip(rows, labels):
                fh.write(row + "\n" if label is None else f"{label}\t{row}\n")
        assert report[0] == 0
        assert report == query_report(path, rows[0])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_from_rows_of_strings_matches_the_oracle(data, n):
    texts = data.draw(st.lists(vector_texts(n), min_size=1, max_size=5))
    table = AssocTable.from_rows(texts)
    assert [r.symbols() for r in table.rows] == [oracle_parse(t).symbols() for t in texts]
    assert table.is_binary == all("x" not in t.lower() for t in texts)


def test_query_vector_with_surrogate_escaped_byte_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "t.tbl"
    path.write_text("1010\n0101\n")
    # a non-UTF-8 argv byte reaches main() surrogate-escaped
    code = main(["query", str(path), "--m", "1\udcff0"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == "error: invalid symbol '\\udcff' in vector literal '1\\udcff0'\n"


def test_each_item_of_an_iterable_is_one_line():
    assert loaded(["01", "10"]) == (["01", "10"], [None, None], 2, True)
    # a newline inside an item is a symbol of that line, not a line break
    assert outcome(loaded, ["0", "1\n10"]) == (
        ParseError, "line 2: invalid symbol '\\n' in vector literal '1\\n10'", 2
    )


@pytest.mark.parametrize(
    "text, expect",
    [
        ("# ternary patterns, 25% x\n0x1\n1X0\n_xx1\n",
         (["0x1", "1x0", "xx1"], [None] * 3, 3, False)),
        ("# labelled binary fault dictionary\nF0001\t0101\nF0002\t1100\n",
         (["0101", "1100"], ["F0001", "F0002"], 4, True)),
        ("\n#a\n# b\n10# c\n01\n\n", (["10", "01"], [None] * 2, 2, True)),
        ("F1\t10\n01\r\n", (["10", "01"], ["F1", None], 2, True)),
    ],
    ids=["benchmark-query", "benchmark-diag", "comments", "mixed-crlf"],
)
def test_a_text_of_clean_rows_is_read_whole(monkeypatch, text, expect):
    # comments are cut and the ends stripped over the whole text; every
    # line left is then a row as it stands, so no line is stripped alone
    import lamp.assoc

    def by_line(*args):
        raise AssertionError("the text was read line by line")

    monkeypatch.setattr(lamp.assoc, "_by_line", by_line)
    assert loaded(text) == expect == oracle_load(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert query_report(path, expect[0][0])[0] == 0


@settings(max_examples=200, deadline=None)
@given(text=table_texts())
@example(text="A\t01\r\nB\t10\r\n")
@example(text="A\t01\rB\t1z\r")
@example(text="10\r\n\r101\n")
def test_a_file_reads_alike_with_newline_none_and_newline_empty(text):
    try:
        blob = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 file
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        with open(path, "wb") as fh:
            fh.write(blob)
        with open(path, encoding="utf-8", newline=None) as fh:
            translated = outcome(loaded, fh)
        with open(path, encoding="utf-8", newline="") as fh:
            assert outcome(loaded, fh) == translated


@pytest.mark.parametrize(
    "text, line",
    [
        ("10\n1z\n101\n", 2),  # a bad symbol before a bad width
        ("10\n101\n1z\n", 2),  # a bad width before a bad symbol
        ("F1\t10\nF1\t01\n1z\n", 2),  # a duplicate label before a bad symbol
        ("F1\t10\n1z\nF1\t01\n", 2),  # a bad symbol before a duplicate label
        ("F1\t10\n101\nF1\t01\n", 2),  # a bad width before a duplicate label
        ("F1\t10\nF1\t1z\n", 2),  # one line: its symbol before its label
        ("F1\t10\nF1\t__\n", 2),  # one line: its empty vector before its label
        ("F1\t10\nF1\t101\n", 2),  # one line: its width before its label
    ],
)
def test_the_earliest_bad_line_is_the_one_reported(text, line):
    got = outcome(loaded, text)
    assert got == outcome(oracle_load, text)
    assert got[1].startswith(f"line {line}: ")


@pytest.mark.parametrize(
    "text",
    [
        "1 0\n111\n", "111\n1 0\n",  # a space inside a row, first or last line
        "+10\n111\n", "111\n10+\n", "11\n+1\n11\n", "-1\n11\n",  # a sign, at a column's ends
        "1\x000\n111\n", "1٣0\n111\n",  # a NUL, a non-ASCII digit
        "101\n1\u000b0\n",  # a vertical tab, which int() strips at a column's end
    ],
)
def test_bytes_that_int_accepts_at_a_columns_ends_are_refused(text):
    # the columns are read with int(), which allows a sign or a space at
    # either end of its text, that is in the first or the last line
    assert outcome(loaded, text) == outcome(oracle_load, text)
    assert outcome(loaded, text)[0] is ParseError
