"""The table and vector parse contract, pinned against a per-symbol oracle.

``oracle_parse`` and ``oracle_load`` are the string-level reader that
``TernaryVector.parse`` and ``load_table`` must agree with: the same
symbols, labels, width and mode for every accepted text, and the same
exception class, message and line for every rejected one. The alphabet
holds the inputs that ``int()`` and ``bytes.isdigit()`` treat specially:
other digits, signs, spaces, tabs, underscores, non-ASCII digits and
letters, and a lone surrogate.
"""

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
    """(symbols, labels, width, binary) of a table text, line by line."""
    rows, labels, seen, width = [], [], set(), None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


NOISE = list("0123456789xX_+- \t#٣Ｘ") + ["\ud800", "\udcff", "F", "__"]
noise = st.lists(st.sampled_from(NOISE), max_size=10).map("".join)


@st.composite
def vector_texts(draw, n):
    """n symbols from 0 1 x X, with runs of underscores around them."""
    symbols = draw(st.lists(st.sampled_from("01xX"), min_size=n, max_size=n))
    runs = st.sampled_from(["", "", "_", "__"])
    return "".join(draw(runs) + s for s in symbols) + draw(runs)


@st.composite
def table_texts(draw):
    n = draw(st.integers(1, 6))
    label = st.sampled_from([None, "F1", "F2", " F3 ", ""])
    comment = st.sampled_from(["", "  # note", "#", "\t# tab"])

    @st.composite
    def good_line(draw):
        lab = draw(label)
        vec = draw(vector_texts(n))
        return (vec if lab is None else f"{lab}\t{vec}") + draw(comment)

    lines = draw(st.lists(st.one_of(good_line(), good_line(), noise), max_size=6))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


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
def test_load_table_matches_the_line_oracle(text):
    assert outcome(loaded, text) == outcome(oracle_load, text)


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
