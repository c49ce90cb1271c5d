import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lamp.bitvec import BitVector
from lamp.errors import LengthMismatch, ParseError, ZeroLength
from lamp.ternary import (
    InteractionClass,
    IntersectionResult,
    TernaryVector,
    card_x,
    classify_interaction,
    empty_coord_count,
    intersect,
)

tv = TernaryVector.parse

ternary_strings = st.text(alphabet="01x", min_size=1, max_size=24)


def oracle_points(text):
    """Independent point-set enumeration straight from the symbol string."""
    choice = {"0": "0", "1": "1", "x": "01"}
    return {"".join(p) for p in itertools.product(*(choice[c] for c in text))}


def oracle_class(m_text, a_text):
    pm, pa = oracle_points(m_text), oracle_points(a_text)
    if not pm & pa:
        return InteractionClass.DISJOINT
    if pm == pa:
        return InteractionClass.EQUAL
    if pm < pa:
        return InteractionClass.QUERY_INSIDE_ASSOCIATOR
    if pa < pm:
        return InteractionClass.ASSOCIATOR_INSIDE_QUERY
    return InteractionClass.OVERLAP


# --- construction ------------------------------------------------------------


def test_parse_print_round_trip():
    assert tv("10x").symbols() == "10x"
    assert tv("10X").symbols() == "10x"  # case-insensitive x
    assert tv("1_0x") == tv("10x")


def test_parse_rejects_bad_symbols():
    with pytest.raises(ParseError):
        tv("102")
    with pytest.raises(ZeroLength):
        tv("")


def test_points_count_is_power_of_two_in_x():
    v = tv("x0x1")
    assert card_x(v) == 2
    assert len(list(v.points())) == 4


def test_binary_conversion():
    v = tv("101")
    assert v.is_binary
    assert v.to_bitvector() == BitVector.parse("101")
    assert TernaryVector.from_bitvector(BitVector.parse("101")) == v
    with pytest.raises(ValueError):
        tv("1x").to_bitvector()


# --- intersection -------------------------------------------------------------


def test_intersect_example_with_oracle():
    r = intersect(tv("x0"), tv("xx"))
    assert not r.is_empty
    assert r.symbols() == "x0"
    got = {p.to01() for p in r.to_ternary().points()}
    assert got == oracle_points("x0") & oracle_points("xx")


def test_intersect_idempotent():
    v = tv("1x0")
    r = intersect(v, v)
    assert not r.is_empty
    assert r.to_ternary() == v


def test_intersect_clash_is_empty():
    r = intersect(tv("0x"), tv("1x"))
    assert r.is_empty
    assert r.empty_coords() == [1]
    assert r.symbols() == "ex"
    with pytest.raises(ValueError):
        r.to_ternary()


def test_intersect_length_mismatch():
    with pytest.raises(LengthMismatch):
        intersect(tv("0x"), tv("0xx"))


def test_card_x():
    assert card_x(tv("xx")) == 2
    assert card_x(tv("0110")) == 0
    assert card_x(tv("x0x1")) == 2


def test_empty_coord_count():
    assert empty_coord_count(tv("0101"), tv("1010")) == 4
    assert empty_coord_count(tv("x1x"), tv("x1x")) == 0
    assert empty_coord_count(tv("x10"), tv("100")) == 1


# --- interaction classes -------------------------------------------------------


def test_classify_examples():
    assert classify_interaction(tv("x0"), tv("x0")) is InteractionClass.EQUAL
    assert (
        classify_interaction(tv("x0"), tv("xx"))
        is InteractionClass.QUERY_INSIDE_ASSOCIATOR
    )
    assert (
        classify_interaction(tv("xx"), tv("x0"))
        is InteractionClass.ASSOCIATOR_INSIDE_QUERY
    )
    assert classify_interaction(tv("0x"), tv("1x")) is InteractionClass.DISJOINT
    assert classify_interaction(tv("x0"), tv("0x")) is InteractionClass.OVERLAP


def test_exhaustive_against_point_sets_small():
    # n <= 3 here; the acceptance suite pushes the same oracle to n = 4
    for n in range(1, 4):
        for m_syms in itertools.product("01x", repeat=n):
            for a_syms in itertools.product("01x", repeat=n):
                m_text, a_text = "".join(m_syms), "".join(a_syms)
                m, a = tv(m_text), tv(a_text)
                r = intersect(m, a)
                expected = oracle_points(m_text) & oracle_points(a_text)
                assert r.is_empty == (not expected)
                if expected:
                    got = {p.to01() for p in r.to_ternary().points()}
                    assert got == expected
                assert classify_interaction(m, a) is oracle_class(m_text, a_text)


_MIRROR = {
    InteractionClass.EQUAL: InteractionClass.EQUAL,
    InteractionClass.QUERY_INSIDE_ASSOCIATOR: InteractionClass.ASSOCIATOR_INSIDE_QUERY,
    InteractionClass.ASSOCIATOR_INSIDE_QUERY: InteractionClass.QUERY_INSIDE_ASSOCIATOR,
    InteractionClass.OVERLAP: InteractionClass.OVERLAP,
    InteractionClass.DISJOINT: InteractionClass.DISJOINT,
}


@given(ternary_strings, ternary_strings)
def test_classify_mirror_and_commutativity(s1, s2):
    if len(s1) != len(s2):
        s2 = (s2 * len(s1))[: len(s1)]
    m, a = tv(s1), tv(s2)
    assert classify_interaction(a, m) is _MIRROR[classify_interaction(m, a)]
    assert intersect(m, a).enc == intersect(a, m).enc


# --- the 2-bit code against a per-symbol definition ------------------------------
# Widths run past 64 symbols so every mask crosses a machine word.

long_ternary = st.text(alphabet="01x", min_size=1, max_size=70)
long_binary = st.text(alphabet="01", min_size=1, max_size=70)
PAIR_SYMBOL = {0b10: "0", 0b01: "1", 0b11: "x", 0b00: "e"}


def pair_symbols(value, n):
    """Decode a 2n-bit int one pair at a time, coordinate 1 first."""
    return "".join(PAIR_SYMBOL[(value >> (2 * (n - i))) & 0b11] for i in range(1, n + 1))


@st.composite
def pair_codes(draw):
    """(n, value): a 2n-bit int whose pairs favour 00 so empty pairs occur."""
    pairs = draw(st.lists(st.sampled_from([0b00, 0b01, 0b10, 0b11, 0b00]),
                          min_size=1, max_size=70))
    value = 0
    for p in pairs:
        value = (value << 2) | p
    return len(pairs), value


@given(long_ternary)
def test_mask_predicates_match_symbols(text):
    v = tv(text)
    assert v.symbols() == text
    assert [v.symbol(i) for i in range(1, v.n + 1)] == list(text)
    assert v.is_binary == ("x" not in text)
    assert card_x(v) == text.count("x")
    if "x" in text:
        with pytest.raises(ValueError):
            v.to_bitvector()
    else:
        assert v.to_bitvector().to01() == text


@given(long_binary)
def test_from_bitvector_round_trip(bits):
    b = BitVector.parse(bits)
    v = TernaryVector.from_bitvector(b)
    assert v.symbols() == bits
    assert v.is_binary
    assert v.to_bitvector() == b
    assert v == tv(bits)


@given(pair_codes())
def test_intersection_result_masks_match_pairs(code):
    n, value = code
    r = IntersectionResult(BitVector(2 * n, value))
    text = pair_symbols(value, n)
    empties = [i for i, s in enumerate(text, start=1) if s == "e"]
    assert r.symbols() == text
    assert r.empty_coords() == empties
    assert r.is_empty == bool(empties)


@given(pair_codes())
def test_empty_symbol_error_names_leftmost_coordinate(code):
    n, value = code
    text = pair_symbols(value, n)
    if "e" not in text:
        assert TernaryVector(BitVector(2 * n, value)).symbols() == text
        return
    with pytest.raises(ParseError) as err:
        TernaryVector(BitVector(2 * n, value))
    assert f"empty symbol at coordinate {text.index('e') + 1} " in str(err.value)


@given(long_ternary, long_ternary)
def test_empty_coord_count_matches_symbols(s1, s2):
    s2 = (s2 * len(s1))[: len(s1)]
    clashes = sum(1 for p, q in zip(s1, s2) if {p, q} == {"0", "1"})
    assert empty_coord_count(tv(s1), tv(s2)) == clashes
    assert intersect(tv(s1), tv(s2)).is_empty == bool(clashes)


@given(st.text(min_size=1, max_size=70))
def test_parse_names_first_bad_symbol(text):
    s = text.replace("_", "").lower()
    bad = [c for c in s if c not in "01x"]
    if not s:
        with pytest.raises(ZeroLength):
            tv(text)
    elif bad:
        with pytest.raises(ParseError) as err:
            tv(text)
        assert str(err.value) == f"invalid symbol {bad[0]!r} in vector literal {text!r}"
    else:
        assert tv(text).symbols() == s


@given(st.text(alphabet="01xX_", min_size=1, max_size=90))
def test_parse_matches_per_symbol_code(text):
    s = text.replace("_", "").lower()
    if not s:
        return
    pairs = "".join({"0": "10", "1": "01", "x": "11"}[c] for c in s)
    assert tv(text).enc == BitVector(len(pairs), int(pairs, 2))
