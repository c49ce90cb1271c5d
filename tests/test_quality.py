import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lamp.bitvec import BitVector, sls, vand, vor, vxor
from lamp.errors import LengthMismatch, NotCompacted
from lamp.quality import (
    arith_keys,
    choose_best,
    criterion_arith,
    criterion_vector,
    quality_arith,
    quality_index,
)
from lamp.ternary import TernaryVector

bv = BitVector.parse
tv = TernaryVector.parse

M12 = "110011001100"
A12 = "000011110101"


def oracle_int_criterion(m_text, a_text):
    """Count the integer criterion one character at a time."""
    d = ones_m = ones_a = common = 0
    for mc, ac in zip(m_text, a_text):
        d += mc != ac
        ones_m += mc == "1"
        ones_a += ac == "1"
        common += mc == "1" and ac == "1"
    return d, ones_a - common, ones_m - common


def ones_at(v):
    return {i for i in range(1, v.n + 1) if v.bit(i) == 1}


# --- vector criterion: the worked 12-bit pair -----------------------------


def test_worked_pair_component_vectors():
    qv = criterion_vector(bv(M12), bv(A12))
    assert ones_at(vand(bv(M12), bv(A12))) == {5, 6, 10}
    assert qv.d_vec.ones_count() == 6
    assert ones_at(qv.mu_a_in_m_vec) == {1, 2, 9}
    assert ones_at(qv.mu_m_in_a_vec) == {7, 8, 12}
    assert qv.q_vec == qv.d_vec
    assert qv.q_compacted == bv("111111000000")
    assert quality_index(bv(M12), bv(A12)).k == 6
    assert quality_index(bv(M12), bv(A12)).n == 12


def test_equal_vectors_give_all_zero_criterion():
    v = bv("101101")
    qv = criterion_vector(v, v)
    zero = BitVector.zeros(6)
    assert (qv.d_vec, qv.mu_m_in_a_vec, qv.mu_a_in_m_vec, qv.q_vec) == (
        zero, zero, zero, zero,
    )


def test_two_bit_pair():
    qv = criterion_vector(bv("10"), bv("01"))
    assert qv.d_vec == bv("11")
    assert qv.mu_a_in_m_vec == bv("10")
    assert qv.mu_m_in_a_vec == bv("01")
    assert qv.q_vec == bv("11")


# --- integer criterion -------------------------------------------------------


def test_int_criterion_worked_pair_matches_oracle():
    expected = oracle_int_criterion(M12, A12)
    assert expected == (6, 3, 3)
    s = criterion_arith(bv(M12), bv(A12))
    assert (s.d_card, s.nonmembership_m_in_a, s.nonmembership_a_in_m) == expected
    assert s.value == 12


def test_int_criterion_zero_iff_equal():
    v = bv("0110")
    assert criterion_arith(v, v).value == 0


def test_int_criterion_all_ones_vs_all_zeros():
    s = criterion_arith(bv("1111"), bv("0000"))
    assert (s.d_card, s.nonmembership_m_in_a, s.nonmembership_a_in_m) == (4, 0, 4)
    assert s.value == 8


# --- normalized metric -------------------------------------------------------


def test_half_space_witness():
    s = quality_arith(tv("x0"), tv("xx"))
    assert s.d == Fraction(1)
    assert s.mu_m_in_a == Fraction(1, 2)
    assert s.mu_a_in_m == Fraction(1)
    assert s.value == Fraction(5, 6)


def test_half_and_half_witness():
    s = quality_arith(tv("x1"), tv("1x"))
    assert s.d == Fraction(1)
    assert s.mu_m_in_a == Fraction(1, 2)
    assert s.mu_a_in_m == Fraction(1, 2)
    assert s.value == Fraction(2, 3)


def test_equal_ternary_vectors_score_one():
    for text in ("x0", "1x0x", "0101"):
        assert quality_arith(tv(text), tv(text)).value == Fraction(1)


def test_fully_clashing_vectors_score_zero():
    assert quality_arith(tv("0101"), tv("1010")).value == Fraction(0)


def test_normalized_metric_is_exact_rational():
    s = quality_arith(tv("x0x"), tv("xxx"))
    assert isinstance(s.value, Fraction)
    # 2^-2 membership must not pick up float drift
    assert quality_arith(tv("x00"), tv("xxx")).mu_m_in_a == Fraction(1, 4)


def test_membership_ratios_match_point_sets():
    # spot check; the acceptance suite sweeps all pairs up to n = 4
    def points(t):
        return {p.to01() for p in tv(t).points()}

    for m_text, a_text in (("x0", "xx"), ("x1x", "xx0"), ("01x", "0xx")):
        common = points(m_text) & points(a_text)
        s = quality_arith(tv(m_text), tv(a_text))
        assert s.mu_m_in_a == Fraction(len(common), len(points(a_text)))
        assert s.mu_a_in_m == Fraction(len(common), len(points(m_text)))


def test_zero_width_unrepresentable():
    from lamp.errors import ZeroLength

    with pytest.raises(ZeroLength):
        tv("")


def test_metric_length_mismatch():
    with pytest.raises(LengthMismatch):
        quality_arith(tv("x"), tv("xx"))
    with pytest.raises(LengthMismatch):
        criterion_arith(bv("1"), bv("11"))


# --- decision rule -----------------------------------------------------------


def test_choose_best_worked_pair():
    q1 = bv("111111000000")
    q2 = bv("111111110000")
    winner, flag = choose_best(q1, q2)
    assert winner == q1 and flag == 0


def test_choose_best_tie_keeps_first():
    q = bv("111000")
    winner, flag = choose_best(q, q)
    assert winner == q and flag == 0


def test_choose_best_second_wins():
    q1 = bv("111111110000")
    q2 = bv("111111000000")
    winner, flag = choose_best(q1, q2)
    # oracle: the compacted vector with fewer ones is better
    assert q2.ones_count() < q1.ones_count()
    assert winner == q2 and flag == 1


def test_choose_best_rejects_uncompacted():
    with pytest.raises(NotCompacted):
        choose_best(bv("0101"), bv("1100"))
    with pytest.raises(LengthMismatch):
        choose_best(bv("10"), bv("100"))


@given(st.integers(0, 12), st.integers(0, 12))
def test_choose_best_selects_fewer_ones(k1, k2):
    q1 = sls(BitVector(12, (1 << k1) - 1))
    q2 = sls(BitVector(12, (1 << k2) - 1))
    winner, flag = choose_best(q1, q2)
    assert winner.ones_count() == min(k1, k2)
    assert flag == (0 if k1 <= k2 else 1)


# --- binary collapse and ranking consistency ---------------------------------


def test_binary_collapse_exhaustive_n4():
    # full n <= 6 sweep lives in the acceptance suite
    for n in range(1, 5):
        for mv in itertools.product("01", repeat=n):
            for av in itertools.product("01", repeat=n):
                m, a = bv("".join(mv)), bv("".join(av))
                qv = criterion_vector(m, a)
                assert qv.q_vec == vxor(m, a)
                assert vand(qv.mu_m_in_a_vec, qv.mu_a_in_m_vec).ones_count() == 0
                assert vor(qv.mu_m_in_a_vec, qv.mu_a_in_m_vec) == qv.d_vec
                assert criterion_arith(m, a).value == 2 * qv.d_vec.ones_count()


def test_binary_collapse_randomized_large():
    rng = random.Random(11)
    for n in (333, 4096):
        m = BitVector(n, rng.getrandbits(n))
        a = BitVector(n, rng.getrandbits(n))
        qv = criterion_vector(m, a)
        assert qv.q_vec == vxor(m, a)
        assert qv.mu_m_in_a_vec == vand(a, ~m)
        assert qv.mu_a_in_m_vec == vand(m, ~a)
        assert quality_index(m, a).k == qv.q_vec.ones_count()


@given(st.integers(1, 64), st.randoms(use_true_random=False))
def test_ranking_consistency(n, rng):
    m = BitVector(n, rng.getrandbits(n))
    a1 = BitVector(n, rng.getrandbits(n))
    a2 = BitVector(n, rng.getrandbits(n))
    lt_int = criterion_arith(m, a1).value < criterion_arith(m, a2).value
    lt_vec = quality_index(m, a1).k < quality_index(m, a2).k
    assert lt_int == lt_vec


# --- ternary order keys ---------------------------------------------------------

ALPHABETS = ["01x", "01", "x", "0x", "1x"]  # mixed, all-binary, all-x, ...


@st.composite
def query_and_rows(draw):
    """(m, rows) of one width in 1..70; half the rows meet m in every
    coordinate (e = 0), the rest are free, so most of those have e >= 1."""
    n = draw(st.integers(1, 70))

    def vec(alphabet):
        return "".join(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))

    m = vec(draw(st.sampled_from(ALPHABETS)))
    rows = []
    for _ in range(draw(st.integers(2, 8))):
        free = vec(draw(st.sampled_from(ALPHABETS)))
        if draw(st.booleans()):  # keep m's binary symbols where free has none
            free = "".join(f if s == "x" or f == "x" else s for s, f in zip(m, free))
        rows.append(free)
    return m, rows


@given(query_and_rows())
@example(("xxxx", ["xxxx", "0000", "1x1x", "0101"]))
@example(("0101", ["0101", "1010", "0100", "x1x1", "xxxx"]))
@example(("x", ["0", "1", "x"]))
@example(("0110", ["0110", "1001", "0111", "0110", "1110", "0100"]))
@example(("1" * 70, ["1" * 70, "0" * 70, "1" * 69 + "0", "0" + "1" * 69]))
def test_arith_keys_order_and_tie_exactly_as_quality_arith(case):
    m, rows = case
    keys = arith_keys(tv(m), [tv(r) for r in rows])
    qs = [quality_arith(tv(m), tv(r)).value for r in rows]
    for (k1, q1), (k2, q2) in itertools.product(zip(keys, qs), repeat=2):
        assert (k1 < k2) == (q1 < q2)
        assert (k1 == k2) == (q1 == q2)
    if "x" not in m:  # binary rows: a higher key is a lower quality index k
        binary = [(key, quality_index(bv(m), bv(r)).k) for key, r in zip(keys, rows)
                  if "x" not in r]
        for (k1, i1), (k2, i2) in itertools.product(binary, repeat=2):
            assert (k1 > k2) == (i1 < i2)
            assert (k1 == k2) == (i1 == i2)


def test_arith_keys_follow_the_derivation():
    n = 4
    m = tv("1x0x")
    assert arith_keys(m, [tv("0101"), tv("0x1x"), tv("1x0x"), tv("xxxx")]) == [
        n - 1,  # e = 1
        n - 2,  # e = 2
        n + 2**n + 2**n,  # equal cubes: both memberships 1
        n + 2 ** (n - 4 + 2) + 2**n,  # a covers m: mu(m in A) = 1/4
    ]


def test_arith_keys_width_mismatch():
    with pytest.raises(LengthMismatch):
        arith_keys(tv("x0"), [tv("x0"), tv("x00")])
