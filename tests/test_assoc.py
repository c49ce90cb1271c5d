import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp.assoc import AssocTable, Mode, diagnose, load_table, query, rank
from lamp.bitvec import BitVector
from lamp.errors import (
    EmptyTable,
    InvalidArgument,
    LengthMismatch,
    ModeMismatch,
    NotAVector,
    ParseError,
    WidthMismatch,
    ZeroLength,
)
from lamp.quality import QualityIndex, quality_arith, quality_index
from lamp.ternary import TernaryVector

bv = BitVector.parse
tv = TernaryVector.parse


def oracle_scalar_value(m_text, a_text):
    """Brute-force integer criterion, one character at a time."""
    d = ones_m = ones_a = common = 0
    for mc, ac in zip(m_text, a_text):
        d += mc != ac
        ones_m += mc == "1"
        ones_a += ac == "1"
        common += mc == "1" and ac == "1"
    return d + (ones_a - common) + (ones_m - common)


# --- loading ------------------------------------------------------------------


def test_load_bare_rows():
    t = load_table("101\n011")
    assert t.cols == 3 and len(t) == 2
    assert t.is_binary


def test_load_ternary_rows():
    t = load_table(io.StringIO("10x1\nx0x0\n"))
    assert t.cols == 4
    assert not t.is_binary


def test_load_ragged_rows_rejected():
    with pytest.raises(WidthMismatch):
        load_table("101\n0110")


def test_load_comments_blanks_and_labels():
    t = load_table(
        "# fault dictionary\n"
        "\n"
        "F1\t1100   # stuck-at on net 7\n"
        "F2\t0011\n"
    )
    assert t.labels == ["F1", "F2"]
    assert t.rows[0] == tv("1100")


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
def test_label_count_must_match_rows(labels):
    with pytest.raises(ParseError, match=f"{len(labels)} labels for 2 rows"):
        AssocTable.from_rows(["10", "01"], labels=labels)


def test_load_duplicate_label_rejected():
    with pytest.raises(ParseError) as err:
        load_table("F1\t10\nF1\t01")
    assert err.value.line == 2
    # unlabeled rows, comments and blank lines do not hide a later duplicate
    with pytest.raises(ParseError) as err:
        load_table("# faults\nF1\t10\n11\n\nF2\t00\nF1\t01\n")
    assert err.value.line == 6


def test_load_bad_symbol_carries_line_number():
    with pytest.raises(ParseError) as err:
        load_table("1100\n12z0\n")
    assert err.value.line == 2


def test_load_empty_rejected():
    with pytest.raises(EmptyTable):
        load_table("# nothing here\n\n")


def test_load_label_without_vector_is_parse_error():
    with pytest.raises(ParseError) as err:
        load_table("F1\t1100\nF2\t\n")
    assert err.value.line == 2


def test_table_invariants():
    with pytest.raises(EmptyTable):
        AssocTable.from_rows([])
    with pytest.raises(WidthMismatch):
        AssocTable("t", 3, [tv("10").enc.value])


def test_table_checks_its_codes():
    code = tv("1x0").enc.value
    t = AssocTable("t", 3, [code, tv("101").enc.value], ["a", None])
    assert t.codes == [code, 0b011001] and t.rows == [tv("1x0"), tv("101")]
    assert t.mode is Mode.TERNARY and len(t) == 2
    assert AssocTable("t", 2, [0b1001]).mode is Mode.BINARY
    with pytest.raises(NotAVector, match="expected a row code, got TernaryVector"):
        AssocTable("t", 3, [code, tv("1x0")])
    with pytest.raises(WidthMismatch, match="row width 4 differs from table width 3"):
        AssocTable("t", 3, [code, tv("1x01").enc.value])
    with pytest.raises(WidthMismatch, match="row width 2 differs from table width 3"):
        AssocTable("t", 3, [tv("10").enc.value])
    with pytest.raises(ParseError, match="empty symbol at coordinate 2 not allowed"):
        AssocTable("t", 3, [0b100001])
    with pytest.raises(InvalidArgument, match="row code -1 is negative"):
        AssocTable("t", 3, [code, -1])
    with pytest.raises(ZeroLength):
        AssocTable("t", 0, [0])
    with pytest.raises(ParseError, match="duplicate row label 'b'"):
        AssocTable("t", 3, [code] * 4, ["a", "b", None, "b"])


# --- binary query -------------------------------------------------------------


def test_query_worked_pair_table():
    t = AssocTable.from_rows(["000011110101", "110011001100"])
    res = query(t, bv("110011001100"))
    assert res.mode is Mode.BINARY
    assert res.best_rows == [(2, None)]
    assert (res.best_index.k, res.best_index.n) == (0, 12)
    assert [s.k for s in res.per_row] == [6, 0]


def test_query_single_row_always_wins():
    t = AssocTable.from_rows(["1010"])
    res = query(t, bv("0101"))
    assert res.best_rows == [(1, None)]


def test_query_nested_prefix_table():
    t = AssocTable.from_rows(["0011", "0111", "1111"])
    m = "0011"
    # oracle: brute-force scalar criterion per row, halved = index k
    expect = [oracle_scalar_value(m, r) // 2 for r in ("0011", "0111", "1111")]
    res = query(t, bv(m))
    assert [s.k for s in res.per_row] == expect == [0, 1, 2]
    assert res.best_rows == [(1, None)]


def test_query_mode_and_length_checks():
    t = AssocTable.from_rows(["1010"])
    with pytest.raises(ModeMismatch):
        query(t, tv("1x10"))
    with pytest.raises(LengthMismatch):
        query(t, bv("10"))


def test_query_accepts_ternary_typed_binary_vector():
    t = AssocTable.from_rows(["1010"])
    assert query(t, tv("1010")).best_index.k == 0


# --- ternary query ------------------------------------------------------------


def test_ternary_query_scores_with_normalized_metric():
    t = AssocTable.from_rows(["xx00", "x0x0", "1111"])
    res = query(t, tv("x000"))
    assert res.mode is Mode.TERNARY
    assert len(res.per_row) == 3
    assert res.best_index.value == max(s.value for s in res.per_row)


def test_ternary_query_exact_row_is_unique_maximizer():
    t = AssocTable.from_rows(["x0x", "1xx", "x00"])
    res = query(t, tv("x0x"))
    assert res.best_rows == [(1, None)]
    assert res.best_index.value == Fraction(1)


def test_ternary_query_reports_all_maximal_rows():
    t = AssocTable.from_rows(["x0", "x0", "01"])
    res = query(t, tv("x0"))
    assert res.best_rows == [(1, None), (2, None)]


# --- rank ---------------------------------------------------------------------


def test_rank_orders_by_index_then_row():
    t = AssocTable.from_rows(["0011", "0111", "1111"])
    got = rank(t, bv("0011"), 2)
    assert [(i, s.k, s.n) for i, s in got] == [(1, 0, 4), (2, 1, 4)]


def test_rank_k_at_least_row_count_gives_full_ordering():
    t = AssocTable.from_rows(["0011", "0111", "1111"])
    got = rank(t, bv("0011"), 10)
    assert [i for i, _ in got] == [1, 2, 3]


def test_rank_head_matches_query_winner():
    t = AssocTable.from_rows(["1100", "0110", "0011"])
    m = bv("0111")
    assert rank(t, m, 1)[0][0] == query(t, m).best_rows[0][0]


def test_rank_requires_positive_k():
    t = AssocTable.from_rows(["10"])
    with pytest.raises(ValueError):
        rank(t, bv("10"), 0)


def test_rank_ternary_best_first():
    t = AssocTable.from_rows(["x0", "01", "xx"])
    got = rank(t, tv("x0"), 3)
    values = [s.value for _, s in got]
    assert values == sorted(values, reverse=True)


# --- diagnose -------------------------------------------------------------------


def fault_dict():
    return AssocTable.from_rows(["1100", "0011"], labels=["F1", "F2"])


def test_diagnose_exact_signature():
    res = diagnose(fault_dict(), bv("1100"))
    assert res.best_rows == [(1, "F1")]
    assert (res.best_index.k, res.best_index.n) == (0, 4)


def test_diagnose_near_signature():
    # oracle: scalar criterion halves to k = 1 for F1, k = 3 for F2
    assert oracle_scalar_value("1000", "1100") // 2 == 1
    assert oracle_scalar_value("1000", "0011") // 2 == 3
    res = diagnose(fault_dict(), bv("1000"))
    assert res.best_rows == [(1, "F1")]
    assert res.best_index.k == 1


def test_diagnose_tie_returns_both_rows():
    assert oracle_scalar_value("1111", "1100") // 2 == 2
    assert oracle_scalar_value("1111", "0011") // 2 == 2
    res = diagnose(fault_dict(), bv("1111"))
    assert res.best_rows == [(1, "F1"), (2, "F2")]
    assert res.best_index.k == 2


def test_diagnose_rejects_ternary_dictionary():
    t = AssocTable.from_rows(["1x00", "0011"])
    with pytest.raises(ModeMismatch):
        diagnose(t, bv("1100"))


# --- oracle equivalence over random tables ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_query_matches_brute_force_argmin(data):
    n = data.draw(st.integers(1, 64))
    rows = data.draw(
        st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=16)
    )
    m_val = data.draw(st.integers(0, 2**n - 1))
    table = AssocTable.from_rows([BitVector(n, r) for r in rows])
    m = BitVector(n, m_val)
    scores = [
        oracle_scalar_value(m.to01(), BitVector(n, r).to01()) for r in rows
    ]
    best = min(scores)
    expect = [i + 1 for i, s in enumerate(scores) if s == best]
    res = query(table, m)
    assert [i for i, _ in res.best_rows] == expect


def oracle_q(m_text, a_text):
    """Q from the symbols alone: meet each coordinate, then count points."""
    meet = []
    for p, q in zip(m_text, a_text):
        meet.append(q if p == "x" else p if q in ("x", p) else None)
    n, e = len(meet), meet.count(None)
    d = Fraction(n - e, n)
    if e:
        return d / 3
    cx = meet.count("x")
    return (d + Fraction(2**cx, 2 ** a_text.count("x"))
            + Fraction(2**cx, 2 ** m_text.count("x"))) / 3


def _ternary_table(rng):
    """A random table and query; about half the tables are built to tie."""
    n = rng.choice([1, 2, 3, 5, 8, 16, 40, 70])
    share = rng.choice([0.0, 0.25, 0.5, 1.0])  # x share: all-binary .. all-x

    def vec():
        return "".join("x" if rng.random() < share else rng.choice("01") for _ in range(n))

    m = vec()
    rows = [vec() for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.5:
        # copies of one row, and rows that hold m's binary symbols with the
        # same number of x in other places, tie with each other
        rows += [rng.choice(rows) for _ in range(3)]
        xs = [i for i, s in enumerate(m) if s != "x"]
        k = rng.randint(0, len(xs))
        for _ in range(3):
            picked = set(rng.sample(xs, k))
            rows.append("".join("x" if i in picked else s for i, s in enumerate(m)))
        rng.shuffle(rows)
    return m, rows


def test_ternary_query_matches_fraction_oracle():
    rng = random.Random(6)
    checked = ties = 0
    for _ in range(400):
        m, rows = _ternary_table(rng)
        labels = [f"r{i}" if i % 2 else None for i in range(len(rows))]
        table = AssocTable.from_rows(rows, labels=labels)
        if table.is_binary:
            continue
        qs = [oracle_q(m, r) for r in rows]
        best = max(qs)
        expect = [(i + 1, labels[i]) for i, q in enumerate(qs) if q == best]
        res = query(table, tv(m))
        assert res.best_rows == expect
        assert res.best_index == quality_arith(tv(m), tv(rows[expect[0][0] - 1]))
        assert res.best_index.value == best
        assert [s.value for s in res.per_row] == qs
        checked += 1
        ties += len(expect) > 1
    # at this seed: 332 ternary tables, 274 of them with tied winners
    assert checked >= 300 and 200 <= ties < checked


def count_score_calls(monkeypatch, name="quality_arith") -> list:
    """Record the row of every call of scorer ``name`` made by lamp.assoc."""
    import lamp.assoc

    score = getattr(lamp.assoc, name)
    calls = []

    def counted(m, a):
        calls.append(a)
        return score(m, a)

    monkeypatch.setattr(lamp.assoc, name, counted)
    return calls


def test_ternary_query_scores_only_the_first_winner(monkeypatch):
    arith_calls = count_score_calls(monkeypatch, "quality_arith")
    index_calls = count_score_calls(monkeypatch, "quality_index")
    ternary = ["x0", "10", "x0", "0x", "11"]
    binary = ["10", "01", "10", "00", "11"]
    # (calls, parse, m, rows, score of a per_row entry, expected scores): reading
    # per_row calls no scorer, since both modes build it from the keys' counts
    cases = [
        (arith_calls, tv, "x0", ternary, lambda s: s.value, [oracle_q("x0", r) for r in ternary]),
        (index_calls, bv, "10", binary, lambda s: s.k, [0, 2, 0, 1, 1]),
    ]
    for calls, parse, m, rows, value, expect in cases:
        res = query(AssocTable.from_rows(rows), parse(m))
        assert res.best_rows == [(1, None), (3, None)]
        assert calls == [parse(rows[0])]
        assert [value(s) for s in res.per_row] == expect
        assert len(res.per_row) == len(rows)
        assert res.per_row is res.per_row  # computed on first read, then kept
        assert len(calls) == 1
    assert len(arith_calls) == 1 and len(index_calls) == 1


def test_ternary_per_row_from_the_codes_equals_quality_arith():
    rng = random.Random(9)
    empty = whole = 0
    for _ in range(300):
        m, rows = _ternary_table(rng)
        table = AssocTable.from_rows(rows)
        if table.is_binary:
            continue
        expect = [quality_arith(tv(m), tv(r)) for r in rows]
        assert query(table, tv(m)).per_row == expect
        empty += sum(s.mu_m_in_a == 0 for s in expect)
        whole += sum(s.mu_m_in_a > 0 for s in expect)
    assert empty > 100 and whole > 100  # rows with and without an empty meet


def test_binary_per_row_read_off_the_keys_equals_quality_index():
    rng = random.Random(8)
    for n in (1, 2, 5, 64, 70):
        m = rng.getrandbits(n)
        rows = [rng.getrandbits(n) for _ in range(30)] + [m, m, m ^ 1]  # exact matches
        rng.shuffle(rows)
        mb = BitVector(n, m)
        res = query(AssocTable.from_rows([BitVector(n, v) for v in rows]), mb)
        assert res.per_row == [quality_index(mb, BitVector(n, v)) for v in rows]
        assert 0 in [s.k for s in res.per_row]


def test_query_result_keeps_its_dataclass_interface():
    import dataclasses

    from lamp.assoc import QueryResult

    t = AssocTable.from_rows(["x0", "10", "x0", "0x"])
    lazy = query(t, tv("x0"))
    built = QueryResult(lazy.mode, lazy.best_rows, lazy.best_index,
                        [quality_arith(tv("x0"), row) for row in t.rows])
    assert [f.name for f in dataclasses.fields(QueryResult)] == [
        "mode", "best_rows", "best_index", "per_row"]
    assert lazy == built
    assert repr(lazy) == repr(built)
    assert dataclasses.asdict(lazy) == dataclasses.asdict(built)
    assert dataclasses.replace(lazy, per_row=[]).per_row == []
    assert lazy != dataclasses.replace(built, per_row=built.per_row[:1])
    with pytest.raises(TypeError):
        QueryResult(lazy.mode, lazy.best_rows, lazy.best_index)


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_rank_scores_at_most_k_ternary_rows(monkeypatch, k):
    import lamp.assoc

    calls = count_score_calls(monkeypatch)
    rows = ["x0x1", "0101", "x0x1", "xxxx", "1010", "00x1", "x011"]
    got = rank(AssocTable.from_rows(rows), tv("00x1"), k)
    assert len(calls) == min(k, len(rows))
    qs = [oracle_q("00x1", r) for r in rows]
    expect = sorted(range(len(rows)), key=lambda i: (-qs[i], i))[:k]
    assert [(i, s.value) for i, s in got] == [(i + 1, qs[i]) for i in expect]

    # a binary rank neither runs query() nor scores more than its k rows
    def forbidden(*args):
        raise AssertionError("rank called query")

    monkeypatch.setattr(lamp.assoc, "query", forbidden)
    calls = count_score_calls(monkeypatch, "quality_index")
    rows = ["0101", "1100", "0101", "1111", "0000", "0111", "1101"]
    got = rank(AssocTable.from_rows(rows), bv("0101"), k)
    assert len(calls) == min(k, len(rows))
    ks = [(bv(r).value ^ 0b0101).bit_count() for r in rows]
    expect = sorted(range(len(rows)), key=lambda i: (ks[i], i))[:k]
    assert [(i, s.k) for i, s in got] == [(i + 1, ks[i]) for i in expect]


def test_fold_keeps_first_minimal_row():
    # two tied rows: the and/xor/or-fold decision keeps the earlier one
    t = AssocTable.from_rows(["1100", "0110", "1100"])
    res = query(t, bv("1100"))
    assert res.best_rows[0] == (1, None)
    assert [i for i, _ in res.best_rows] == [1, 3]


def test_binary_rows_converted_and_checked_once(monkeypatch):
    import lamp.assoc
    import lamp.quality

    values = range(0, 63, 7)
    n = len(values)
    table = AssocTable.from_rows([BitVector(6, v) for v in values])
    calls = {"to_bitvector": 0, "is_binary": 0}
    to_bitvector = TernaryVector.to_bitvector
    is_binary = TernaryVector.is_binary.fget

    def counted_to_bitvector(self):
        calls["to_bitvector"] += 1
        return to_bitvector(self)

    def counted_is_binary(self):
        calls["is_binary"] += 1
        return is_binary(self)

    def forbidden(*args):
        raise AssertionError("criterion_vector called on the query path")

    monkeypatch.setattr(TernaryVector, "to_bitvector", counted_to_bitvector)
    monkeypatch.setattr(TernaryVector, "is_binary", property(counted_is_binary))
    monkeypatch.setattr(lamp.quality, "criterion_vector", forbidden)
    monkeypatch.setattr(lamp.assoc, "criterion_vector", forbidden)
    probes = [bv("000111"), bv("101010")]
    for m in probes:
        assert query(table, m).best_index.k == min(
            (m.value ^ v).bit_count() for v in values
        )
    # one row conversion per probe, for best_index; each conversion reads
    # is_binary, and the query check reads it once per probe
    assert calls["to_bitvector"] <= n + len(probes)
    assert calls["is_binary"] <= n + 2 * len(probes)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fold_winner_equals_first_minimal_index(data):
    from lamp.quality import choose_best, criterion_vector

    n = data.draw(st.integers(1, 32))
    rows = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12))
    m = BitVector(n, data.draw(st.integers(0, 2**n - 1)))
    bits = [BitVector(n, r) for r in rows]

    best_vec, best_i = None, 0
    for i, row in enumerate(bits):
        cand = criterion_vector(m, row).q_compacted
        if best_vec is None:
            best_vec = cand
        else:
            best_vec, flag = choose_best(best_vec, cand)
            if flag:
                best_i = i
    ks = [criterion_vector(m, row).q_vec.ones_count() for row in bits]
    assert best_i == ks.index(min(ks))
    assert query(AssocTable.from_rows(bits), m).best_rows[0][0] == best_i + 1


def test_rank_is_stable_permutation():
    rng = random.Random(3)
    n = 16
    rows = [BitVector(n, rng.getrandbits(n)) for _ in range(12)]
    t = AssocTable.from_rows(rows)
    m = BitVector(n, rng.getrandbits(n))
    got = rank(t, m, len(rows))
    assert sorted(i for i, _ in got) == list(range(1, 13))
    ks = [s.k for _, s in got]
    assert ks == sorted(ks)
    # ties keep ascending row order
    for (i1, s1), (i2, s2) in zip(got, got[1:]):
        if s1.k == s2.k:
            assert i1 < i2


def test_query_is_deterministic():
    t = AssocTable.from_rows(["0011", "0111", "1111"])
    m = bv("0101")
    first = query(t, m)
    second = query(t, m)
    assert first.best_rows == second.best_rows
    assert first.per_row == second.per_row


# --- the column search against the per-row key oracle -----------------------------


def code_scores(m, codes):
    """``quality_arith(m, a)`` of rows given as 2n-bit codes, from the counts
    that ``code_keys`` reads: the per-row form the column search replaced."""
    from lamp.quality import _score_norm
    from lamp.ternary import low_bits

    n, mv = m.n, m.enc.value
    low = low_bits(n)
    xm = (mv & mv >> 1 & low).bit_count()
    scores = []
    for av in codes:
        meet = mv & av
        e = (~(meet | meet >> 1) & low).bit_count()
        if e:
            scores.append(_score_norm(n, e, 0, 0))
        else:
            cx = (meet & meet >> 1 & low).bit_count()
            scores.append(_score_norm(n, 0, (av & av >> 1 & low).bit_count() - cx, xm - cx))
    return scores


@st.composite
def search_cases(draw):
    """(rows, probe): a table of 1, 63, 64 or 65 rows (or a few), drawn
    from a small pool so that rows repeat and tie. The probe is a fresh
    vector or all x. With x in play, the pool may hold all x and the
    probe, and it holds two rows that meet the probe everywhere with p
    and q swapped (p, the x of the row where the probe has none, and q,
    the reverse), which tie with different mu components."""
    n = draw(st.integers(1, 70))
    alphabet = draw(st.sampled_from(["01", "01x", "0x", "1x", "x"]))
    vec = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n).map("".join)
    probe = draw(vec) if alphabet == "01" else draw(st.sampled_from([draw(vec), "x" * n]))
    pool = draw(st.lists(vec, min_size=1, max_size=4))
    if "x" in alphabet:
        pool += draw(st.lists(st.sampled_from(["x" * n, probe]), max_size=2))
        binary = [k for k, s in enumerate(probe) if s != "x"]
        xs = [k for k, s in enumerate(probe) if s == "x"]
        p = draw(st.integers(0, min(len(binary), len(xs))))
        q = draw(st.integers(0, min(len(binary), len(xs))))
        for a, b in ((p, q), (q, p)):
            opened = set(draw(st.permutations(binary))[:a])
            fixed = set(draw(st.permutations(xs))[:b])
            pool.append("".join(
                "x" if k in opened else draw(st.sampled_from("01")) if k in fixed else s
                for k, s in enumerate(probe)
            ))
    count = draw(st.sampled_from([1, 63, 64, 65]) | st.integers(1, 9))
    rows = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    return rows, probe


@settings(max_examples=120, deadline=None)
@given(search_cases())
def test_column_search_matches_the_key_oracle(case):
    from lamp.quality import code_keys

    rows, probe = case
    table = AssocTable.from_rows(rows, labels=[f"r{i}" for i in range(len(rows))])
    m = tv(probe)
    if table.is_binary and not m.is_binary:
        with pytest.raises(ModeMismatch):
            query(table, m)
        return
    if table.is_binary:
        m = m.to_bitvector()  # a binary probe as a BitVector, as diag passes it
    mt = tv(probe)
    codes = [tv(r).enc.value for r in rows]
    keys = code_keys(mt, codes)
    n = mt.n
    if table.is_binary:  # k is n - key, or 0 for an exact row
        expect_scores = [QualityIndex(max(n - key, 0), n) for key in keys]
    else:
        expect_scores = code_scores(mt, codes)
    best = max(keys)
    winners = [i for i, key in enumerate(keys) if key == best]

    res = query(table, m)
    assert res.best_rows == [(i + 1, f"r{i}") for i in winners]
    assert res.best_index == expect_scores[winners[0]]
    # each winner's own score, before per_row is built and after
    assert res.winner_scores() == [expect_scores[i] for i in winners]
    if not table.is_binary:  # the text output prints the first winner's Q for each
        assert {score.value for score in res.winner_scores()} == {res.best_index.value}
    assert res.per_row == expect_scores
    assert res.winner_scores() == [expect_scores[i] for i in winners]
    order = sorted(range(len(rows)), key=lambda i: -keys[i])  # stable: ties stay in row order
    full = rank(table, m, len(rows))
    assert full == [(i + 1, expect_scores[i]) for i in order]
    for k in range(1, len(rows)):
        assert rank(table, m, k) == full[:k]


def test_tied_ternary_winners_keep_their_own_components():
    # both rows score 7/12; row 1 has p = 2, q = 1 and row 2 the reverse
    table = AssocTable.from_rows(["0xxx", "00x0"])
    m = tv("xx00")
    res = query(table, m)
    expect = [quality_arith(m, tv("0xxx")), quality_arith(m, tv("00x0"))]
    assert expect[0].value == expect[1].value and expect[0] != expect[1]
    assert res.best_rows == [(1, None), (2, None)]
    assert res.best_index == expect[0]
    assert res.winner_scores() == expect
    assert rank(table, m, 2) == [(1, expect[0]), (2, expect[1])]


@pytest.mark.parametrize(
    "rows, probe",
    [
        (["1"], "0"),
        (["x"], "x"),
        (["x" * 70], "x" * 70),
        (["1" * 70], "0" * 70),
        (["x0", "x0", "0x"], "xx"),
    ],
)
def test_column_search_edge_shapes(rows, probe):
    table = AssocTable.from_rows(rows)
    m = tv(probe)
    if table.is_binary:
        m = m.to_bitvector()
        scores = [quality_index(m, tv(r).to_bitvector()) for r in rows]
    else:
        scores = [quality_arith(m, tv(r)) for r in rows]
    res = query(table, m)
    assert res.per_row == scores
    assert rank(table, m, len(rows))[0] == (res.best_rows[0][0], res.best_index)


def test_codes_are_built_from_the_columns_on_each_read():
    table = load_table("a\t0x1\nb\t1X_0\n")
    assert table.codes == [tv("0x1").enc.value, tv("1x0").enc.value]
    assert table.codes is not table.codes
    assert AssocTable("t", 3, table.codes).rows == [tv("0x1"), tv("1x0")]
    assert table._row(1) == tv("1x0")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 70).flatmap(
    lambda n: st.lists(st.integers(0, 2**n - 1).map(lambda v: BitVector(n, v)), min_size=1, max_size=9)
))
def test_bitvector_rows_build_the_table_their_codes_build(bits):
    codes = [TernaryVector.from_bitvector(b).enc.value for b in bits]
    labels = [f"r{i}" for i in range(len(bits))]
    table = AssocTable.from_rows(bits, labels, name="t")
    assert table == AssocTable("t", bits[0].n, codes, labels)
    assert table.mode is Mode.BINARY and table.codes == codes


@pytest.mark.parametrize(
    "rows, error",
    [
        ([BitVector(2, 1), BitVector(3, 1)], WidthMismatch),
        ([BitVector(2, 1), "x1"], None),
        (["x1", BitVector(2, 1)], None),
        ([BitVector(2, 1), b"10"], NotAVector),
    ],
)
def test_rows_not_all_bitvectors_of_one_width_go_through_their_codes(rows, error):
    from lamp.assoc import _as_ternary

    def by_codes():
        vectors = [tv(r) if isinstance(r, str) else _as_ternary(r) for r in rows]
        return AssocTable("table", vectors[0].n, [v.enc.value for v in vectors])

    if error is None:
        assert AssocTable.from_rows(rows) == by_codes()
        return
    with pytest.raises(error) as want:
        by_codes()
    with pytest.raises(error) as got:
        AssocTable.from_rows(rows)
    assert str(got.value) == str(want.value)


def test_labels_of_bitvector_rows_are_checked():
    with pytest.raises(ParseError, match="1 labels for 2 rows"):
        AssocTable.from_rows([BitVector(2, 1), BitVector(2, 2)], ["a"])
    with pytest.raises(ParseError, match="duplicate row label 'a'"):
        AssocTable.from_rows([BitVector(2, 1), BitVector(2, 2), BitVector(2, 3)], ["a", "b", "a"])


def test_tied_winners_are_scored_without_a_read_per_row(monkeypatch):
    import lamp.assoc

    reads = []
    count_at = lamp.assoc._count_at
    monkeypatch.setattr(lamp.assoc, "_count_at", lambda *args: reads.append(1) or count_at(*args))
    # 20000 rows tie at Q = 7/12; every third has p and q swapped
    rows = ["0xxx", "00x0", "0xxx"] * 6667
    m = tv("xx00")
    res = query(AssocTable.from_rows(rows), m)
    assert len(res.best_rows) == len(rows)
    expect = {r: quality_arith(m, tv(r)) for r in set(rows)}
    assert res.winner_scores() == [expect[r] for r in rows]
    assert len(reads) <= 3  # the e, p and q of one row of the second kind
    table = AssocTable.from_rows(["0110"] * 20000)
    assert query(table, bv("0100")).winner_scores() == [QualityIndex(1, 4)] * 20000
    assert len(reads) <= 3
