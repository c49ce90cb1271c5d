"""Acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line so the suite
doubles as a checklist. All comparisons are exact; timing-sensitive
checks assert only relative ordering measured on this machine.
"""

import itertools
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from lamp.assoc import AssocTable, query
from lamp.bitvec import BitVector, sls, vand, vor, vxor
from lamp.quality import (
    choose_best,
    criterion_arith,
    criterion_vector,
    quality_arith,
    quality_index,
)
from lamp.sim import (
    BinOp,
    Grid,
    Halt,
    Logic,
    Orf,
    Program,
    Reg,
    RunOutcome,
    UnOp,
    builtin_query_program,
)
from lamp.ternary import InteractionClass, TernaryVector, classify_interaction, intersect

bv = BitVector.parse
tv = TernaryVector.parse


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def ones_at(v):
    return {i for i in range(1, v.n + 1) if v.bit(i) == 1}


def oracle_points(text):
    choice = {"0": "0", "1": "1", "x": "01"}
    return {"".join(p) for p in itertools.product(*(choice[c] for c in text))}


def test_criterion_1_worked_example_golden():
    with criterion(1, "worked 12-bit example matches the printed table exactly"):
        m, a = bv("110011001100"), bv("000011110101")
        qv = criterion_vector(m, a)
        assert ones_at(vand(m, a)) == {5, 6, 10}
        assert qv.d_vec.ones_count() == 6
        assert ones_at(qv.mu_a_in_m_vec) == {1, 2, 9}
        assert ones_at(qv.mu_m_in_a_vec) == {7, 8, 12}
        assert qv.q_compacted == bv("111111000000")
        idx = quality_index(m, a)
        assert (idx.k, idx.n) == (6, 12)


def test_criterion_2_normalized_metric_scenarios():
    with criterion(2, "normalized metric hits 5/6, 2/3, 1, and 0 exactly"):
        assert quality_arith(tv("x0"), tv("xx")).value == Fraction(5, 6)
        assert quality_arith(tv("x1"), tv("1x")).value == Fraction(2, 3)
        assert quality_arith(tv("1x0x"), tv("1x0x")).value == Fraction(1)
        assert quality_arith(tv("0101"), tv("1010")).value == Fraction(0)


def test_criterion_3_decision_rule_golden():
    with criterion(3, "6-ones prefix beats 8-ones prefix with flag 0"):
        q1 = sls(BitVector(12, (1 << 6) - 1))
        q2 = sls(BitVector(12, (1 << 8) - 1))
        winner, flag = choose_best(q1, q2)
        assert winner == q1
        assert flag == 0


def test_criterion_4_binary_collapse_exhaustive():
    with criterion(4, "binary collapse identities hold for every pair, n <= 6"):
        for n in range(1, 7):
            for mv in range(1 << n):
                m = BitVector(n, mv)
                assert sls(m).is_prefix()
                assert sls(m).ones_count() == m.ones_count()
                for av in range(1 << n):
                    a = BitVector(n, av)
                    qv = criterion_vector(m, a)
                    assert qv.q_vec == vxor(m, a)
                    assert vand(qv.mu_m_in_a_vec, qv.mu_a_in_m_vec).ones_count() == 0
                    assert vor(qv.mu_m_in_a_vec, qv.mu_a_in_m_vec) == qv.d_vec
                    assert criterion_arith(m, a).value == 2 * qv.d_vec.ones_count()
                    assert quality_index(m, a).k == qv.q_vec.ones_count()


def test_criterion_5_ternary_point_set_oracle():
    with criterion(5, "cube algebra matches point-set semantics, n <= 4"):
        for n in range(1, 5):
            for m_syms in itertools.product("01x", repeat=n):
                m_text = "".join(m_syms)
                pm = oracle_points(m_text)
                m = tv(m_text)
                for a_syms in itertools.product("01x", repeat=n):
                    a_text = "".join(a_syms)
                    pa = oracle_points(a_text)
                    a = tv(a_text)
                    common = pm & pa
                    r = intersect(m, a)
                    assert r.is_empty == (not common)
                    s = quality_arith(m, a)
                    if common:
                        assert {p.to01() for p in r.to_ternary().points()} == common
                        assert s.mu_m_in_a == Fraction(len(common), len(pa))
                        assert s.mu_a_in_m == Fraction(len(common), len(pm))
                    else:
                        assert s.mu_m_in_a == 0 and s.mu_a_in_m == 0
                    cls = classify_interaction(m, a)
                    if not common:
                        assert cls is InteractionClass.DISJOINT
                    elif pm == pa:
                        assert cls is InteractionClass.EQUAL
                    elif pm < pa:
                        assert cls is InteractionClass.QUERY_INSIDE_ASSOCIATOR
                    elif pa < pm:
                        assert cls is InteractionClass.ASSOCIATOR_INSIDE_QUERY
                    else:
                        assert cls is InteractionClass.OVERLAP


def _grid_digest(g):
    parts = [g.global_cycle]
    for r in range(4):
        for c in range(4):
            seq = g.cell(r, c)
            parts.append(
                (
                    tuple(seq.regs[x].value for x in (Reg.MA, Reg.MB, Reg.MC, Reg.MD)),
                    seq.flag,
                    seq.pc,
                    seq.row_idx,
                    seq.cycles,
                    seq.halted,
                )
            )
    return tuple(parts)


def _run_builtin_once(rows, m, n):
    g = Grid(n)
    g.load_program(Program.single_cell(builtin_query_program(len(rows))))
    g.set_table(rows, at=(0, 0))
    g.set_register(Reg.MA, m, at=(0, 0))
    res = g.run(200_000)
    assert res.outcome is RunOutcome.ALL_HALTED
    return g


def test_criterion_6_simulator_vs_library_oracle():
    with criterion(6, "simulator agrees with the library on 500 random tables"):
        rng = random.Random(20260810)
        for trial in range(500):
            n = rng.randint(1, 64)
            row_count = rng.randint(1, 16)
            rows = [BitVector(n, rng.getrandbits(n)) for _ in range(row_count)]
            m = BitVector(n, rng.getrandbits(n))

            g = _run_builtin_once(rows, m, n)
            seq = g.cell(0, 0)

            lib = query(AssocTable.from_rows(rows), m)
            win = lib.best_rows[0][0] - 1
            assert seq.regs[Reg.MC] == rows[win]
            assert seq.regs[Reg.MD] == sls(criterion_vector(m, rows[win]).q_vec)
            assert seq.regs[Reg.MD].ones_count() == lib.best_index.k

            # every tenth table: rerun must be bit-identical
            if trial % 10 == 0:
                g2 = _run_builtin_once(rows, m, n)
                assert _grid_digest(g) == _grid_digest(g2)

        # tie tables: a few narrow rows, repeated, so several rows often
        # share the best quality and the earliest of them must win
        tied = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            pool = [BitVector(n, rng.getrandbits(n)) for _ in range(3)]
            rows = [rng.choice(pool) for _ in range(rng.randint(2, 16))]
            m = BitVector(n, rng.getrandbits(n))

            seq = _run_builtin_once(rows, m, n).cell(0, 0)
            lib = query(AssocTable.from_rows(rows), m)
            tied += len({rows[i - 1] for i, _ in lib.best_rows}) > 1
            win = lib.best_rows[0][0] - 1
            assert seq.regs[Reg.MC] == rows[win]
            assert seq.regs[Reg.MD].ones_count() == lib.best_index.k
        assert tied >= 20

        # straight-line programs cost exactly one cycle per instruction
        for _ in range(50):
            n = rng.randint(1, 32)
            body = [
                rng.choice(
                    [
                        Logic(BinOp.XOR, Reg.MA, Reg.MB, UnOp.NOPU, Reg.MC),
                        Logic(BinOp.AND, Reg.MC, Reg.MA, UnOp.NOT, Reg.MB),
                        Orf(Reg.MA),
                    ]
                )
                for _ in range(rng.randint(1, 40))
            ] + [Halt()]
            g = Grid(n)
            g.load_program(Program.single_cell(body))
            res = g.run(1000)
            assert res.outcome is RunOutcome.ALL_HALTED
            assert res.cycles == len(body)
            assert g.cell(0, 0).cycles == len(body)


def test_criterion_7_assembler_round_trip():
    from lamp.asm import assemble, disassemble
    from lamp.errors import AsmSyntaxError, UnresolvedLabel
    from lamp.sim import (
        Dir,
        IncRow,
        Jump,
        JumpIfFlag,
        JumpIfNotFlag,
        JumpIfRowLt,
        LoadImm,
        Recv,
        Send,
        SetRow,
    )

    with criterion(7, "assemble(disassemble(p)) == p and errors carry lines"):
        rng = random.Random(77)
        mregs = (Reg.MA, Reg.MB, Reg.MC, Reg.MD)
        for _ in range(200):
            width = rng.randint(1, 24)
            size = rng.randint(1, 20)

            def any_instr():
                k = rng.randrange(12)
                if k == 0:
                    return Logic(
                        rng.choice(tuple(BinOp)),
                        rng.choice(tuple(Reg)),
                        rng.choice(tuple(Reg)),
                        rng.choice(tuple(UnOp)),
                        rng.choice(mregs),
                    )
                if k == 1:
                    return Orf(rng.choice(tuple(Reg)))
                if k == 2:
                    return Jump(rng.randrange(size))
                if k == 3:
                    return JumpIfFlag(rng.randrange(size))
                if k == 4:
                    return JumpIfNotFlag(rng.randrange(size))
                if k == 5:
                    return SetRow(rng.randrange(32))
                if k == 6:
                    return IncRow()
                if k == 7:
                    return JumpIfRowLt(rng.randrange(size))
                if k == 8:
                    return LoadImm(
                        rng.choice(mregs), BitVector(width, rng.getrandbits(width))
                    )
                if k == 9:
                    return Send(rng.choice(tuple(Dir)), rng.choice(mregs))
                if k == 10:
                    return Recv(rng.choice(tuple(Dir)), rng.choice(mregs))
                return Halt()

            prog = Program(width=width)
            for _ in range(rng.randint(1, 3)):
                r, c = rng.randrange(4), rng.randrange(4)
                prog.cells[r][c] = [any_instr() for _ in range(size)]
            assert assemble(disassemble(prog)) == prog

        for src, line in (
            ("HALT\nJF missing\n", 2),
            ("\nBOGUS\n", 2),
            (".width 4\nLOADM MA, 0101\nLOADM MB\n", 3),
        ):
            try:
                assemble(src)
            except (AsmSyntaxError, UnresolvedLabel) as exc:
                assert exc.line == line
            else:
                raise AssertionError(f"no error for {src!r}")


def test_criterion_8_bench_scales_and_vector_path_wins():
    with criterion(8, "bench finishes at n=4096 rows=100k; vector beats scalar"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "lamp", "bench",
                "--n", "4096", "--rows", "100000", "--iters", "1",
                "--format", "json",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["vector_rows_per_s"] > 0
        assert doc["scalar_rows_per_s"] > 0
        assert doc["paths_agree"] is True
        assert doc["winners_stable"] is True
        # ratio is reported, never pinned; only the ordering is asserted
        assert doc["vector_rows_per_s"] > doc["scalar_rows_per_s"]
