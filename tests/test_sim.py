import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields

import pytest

from lamp.asm import assemble, program_from_bytes, program_to_bytes
from lamp.assoc import AssocTable, query
from lamp.bitvec import BitVector, sls, vxor
from lamp.errors import (
    DeadlockDetected, InvalidRowIndex, LampError, PcOutOfRange, SequencerHalted,
    WidthMismatch,
)
from lamp.quality import criterion_vector
from lamp.sim import (
    GRID_SIZE,
    ISA,
    BinOp,
    Dir,
    Grid,
    Halt,
    IncRow,
    Instruction,
    Jump,
    JumpIfFlag,
    JumpIfNotFlag,
    JumpIfRowLt,
    LoadImm,
    Logic,
    Orf,
    Program,
    Recv,
    Reg,
    RunOutcome,
    Send,
    Sequencer,
    SetRow,
    UnOp,
    builtin_query_program,
    neighbor,
    opposite,
)
from test_sim_reference import sharded

bv = BitVector.parse

M12 = bv("110011001100")
A12 = bv("000011110101")


def one_cell_grid(instructions, width, table=None, ma=None):
    g = Grid(width)
    g.load_program(Program.single_cell(instructions))
    if table:
        g.set_table(table, at=(0, 0))
    if ma is not None:
        g.set_register(Reg.MA, ma, at=(0, 0))
    return g


# --- single sequencer steps -----------------------------------------------


def test_logic_xor_with_row_builds_difference_vector():
    seq = Sequencer(
        12,
        program=[Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.NOPU, Reg.MB), Halt()],
        a_matrix=[A12],
    )
    seq.regs[Reg.MA] = M12
    seq.step()
    assert seq.regs[Reg.MB] == vxor(M12, A12)
    assert seq.regs[Reg.MB].ones_count() == 6
    assert seq.cycles == 1


def test_pass_slc_compacts_in_one_cycle():
    seq = Sequencer(
        9, program=[Logic(BinOp.PASS, Reg.MA, Reg.MA, UnOp.SLC, Reg.MA), Halt()]
    )
    seq.regs[Reg.MA] = bv("010000101")
    seq.step()
    assert seq.regs[Reg.MA] == bv("111000000")
    assert seq.cycles == 1


def test_orf_zero_register_clears_flag():
    seq = Sequencer(4, program=[Orf(Reg.MA), Halt()])
    seq.flag = 1
    seq.step()
    assert seq.flag == 0


def test_orf_row_source():
    seq = Sequencer(4, program=[Orf(Reg.ROW), Halt()], a_matrix=[bv("0010")])
    seq.step()
    assert seq.flag == 1


def test_lone_exchange_step_stalls():
    seq = Sequencer(4, program=[Send(Dir.E, Reg.MA), Halt()])
    seq.step()
    assert seq.pc == 0  # no partner outside a grid: burn the cycle, hold pc
    assert seq.cycles == 1


def test_row_source_out_of_range():
    seq = Sequencer(
        4, program=[Logic(BinOp.PASS, Reg.ROW, Reg.ROW, UnOp.NOPU, Reg.MA)]
    )
    with pytest.raises(InvalidRowIndex):
        seq.step()


def test_setrow_incrow_bounds():
    seq = Sequencer(4, program=[SetRow(3)], a_matrix=[bv("0000")] * 2)
    with pytest.raises(InvalidRowIndex):
        seq.step()
    seq2 = Sequencer(4, program=[IncRow(), IncRow(), IncRow()],
                     a_matrix=[bv("0000")] * 2)
    seq2.step()
    seq2.step()  # row_idx == row_count is the legal past-the-end state
    with pytest.raises(InvalidRowIndex):
        seq2.step()


def test_jrlt_loops_over_rows():
    # INCROW/JRLT walk the matrix exactly row_count times
    prog = [IncRow(), JumpIfRowLt(0), Halt()]
    seq = Sequencer(4, program=prog, a_matrix=[bv("0000")] * 3)
    while not seq.halted:
        seq.step()
    assert seq.row_idx == 3
    assert seq.cycles == 3 * 2 + 1


def test_loadm_checks_width():
    from lamp.errors import WidthMismatch

    seq = Sequencer(4, program=[LoadImm(Reg.MA, bv("01"))])
    with pytest.raises(WidthMismatch):
        seq.step()


def test_pc_past_end_raises():
    seq = Sequencer(4, program=[Orf(Reg.MA)])
    seq.step()
    with pytest.raises(PcOutOfRange):
        seq.step()


def test_operands_declare_every_field_in_order():
    for cls in ISA:
        assert len(cls.OPERANDS) == len(fields(cls)), cls.__name__
    inst = Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MD)
    assert inst.operands() == (BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MD)


# one instance of every ISA class, in ISA order
ONE_OF_EACH = [
    Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MD),
    Orf(Reg.MB),
    Jump(3),
    JumpIfFlag(3),
    JumpIfNotFlag(3),
    SetRow(2),
    IncRow(),
    JumpIfRowLt(0),
    LoadImm(Reg.MC, BitVector.parse("0110")),
    Send(Dir.NE, Reg.MA),
    Recv(Dir.SW, Reg.MB),
    Halt(),
]


def _matched_operands(inst) -> tuple:
    match inst:
        case Logic(binop, src_a, src_b, unop, dst):
            return binop, src_a, src_b, unop, dst
        case Orf(src):
            return (src,)
        case Jump(target) | JumpIfFlag(target) | JumpIfNotFlag(target) | JumpIfRowLt(target):
            return (target,)
        case SetRow(index):
            return (index,)
        case LoadImm(reg, literal):
            return reg, literal
        case Send(direction, reg) | Recv(direction, reg):
            return direction, reg
        case IncRow() | Halt():
            return ()


@pytest.mark.parametrize("inst", ONE_OF_EACH, ids=lambda inst: type(inst).__name__)
def test_instructions_are_frozen_values(inst):
    cls, args = type(inst), inst.operands()
    names = [f.name for f in fields(cls)]
    assert cls(**dict(zip(names, args))) == cls(*args) == inst
    again = cls(*args)
    assert again is not inst and hash(again) == hash(inst)
    assert _matched_operands(inst) == args
    for name in names or ["extra"]:
        with pytest.raises(FrozenInstanceError):
            setattr(inst, name, None)
    assert cls(*args) == inst  # the failed assignments changed nothing


def test_instruction_classes_and_repr():
    assert [type(inst) for inst in ONE_OF_EACH] == list(ISA)
    assert Jump(3) != JumpIfFlag(3)
    match Jump(3):
        case JumpIfFlag():
            pytest.fail("a Jump matched the JumpIfFlag pattern")
    assert repr(Logic(BinOp.PASS, Reg.MA, Reg.MB, UnOp.NOPU, Reg.MD)) == (
        "Logic(binop=<BinOp.PASS: 3>, src_a=<Reg.MA: 0>, src_b=<Reg.MA: 0>, "
        "unop=<UnOp.NOPU: 2>, dst=<Reg.MD: 3>)"
    )


def test_operands_make_the_fields_and_their_checks():
    class Move(Instruction):
        MNEMONIC = "MOVE"
        OPERANDS = (("src", "src"), ("dst", "mreg"))
        ROLE = "MOVE target"

    assert [(f.name, f.type) for f in fields(Move)] == [("src", "src"), ("dst", "mreg")]
    assert Move(Reg.ROW, Reg.MA) == Move(src=Reg.ROW, dst=Reg.MA)
    with pytest.raises(LampError, match="^MOVE target must be an m-register, got Reg.ROW$"):
        Move(Reg.MA, Reg.ROW)
    with pytest.raises(TypeError, match="more than one checked operand"):
        class Twice(Instruction):
            OPERANDS = (("reg", "mreg"), ("index", "index"))


def test_every_instruction_costs_one_cycle():
    prog = [
        Logic(BinOp.AND, Reg.MA, Reg.MB, UnOp.NOPU, Reg.MC),
        Logic(BinOp.OR, Reg.MA, Reg.MB, UnOp.NOT, Reg.MD),
        Orf(Reg.MD),
        Halt(),
    ]
    seq = Sequencer(8, program=prog)
    while not seq.halted:
        seq.step()
    assert seq.cycles == len(prog)


# --- grid topology -----------------------------------------------------------


def test_every_cell_has_eight_distinct_neighbors():
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            seen = {neighbor(r, c, d) for d in Dir}
            assert len(seen) == 8
            assert (r, c) not in seen


def test_neighbor_symmetry_on_torus():
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            for d in Dir:
                rr, cc = neighbor(r, c, d)
                assert neighbor(rr, cc, opposite(d)) == (r, c)


# --- exchange -----------------------------------------------------------------


def test_send_recv_rendezvous_in_one_cycle():
    g = Grid(4)
    prog = Program()
    prog.cells[0][0] = [Send(Dir.E, Reg.MA), Halt()]
    prog.cells[0][1] = [Recv(Dir.W, Reg.MB), Halt()]
    g.load_program(prog)
    g.set_register(Reg.MA, bv("1011"), at=(0, 0))
    g.step()
    assert g.cell(0, 1).regs[Reg.MB] == bv("1011")
    assert g.cell(0, 0).pc == 1 and g.cell(0, 1).pc == 1
    assert g.global_cycle == 1


def test_unmatched_exchange_stalls_until_partner_arrives():
    g = Grid(4)
    prog = Program()
    prog.cells[0][0] = [Send(Dir.E, Reg.MA), Halt()]
    prog.cells[0][1] = [Orf(Reg.MA), Orf(Reg.MA), Recv(Dir.W, Reg.MB), Halt()]
    g.load_program(prog)
    g.set_register(Reg.MA, bv("0110"), at=(0, 0))
    res = g.run(100)
    assert res.outcome is RunOutcome.ALL_HALTED
    assert g.cell(0, 1).regs[Reg.MB] == bv("0110")
    # sender stalled two cycles waiting, then transferred, then halted
    assert g.cell(0, 0).cycles == 4


def test_two_facing_sends_deadlock():
    g = Grid(4)
    prog = Program()
    prog.cells[0][0] = [Send(Dir.E, Reg.MA)]
    prog.cells[0][1] = [Send(Dir.W, Reg.MA)]
    g.load_program(prog)
    with pytest.raises(DeadlockDetected) as err:
        g.step()
    assert set(err.value.cells) == {(0, 0), (0, 1)}


def test_run_reports_deadlock_outcome():
    g = Grid(4)
    prog = Program()
    prog.cells[1][1] = [Recv(Dir.N, Reg.MA)]
    g.load_program(prog)
    res = g.run(50)
    assert res.outcome is RunOutcome.DEADLOCK
    assert res.deadlocked == ((1, 1),)


def test_transfer_uses_senders_start_of_cycle_value():
    # receiver is scanned before the sender cell; value must still be
    # the one the sender held when the cycle began
    g = Grid(4)
    prog = Program()
    prog.cells[0][1] = [Recv(Dir.E, Reg.MB), Halt()]  # from (0,2)
    prog.cells[0][2] = [Send(Dir.W, Reg.MA), Halt()]
    g.load_program(prog)
    g.set_register(Reg.MA, bv("1111"), at=(0, 2))
    g.step()
    assert g.cell(0, 1).regs[Reg.MB] == bv("1111")


def test_all_halted_grid_does_not_tick():
    g = Grid(4)
    g.load_program(Program())  # every cell empty, so everything is halted
    assert g.all_halted
    g.step()
    assert g.global_cycle == 0


# --- run outcomes -------------------------------------------------------------


def test_halt_only_programs_finish_at_cycle_one():
    g = Grid(4)
    g.load_program(Program.broadcast([Halt()]))
    res = g.run(10)
    assert res.outcome is RunOutcome.ALL_HALTED
    assert res.cycles == 1


def test_infinite_loop_exhausts_budget():
    g = Grid(4)
    g.load_program(Program.single_cell([Jump(0)]))
    res = g.run(37)
    assert res.outcome is RunOutcome.CYCLE_BUDGET_EXHAUSTED
    assert res.cycles == 37


def test_error_carries_cell_coordinates():
    g = Grid(4)
    g.load_program(
        Program.single_cell(
            [Logic(BinOp.PASS, Reg.ROW, Reg.ROW, UnOp.NOPU, Reg.MA)], at=(2, 3)
        )
    )
    with pytest.raises(InvalidRowIndex) as err:
        g.run(10)
    assert "(2,3)" in str(err.value)


def test_trace_lines_one_per_active_cell_per_cycle():
    g = Grid(4, tracing=True)
    g.load_program(Program.single_cell([Orf(Reg.MA), Halt()]))
    g.run(10)
    assert g.trace == ["1\t0,0\t0\tORF MA", "2\t0,0\t1\tHALT"]


# --- builtin query program -----------------------------------------------------


def run_builtin(table_rows, m, width):
    g = one_cell_grid(
        builtin_query_program(len(table_rows)), width, table=table_rows, ma=m
    )
    res = g.run(100_000)
    assert res.outcome is RunOutcome.ALL_HALTED
    return g.cell(0, 0)


def test_builtin_single_row_leaves_compacted_quality_in_md():
    seq = run_builtin([A12], M12, 12)
    expect = sls(criterion_vector(M12, A12).q_vec)
    assert seq.regs[Reg.MD] == expect
    assert seq.regs[Reg.MC] == A12  # winner pattern parked in MC


def test_builtin_perfect_match_wins_with_zero_vector():
    rows = [M12, A12]
    seq = run_builtin(rows, M12, 12)
    assert seq.regs[Reg.MD] == BitVector.zeros(12)
    assert seq.regs[Reg.MC] == M12


def test_builtin_matches_library_query_on_worked_rows():
    rows = [A12, bv("111111111111")]
    seq = run_builtin(rows, M12, 12)
    table = AssocTable.from_rows(rows)
    lib = query(table, M12)
    win = lib.best_rows[0][0] - 1
    assert seq.regs[Reg.MC] == rows[win]
    assert seq.regs[Reg.MD] == sls(criterion_vector(M12, rows[win]).q_vec)


def builtin_cycles(rows, m):
    """7R + 3t - 2: 7 cycles a row, 3 more for each row after the first
    that beats every earlier one, less 2 (row 0 skips the fold, HALT ends)."""
    ks = [(m.value ^ row.value).bit_count() for row in rows]
    improved = sum(k < min(ks[:i]) for i, k in enumerate(ks) if i)
    return 7 * len(rows) + 3 * improved - 2


def check_builtin(rows, m):
    """Run the builtin and hold it to the library's winner and the cycle count."""
    g = one_cell_grid(builtin_query_program(len(rows)), m.n, table=rows, ma=m)
    res = g.run(100_000)
    assert res.outcome is RunOutcome.ALL_HALTED
    seq = g.cell(0, 0)
    win = query(AssocTable.from_rows(rows), m).best_rows[0][0] - 1
    assert seq.regs[Reg.MC] == rows[win]
    assert seq.regs[Reg.MD] == sls(vxor(m, rows[win]))
    assert seq.regs[Reg.MA] == m
    assert res.cycles == seq.cycles == builtin_cycles(rows, m)
    return win, res.cycles


def test_builtin_cycles_are_seven_per_row_plus_three_per_improvement():
    rng = random.Random(1105)
    for _ in range(200):
        n = rng.randint(1, 40)
        rows = [BitVector(n, rng.getrandbits(n)) for _ in range(rng.randint(1, 24))]
        m = rng.choice(rows) if rng.random() < 0.2 else BitVector(n, rng.getrandbits(n))
        check_builtin(rows, m)


def test_builtin_one_row_takes_five_cycles():
    assert check_builtin([A12], M12) == (0, 5)


def test_builtin_rows_all_at_the_worst_quality_keep_the_first():
    # every row the complement of m: k = n, the all-ones quality
    m = bv("1010")
    assert check_builtin([bv("0101")] * 3, m) == (0, 19)


def test_builtin_best_row_last():
    m = bv("1111")
    rows = [bv("0001"), bv("0000"), bv("0011"), bv("1111")]
    assert check_builtin(rows, m) == (3, 7 * 4 + 3 * 2 - 2)


def test_builtin_strictly_improving_rows_retake_each_row():
    m = bv("11111")
    rows = [BitVector(5, (1 << k) - 1) for k in range(6)]
    assert check_builtin(rows, m) == (5, 10 * 6 - 5)


def test_builtin_tie_keeps_the_earlier_row():
    m = bv("0111")
    rows = [bv("1100"), bv("0110"), bv("0011"), bv("0101")]  # k = 3, 1, 1, 1
    assert check_builtin(rows, m) == (1, 7 * 4 + 3 - 2)


def test_builtin_program_size_does_not_grow_with_rows():
    assert builtin_query_program(1) == builtin_query_program(2)
    assert builtin_query_program(2) == builtin_query_program(64)


def test_builtin_reruns_on_a_reused_grid():
    # each query's winner is the row the previous one stopped at or before,
    # so a row counter left over from the last run would skip it
    rows = [A12, M12, bv("111111111111")]
    table = AssocTable.from_rows(rows)
    program = Program.single_cell(builtin_query_program(len(rows)))
    g = Grid(12)
    g.set_table(rows, at=(0, 0))
    for m in (rows[2], rows[1], rows[0]):
        g.load_program(program)
        g.set_register(Reg.MA, m, at=(0, 0))
        assert g.run(100_000).outcome is RunOutcome.ALL_HALTED
        win = query(table, m).best_rows[0][0] - 1
        assert g.cell(0, 0).regs[Reg.MC] == rows[win] == m


def test_builtin_rejects_zero_rows():
    with pytest.raises(ValueError):
        builtin_query_program(0)


def test_missing_table_surfaces_invalid_row_index():
    g = one_cell_grid(builtin_query_program(2), 12, table=None, ma=M12)
    with pytest.raises(InvalidRowIndex):
        g.run(1000)


def test_determinism_bit_identical_reruns():
    rows = [bv("0101"), bv("0011"), bv("1110")]
    runs = []
    for _ in range(2):
        g = one_cell_grid(builtin_query_program(3), 4, table=rows, ma=bv("0111"))
        res = g.run(10_000)
        seq = g.cell(0, 0)
        runs.append(
            (
                res.outcome,
                res.cycles,
                seq.cycles,
                tuple(seq.regs[r].value for r in (Reg.MA, Reg.MB, Reg.MC, Reg.MD)),
                seq.flag,
                seq.row_idx,
            )
        )
    assert runs[0] == runs[1]


def test_straight_line_grid_cycles_equal_instruction_count():
    body = [Logic(BinOp.XOR, Reg.MA, Reg.MB, UnOp.NOPU, Reg.MC)] * 9 + [Halt()]
    g = Grid(6)
    g.load_program(Program.single_cell(body))
    res = g.run(100)
    assert res.cycles == len(body)
    assert g.cell(0, 0).cycles == len(body)


# --- API edge: loading, registers, tracing -------------------------------------


def test_set_register_rejects_the_row_port():
    g = Grid(4)
    with pytest.raises(LampError, match="ROW"):
        g.set_register(Reg.ROW, bv("1010"))
    assert all(Reg.ROW not in seq.regs for row in g.cells for seq in row)


def test_set_table_from_a_generator_reaches_every_cell():
    g = Grid(4)
    g.set_table(BitVector(4, v) for v in (1, 2, 3))
    cells = [seq for row in g.cells for seq in row]
    assert all(seq.a_matrix == [bv("0001"), bv("0010"), bv("0011")] for seq in cells)
    # the rows are converted once and shared, and no cell can change them in place
    assert len({id(seq._rows) for seq in cells}) == 1
    assert not hasattr(cells[0].a_matrix, "append")


@pytest.mark.parametrize("at", [None, (2, 3)])
def test_set_table_of_a_bad_width_changes_no_matrix(at):
    g = Grid(4)
    g.set_table([bv("1100")])
    with pytest.raises(WidthMismatch, match=r"^matrix row width 3 != 4$"):
        g.set_table([bv("1010"), bv("101")], at=at)
    assert all(seq.a_matrix == [bv("1100")] for row in g.cells for seq in row)


def test_set_register_at_one_cell_changes_only_that_cell():
    g = Grid(4)
    g.set_register(Reg.MB, bv("0110"), at=(1, 1))
    for r, row in enumerate(g.cells):
        for c, seq in enumerate(row):
            want = bv("0110") if (r, c) == (1, 1) else bv("0000")
            assert seq.regs[Reg.MB] == want
            assert all(seq.regs[reg] == bv("0000") for reg in (Reg.MA, Reg.MC, Reg.MD))


@pytest.mark.parametrize("at", [(-1, 0), (0, -2), (4, 0), (0, 4)])
def test_cell_outside_the_grid_is_rejected(at):
    g = Grid(4)
    with pytest.raises(LampError, match=rf"cell \({at[0]},{at[1]}\)"):
        g.set_register(Reg.MA, bv("1010"), at=at)
    with pytest.raises(LampError, match=rf"cell \({at[0]},{at[1]}\)"):
        g.set_table([bv("1010")], at=at)
    assert all(seq.regs[Reg.MA] == bv("0000") for row in g.cells for seq in row)
    assert all(seq.a_matrix == [] for row in g.cells for seq in row)


def test_run_writes_back_only_changed_registers():
    g = one_cell_grid([Logic(BinOp.XOR, Reg.MA, Reg.MA, UnOp.NOT, Reg.MB), Halt()], 4,
                      ma=bv("0110"))
    seq = g.cell(0, 0)
    ma, mc = seq.regs[Reg.MA], seq.regs[Reg.MC]
    g.run(10)
    assert seq.regs[Reg.MB] == bv("1111")
    assert seq.regs[Reg.MA] is ma and seq.regs[Reg.MC] is mc


def test_trace_text_rendered_once_per_loaded_instruction(monkeypatch):
    calls = []
    original = Instruction.text

    def counted(self, label=str):
        calls.append(self)
        return original(self, label)

    monkeypatch.setattr(Instruction, "text", counted)
    loop = [IncRow(), JumpIfRowLt(0), Halt()]
    table = [bv("0000")] * 5
    quiet = one_cell_grid(loop, 4, table=table)
    quiet.run(100)
    assert calls == []  # untraced runs render nothing
    g = Grid(4, tracing=True)
    g.load_program(Program.single_cell(loop))
    g.set_table(table)
    assert len(calls) == len(loop)
    g.run(100)
    assert len(g.trace) == 11 and len(calls) == len(loop)
    assert g.trace[:3] == ["1\t0,0\t0\tINCROW", "2\t0,0\t1\tJRLT 0", "3\t0,0\t0\tINCROW"]
    # a decoded LAMP1 program shares one object per distinct record, and
    # a traced load renders each object once
    calls.clear()
    blob = program_to_bytes(assemble(sharded.sharded_source(16)))
    Grid(16, tracing=True).load_program(program_from_bytes(blob))
    assert len(calls) == len(_records(blob))


def _records(blob):
    """The distinct 8-byte records of a LAMP1 binary without LOADM literals."""
    header = 5 + 2 + 4 * GRID_SIZE**2
    assert (len(blob) - header) % 8 == 0
    return {blob[i : i + 8] for i in range(header, len(blob), 8)}


def test_decoded_program_shares_instructions_and_cell_decodes(monkeypatch):
    import lamp.sim

    assembled = assemble(sharded.sharded_source(16))
    blob = program_to_bytes(assembled)
    decoded = program_from_bytes(blob)
    assert decoded == assembled
    objects = {id(inst) for row in decoded.cells for code in row for inst in code}
    total = sum(len(code) for row in decoded.cells for code in row)
    assert len(objects) == len(_records(blob)) < total
    calls = []
    decode = lamp.sim._decode
    one, two = Grid(16), Grid(16)

    def counted(program, width):
        calls.append(program)
        return decode(program, width)

    monkeypatch.setattr(lamp.sim, "_decode", counted)
    one.load_program(decoded)
    assert len(calls) == 4  # the cells differ only by the parity of row and column
    calls.clear()
    two.load_program(assembled)  # equal but distinct objects compare equal, and decode once
    assert len(calls) == 4


def test_a_grid_decodes_nothing_until_a_program_is_loaded(monkeypatch):
    import lamp.sim

    calls = []
    decode = lamp.sim._decode
    monkeypatch.setattr(lamp.sim, "_decode", lambda program, width: calls.append(program)
                        or decode(program, width))
    grid, seq = Grid(8), Sequencer(8)
    assert calls == []
    cells = [cell for row in grid.cells for cell in row] + [seq]
    assert all(cell.halted and cell.program == [] and cell.a_matrix == [] for cell in cells)
    assert len({id(cell._segments) for cell in cells}) == len(cells)  # translations go there
    with pytest.raises(SequencerHalted):
        seq.step()
    grid.load_program(Program.single_cell(builtin_query_program(8)))
    assert len(calls) == 1  # the fifteen empty cells decode nothing
    assert len({id(cell._segments) for cell in cells}) == len(cells)
    seq.program = [Halt()]  # a program assigned later decodes as before
    assert len(calls) == 2


def test_grid_rejects_a_literal_of_another_width_at_its_first_cell():
    code = [LoadImm(Reg.MA, bv("01")), Halt()]
    p = Program()
    p.cells[1][2] = p.cells[3][0] = code
    g = Grid(4)
    with pytest.raises(WidthMismatch) as exc:
        g.load_program(p)
    assert str(exc.value) == "cell (1,2): literal width 2 != grid width 4"


def test_grid_runs_that_do_not_fault_never_take_the_one_cycle_step(monkeypatch):
    """Runs and steps that halt, reach the budget or deadlock, traced or not,
    are all free runs, and agree with the reference."""
    import lamp.sim
    from lamp.sim import RunResult
    from sim_reference import RefGrid, grid_state
    from test_sim_reference import _check_golden_sharded_run, _outcome, _sharded_run

    tie = [bv("1100"), bv("0110"), bv("0011"), bv("0101")]
    waits = Program()
    waits.cells[0][0] = [Send(Dir.E, Reg.MA), Halt()]
    waits.cells[0][1] = [LoadImm(Reg.MB, bv("0001"))] * 5 + [Recv(Dir.W, Reg.MB), Halt()]
    waits.cells[1][1] = [Send(Dir.S, Reg.MC), Halt()]
    waits.cells[2][1] = [Jump(0)]  # never takes (1,1)'s value
    stuck = Program()  # (0,0) and (0,1) exchange, then both send, after (1,0) has halted
    stuck.cells[0][0] = [LoadImm(Reg.MB, bv("0001"))] * 4 + [Send(Dir.E, Reg.MA)] * 2 + [Halt()]
    stuck.cells[0][1] = [Recv(Dir.W, Reg.MB), Send(Dir.W, Reg.MB), Halt()]
    stuck.cells[1][0] = [LoadImm(Reg.MC, bv("0011"))] * 2 + [Halt()]

    def load(g, program, ma):
        g.load_program(program)
        for row in g.cells:
            for seq in row:
                seq.regs[Reg.MA] = ma

    def builtin(g):
        load(g, Program.single_cell(builtin_query_program(len(tie))), bv("0111"))
        g.cell(0, 0).a_matrix = list(tie)
        return [g.run(100), grid_state(g)]

    def waiting(g):
        load(g, waits, bv("1010"))
        seen = [g.run(5), grid_state(g)]
        g.step()  # (0,0) and (0,1) exchange in cycle 6
        return seen + [grid_state(g), g.run(9), grid_state(g)]

    def deadlock(g):
        load(g, stuck, bv("1001"))
        seen = [g.run(3), grid_state(g), g.run(50), grid_state(g)]
        return seen + [_outcome(g.step), grid_state(g)]

    monkeypatch.setattr(lamp.sim, "_step", lambda *args: pytest.fail("the one-cycle step ran"))
    for tracing in (False, True):
        for scenario in (builtin, waiting, deadlock):
            ref, grid = RefGrid(4, tracing=tracing), Grid(4, tracing=tracing)
            expected = scenario(ref), ref.trace
            assert (scenario(grid), grid.trace) == expected
            assert len(expected[1]) > 10 if tracing else expected[1] == []
        _check_golden_sharded_run(*_sharded_run(False, tracing=tracing))
    # cell state: pc, flag, row, cycles, halted, registers
    (result, state), seen, stuck_at = builtin(Grid(4)), waiting(Grid(4)), deadlock(Grid(4))
    assert result == RunResult(RunOutcome.ALL_HALTED, 29)
    assert state[1][0][5][2:] == (0b0110, 0b1000)  # cell (0,0)'s MC and MD
    assert seen[0] == RunResult(RunOutcome.CYCLE_BUDGET_EXHAUSTED, 5)
    assert [cell[:5] for cell in seen[1][1][:2]] == [(0, 0, 0, 5, False), (5, 0, 0, 5, False)]
    assert seen[3] == RunResult(RunOutcome.CYCLE_BUDGET_EXHAUSTED, 9)
    cells = seen[4][1]
    assert cells[0][:5] == (1, 0, 0, 7, True) and cells[1][5][1] == 0b1010
    assert cells[5][:5] == (0, 0, 0, 9, False)  # (1,1) still waits
    # the exchange completes in cycle 5, after which both cells send; (1,0) halted in cycle 3
    assert stuck_at[2] == RunResult(RunOutcome.DEADLOCK, 5, ((0, 0), (0, 1)))
    assert [cell[:5] for cell in stuck_at[3][1][:2]] == [(5, 0, 0, 5, False), (1, 0, 0, 5, False)]
    assert stuck_at[3][1][4][:5] == (2, 0, 0, 3, True)
    assert stuck_at[4] == ("raised", DeadlockDetected,
                           "all active cells stalled on unmatched exchanges: (0,0), (0,1)")


def test_a_faulting_grid_run_takes_the_one_cycle_step_once(monkeypatch):
    """The first fault of a cycle-by-cycle run: the earliest cycle, in it a pc
    outside the program before any instruction, then the first cell in scan
    order. The run is made again to the cycle before, and that cycle is one
    step, in which the cells before the faulting one complete their exchanges."""
    import lamp.sim
    from sim_reference import RefGrid, grid_state
    from test_sim_reference import _outcome

    pad = [LoadImm(Reg.MB, bv("0110"))]
    early = Program()  # (2,2) faults in cycle 3, before (0,1) in 4 and (0,0) in 5
    early.cells[0][0] = pad * 4 + [SetRow(9), Halt()]
    early.cells[0][1] = pad * 3  # runs off its end
    early.cells[2][2] = [IncRow()] * 3 + [Halt()]
    beside = Program()  # in cycle 4: (0,0)'s row fault, and (1,1)'s pc before every instruction
    beside.cells[0][0] = pad * 3 + [SetRow(9), Halt()]
    beside.cells[1][1] = pad * 3
    order = Program()  # in cycle 3: (0,0) completes its exchange with (1,0), which comes
    order.cells[0][0] = pad * 2 + [Send(Dir.S, Reg.MB), Halt()]  # after the faulting (0,2)
    order.cells[1][0] = [Recv(Dir.N, Reg.MD), Halt()]
    order.cells[0][2] = pad * 2 + [Jump(7)]
    order.cells[3][3] = pad * 2 + [SetRow(9)]  # the same cycle, later in scan order
    messages = []
    step = lamp.sim._step
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(lamp.sim, "_step", counted)
    for program in (early, beside, order):
        for tracing in (False, True):
            ref, grid = RefGrid(4, tracing=tracing), Grid(4, tracing=tracing)
            runs = []
            for g in (ref, grid):
                g.load_program(program)
                for row in g.cells:
                    for seq in row:
                        seq.a_matrix = [bv("0001"), bv("0010")]
                calls.clear()
                runs.append((_outcome(lambda: g.run(100)), grid_state(g), g.trace))
            assert runs[1] == runs[0] and len(calls) == 1
        messages.append(runs[0][0][2])
    assert messages == ["cell (2,2): INCROW past matrix of 2 rows",
                        "cell (1,1): pc 3 outside program of 3",
                        "cell (0,2): jump target 7 outside program"]
    # (0,0) spent cycle 3 and took its exchange; (1,0), later in scan order, did not
    assert [cell[:4] for cell in runs[0][1][1][:5:4]] == [(3, 0, 0, 3), (0, 0, 0, 2)]


# --- translated loops --------------------------------------------------------


def _sharded_grid(tracing):
    """The benchmark's sharded search at its shape: width 256, 64 rows in each cell."""
    rng = random.Random(5)
    grid = Grid(256, tracing=tracing)
    grid.load_program(program_from_bytes(program_to_bytes(assemble(
        sharded.sharded_source(256)))))
    for idx in range(GRID_SIZE * GRID_SIZE):
        rows = [BitVector(256, rng.getrandbits(256)) for _ in range(64)]
        grid.set_table(rows, at=divmod(idx, GRID_SIZE))
    grid.set_register(Reg.MA, BitVector(256, rng.getrandbits(256)))
    return grid


def test_the_sharded_fold_runs_in_its_translation_not_on_the_interpreter(monkeypatch):
    """The whole code of every cell, fold and merge, runs in its translation:
    ``_run`` executes under 5% of each cell's instructions that are not stalls."""
    import lamp.sim
    from sim_reference import grid_state

    run = lamp.sim._run
    executed = []  # the cycles of each _run call

    def counted(code, state, matrix, t, last, width, path=None):
        out = run(code, state, matrix, t, last, width, path)
        executed.append(out - t)
        return out

    monkeypatch.setattr(lamp.sim, "_run", counted)
    states = []
    for tracing in (True, False):  # a traced run translates its code too
        executed.clear()
        grid = _sharded_grid(tracing)
        assert grid.run(100_000).outcome is RunOutcome.ALL_HALTED
        states.append(grid_state(grid))
        if tracing:  # what each cell ran, from its trace, exchanges and HALT included
            lines = [line.split("\t") for line in grid.trace]
            ran = Counter(cell for _, cell, _, _, *stall in lines if not stall)
            assert len(ran) == 16 and min(ran.values()) > 63 * 7  # seven a row, 63 rows a cell
        assert sum(executed) < 0.05 * min(ran.values())
    assert states[0] == states[1]


def test_the_cells_of_one_decode_look_their_translation_up_once(monkeypatch):
    import lamp.sim

    made = []
    translation = lamp.sim._translation

    def counted(code, width, traced):
        made.append((len(code), traced))
        return translation(code, width, traced)

    monkeypatch.setattr(lamp.sim, "_translation", counted)
    for tracing in (False, True):
        made.clear()
        grid = _sharded_grid(tracing)
        assert grid.run(100_000).outcome is RunOutcome.ALL_HALTED
        # sixteen cells share four decodes, each translated whole
        assert made == [(len(grid.cell(0, 0).program), tracing)] * 4


def test_a_second_run_of_the_same_program_translates_nothing(monkeypatch):
    import lamp.sim

    monkeypatch.setattr(lamp.sim, "_TRANSLATIONS", {})
    first = _sharded_grid(False)
    first.run(100_000)
    assert len(lamp.sim._TRANSLATIONS) == 4  # sixteen cells, four codes
    made = list(lamp.sim._TRANSLATIONS.items())
    second = _sharded_grid(False)  # the same bytes, decoded again
    assert second.cell(0, 0)._code is not first.cell(0, 0)._code
    second.run(100_000)
    assert list(lamp.sim._TRANSLATIONS.items()) == made
    assert second.cell(0, 0).regs == first.cell(0, 0).regs


def test_a_step_translates_nothing(monkeypatch):
    """``Grid.step`` runs its one cycle on ``_run``: no cell's code is
    translated, and each step leaves the reference's state and trace."""
    import lamp.sim
    from sim_reference import RefGrid, grid_state

    for tracing in (False, True):
        monkeypatch.setattr(lamp.sim, "_TRANSLATIONS", {})
        grid, ref = _sharded_grid(tracing), RefGrid(256, tracing=tracing)
        ref.load_program(assemble(sharded.sharded_source(256)))
        for cell, seq in zip((c for row in ref.cells for c in row), grid._targets(None)):
            cell.a_matrix, cell.regs = list(seq.a_matrix), dict(seq.regs)
        for _ in range(3):
            grid.step()
            ref.step()
            assert lamp.sim._TRANSLATIONS == {}
            assert all(seq._segments == {} for seq in grid._targets(None))
            assert (grid_state(grid), grid.trace) == (grid_state(ref), ref.trace)


def test_the_translation_cache_keeps_at_most_its_bound(monkeypatch):
    import lamp.sim

    monkeypatch.setattr(lamp.sim, "_TRANSLATIONS", {})
    bound = lamp.sim._MAX_TRANSLATIONS
    loop = [Orf(Reg.MA), JumpIfFlag(0), Halt()]
    for width in range(1, bound + 6):  # one distinct loop per width
        g = one_cell_grid(loop, width)
        assert g.run(10) == lamp.sim.RunResult(RunOutcome.ALL_HALTED, 3)
        assert len(lamp.sim._TRANSLATIONS) == min(width, bound)
    assert [key[0] for key in lamp.sim._TRANSLATIONS] == list(range(6, bound + 6))
