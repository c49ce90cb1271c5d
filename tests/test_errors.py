"""Every library error is a LampError that keeps its built-in class.

Each case triggers one raise site and checks the LampError subclass, the
built-in class callers caught before, and the message.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp import (
    AsmSyntaxError,
    BinOp,
    CoordinateOutOfRange,
    Dir,
    EmptyIntersection,
    Grid,
    Halt,
    InvalidArgument,
    Jump,
    LampError,
    LoadImm,
    Logic,
    NotAVector,
    NotAnInstruction,
    NotBinary,
    Orf,
    PcOutOfRange,
    Program,
    Recv,
    Reg,
    Send,
    Sequencer,
    SequencerHalted,
    SetRow,
    UnOp,
    WidthMismatch,
    assemble,
    builtin_query_program,
    program_to_bytes,
)
from lamp.assoc import AssocTable, _as_ternary, load_table, rank
from lamp.bitvec import BitVector
from lamp.sim import ISA, M_REGS, IncRow, RunOutcome, RunResult
from lamp.ternary import TernaryVector, intersect

tv = TernaryVector.parse


def _run_after(change):
    """Run a grid whose cell (0,0) holds a program, after ``change(cell)``."""
    grid = Grid(4)
    grid.load_program(Program.single_cell([Halt()]))
    change(grid.cell(0, 0))
    grid.run(10)


def _run_program(instructions, tracing=False):
    """Run a grid whose cell (0,0) holds ``instructions``."""
    grid = Grid(4, tracing=tracing)
    grid.load_program(Program.single_cell(instructions))
    grid.run(10)


def _load_after_halts(r, c, inst):
    """Load ``Program.broadcast([Halt()])``, then a program whose cell (r, c)
    also holds ``inst``. The second load must be refused and then have
    changed no cell: each still holds ``[Halt()]`` at pc 0, and a run ends
    with every cell halted, as it would have before the load."""
    grid = Grid(4)
    grid.load_program(Program.broadcast([Halt()]))
    program = Program.broadcast([Orf(Reg.MA), Jump(0)])
    program.cells[r][c] = [Halt(), inst]
    try:
        grid.load_program(program)
    finally:
        assert all(seq.program == [Halt()] and seq.pc == 0 for row in grid.cells for seq in row)
        assert grid.run(10) == RunResult(RunOutcome.ALL_HALTED, 1)


def _step_after(change):
    """Step a standalone sequencer that holds a program, after ``change(seq)``."""
    seq = Sequencer(4, [Halt()])
    change(seq)
    seq.step()


# a cell's control state set before a run, and the run's refusal
CONTROL = {
    "pc_float": ("pc", 0.0, "cell (0,0): pc must be an int, got 0.0"),
    "pc_bool": ("pc", True, "cell (0,0): pc must be an int, got True"),
    "row_str": ("row_idx", "a", "cell (0,0): row counter must be a nonnegative int, got 'a'"),
    "row_negative": ("row_idx", -1, "cell (0,0): row counter must be a nonnegative int, got -1"),
    "flag_none": ("flag", None, "cell (0,0): flag must be 0 or 1, got None"),
    "flag_two": ("flag", 2, "cell (0,0): flag must be 0 or 1, got 2"),
}

CASES = [
    (lambda: rank(AssocTable.from_rows(["10"]), BitVector.parse("10"), 0),
     InvalidArgument, ValueError, "k must be >= 1, got 0"),
    (lambda: _as_ternary("10"),
     NotAVector, TypeError, "expected a vector, got str"),
    (lambda: TernaryVector(BitVector(3, 0b101)),
     InvalidArgument, ValueError, "encoded width must be even"),
    (lambda: tv("1x").to_bitvector(),
     NotBinary, ValueError, "vector contains x, not a binary vector"),
    (lambda: tv("1x0").symbol(4),
     CoordinateOutOfRange, IndexError, "coordinate 4 outside 1..3"),
    (lambda: BitVector.parse("101").bit(0),
     CoordinateOutOfRange, IndexError, "coordinate 0 outside 1..3"),
    (lambda: intersect(tv("01"), tv("x0")).to_ternary(),
     EmptyIntersection, ValueError, "empty intersection has no ternary form"),
    (lambda: Logic(BinOp.AND, Reg.MA, Reg.MB, UnOp.NOPU, Reg.ROW),
     InvalidArgument, ValueError, "destination must be an m-register, got Reg.ROW"),
    (lambda: SetRow(-1),
     InvalidArgument, ValueError, "row index must be an int in 0..65535, got -1"),
    (lambda: LoadImm(Reg.ROW, BitVector.parse("10")),
     InvalidArgument, ValueError, "LOADM target must be an m-register, got Reg.ROW"),
    (lambda: Send(Dir.N, Reg.ROW),
     InvalidArgument, ValueError, "SEND source must be an m-register, got Reg.ROW"),
    (lambda: Recv(Dir.S, Reg.ROW),
     InvalidArgument, ValueError, "RECV target must be an m-register, got Reg.ROW"),
    (lambda: Grid(4).run(0),
     InvalidArgument, ValueError, "max_cycles must be positive, got 0"),
    (lambda: builtin_query_program(0),
     InvalidArgument, ValueError, "rows must be >= 1, got 0"),
    (lambda: Sequencer(4, program=["HALT"]),
     NotAnInstruction, TypeError, "cannot execute 'HALT'"),
    (lambda: Sequencer(4).step(),
     SequencerHalted, RuntimeError, "step on a halted sequencer"),
    (lambda: load_table(b"01\n10\n"),
     NotAVector, TypeError, "expected table text, a text file or lines, got bytes"),
    (lambda: load_table(io.BytesIO(b"01\n10\n")),
     NotAVector, TypeError, "expected table text, a text file or lines, got bytes"),
    (lambda: load_table([b"01", b"10"]),
     NotAVector, TypeError, "expected table text, a text file or lines, got bytes"),
    (lambda: load_table(None),
     NotAVector, TypeError, "expected table text, a text file or lines, got NoneType"),
    (lambda: load_table(5),
     NotAVector, TypeError, "expected table text, a text file or lines, got int"),
    (lambda: load_table(io.TextIOWrapper(io.BytesIO(b"01\n1\xff\n"), encoding="utf-8")),
     InvalidArgument, ValueError, "table text is not utf-8: invalid start byte"),
    (lambda: Orf("MA"),
     InvalidArgument, ValueError, "source operand must be a Reg, got 'MA'"),
    (lambda: Send("E", Reg.MA),
     InvalidArgument, ValueError, "direction must be a Dir, got 'E'"),
    (lambda: Logic("AND", Reg.MA, Reg.MB, UnOp.NOPU, Reg.MC),
     InvalidArgument, ValueError, "binary op must be a BinOp, got 'AND'"),
    (lambda: LoadImm(Reg.MA, "0101"),
     InvalidArgument, ValueError, "bit literal must be a BitVector, got '0101'"),
    (lambda: Jump("x"),
     InvalidArgument, ValueError, "jump target must be an int in -65535..65535, got 'x'"),
    (lambda: SetRow("3"),
     InvalidArgument, ValueError, "row index must be an int in 0..65535, got '3'"),
    (lambda: Grid(8).set_register(Reg.MA, 5),
     NotAVector, TypeError, "expected a BitVector, got int"),
    (lambda: Grid(8).set_register("MA", BitVector(8, 5)),
     LampError, Exception, "cannot set 'MA': only MA, MB, MC and MD hold values"),
    (lambda: Grid(8).set_table([1, 2]),
     NotAVector, TypeError, "expected a BitVector, got int"),
    (lambda: Grid(8).cell(5, 5),
     CoordinateOutOfRange, IndexError, "cell (5,5) is outside the 4x4 grid"),
    (lambda: Grid(8).cell(-1, -1),
     CoordinateOutOfRange, IndexError, "cell (-1,-1) is outside the 4x4 grid"),
    (lambda: Program.single_cell([Halt()], at=(7, 7)),
     CoordinateOutOfRange, IndexError, "cell (7,7) is outside the 4x4 grid"),
    (lambda: Grid(8).load_program([Halt()]),
     NotAnInstruction, TypeError, "expected a Program, got list"),
    (lambda: Grid(4).cell(1.0, 2),
     InvalidArgument, ValueError, "cell coordinates must be ints, got (1.0, 2)"),
    (lambda: _run_after(lambda seq: seq.regs.__setitem__(Reg.MB, 5)),
     NotAVector, TypeError, "cell (0,0): register MB holds int, not a BitVector"),
    (lambda: _run_after(lambda seq: setattr(seq, "a_matrix", [BitVector(4, 1), 1])),
     NotAVector, TypeError, "expected a BitVector, got int"),
    (lambda: Grid(10**20),
     InvalidArgument, ValueError,
     "machine width must be an int in 1..65535, got 100000000000000000000"),
    (lambda: Grid(1 << 20000),
     InvalidArgument, ValueError,
     "machine width must be an int in 1..65535, got an int of 20001 bits"),
    (lambda: Grid(65536),
     InvalidArgument, ValueError, "machine width must be an int in 1..65535, got 65536"),
    (lambda: Grid(0),
     InvalidArgument, ValueError, "machine width must be an int in 1..65535, got 0"),
    (lambda: Sequencer(4.0),
     InvalidArgument, ValueError, "machine width must be an int in 1..65535, got 4.0"),
    (lambda: assemble(".width 99999999999999999999\nHALT\n"),
     AsmSyntaxError, Exception,
     "line 1: col 1: width 99999999999999999999 does not fit in 16 bits"),
    (lambda: _run_program([SetRow(10**5000), Halt()]),
     InvalidArgument, ValueError,
     "row index must be an int in 0..65535, got an int of 16610 bits"),
    (lambda: _run_program([Jump(10**5000), Halt()]),
     InvalidArgument, ValueError,
     "jump target must be an int in -65535..65535, got an int of 16610 bits"),
    (lambda: _run_program([Jump(10**5000), Halt()], tracing=True),
     InvalidArgument, ValueError,
     "jump target must be an int in -65535..65535, got an int of 16610 bits"),
    (lambda: _run_program([Halt(), Jump(10**5000)], tracing=True),
     InvalidArgument, ValueError,
     "jump target must be an int in -65535..65535, got an int of 16610 bits"),
    (lambda: SetRow(65536),
     InvalidArgument, ValueError, "row index must be an int in 0..65535, got 65536"),
    (lambda: Jump(-65536),
     InvalidArgument, ValueError, "jump target must be an int in -65535..65535, got -65536"),
    (lambda: assemble("SETROW 70000\nHALT\n"),
     AsmSyntaxError, Exception, "line 1: col 8: row index 70000 does not fit in 16 bits"),
    (lambda: Grid(4).run("5"),
     InvalidArgument, ValueError, "max_cycles must be an int, got '5'"),
    (lambda: Grid(4).run(2.5),
     InvalidArgument, ValueError, "max_cycles must be an int, got 2.5"),
    (lambda: Grid(4).run(True),
     InvalidArgument, ValueError, "max_cycles must be an int, got True"),
    (lambda: Grid(4).run(-(1 << 20000)),
     InvalidArgument, ValueError, "max_cycles must be positive, got a negative int of 20001 bits"),
    *((lambda attr=attr, value=value: _run_after(lambda seq: setattr(seq, attr, value)),
       InvalidArgument, ValueError, message) for attr, value, message in CONTROL.values()),
    (lambda: _step_after(lambda seq: setattr(seq, "pc", 0.0)),
     InvalidArgument, ValueError, "pc must be an int, got 0.0"),
    (lambda: _run_after(lambda seq: setattr(seq, "pc", 1 << 20000)),
     PcOutOfRange, LampError, "cell (0,0): pc an int of 20001 bits outside program of 1"),
    (lambda: _load_after_halts(1, 2, LoadImm(Reg.MA, BitVector(2, 1))),
     WidthMismatch, LampError, "cell (1,2): literal width 2 != grid width 4"),
    (lambda: _load_after_halts(2, 0, "junk"),
     NotAnInstruction, TypeError, "cell (2,0): cannot execute 'junk'"),
]


@pytest.mark.parametrize(
    "trigger, cls, builtin, message", CASES,
    ids=["rank_k", "as_ternary", "odd_width", "to_bitvector", "symbol", "bit",
         "to_ternary", "logic_dst", "setrow", "loadm", "send", "recv", "max_cycles",
         "builtin_rows", "decode", "halted_step", "table_bytes", "table_binary_file",
         "table_byte_lines", "table_none", "table_int", "table_not_utf8", "orf_str",
         "send_dir_str", "logic_binop_str", "loadm_literal_str", "jump_target_str",
         "setrow_str", "set_register_int", "set_register_str", "set_table_ints",
         "cell_outside", "cell_negative", "single_cell_outside", "load_program_list",
         "cell_float", "register_int", "matrix_row_int", "grid_width_huge",
         "grid_width_past_digit_limit", "grid_width_past_u16", "grid_width_zero",
         "sequencer_width_float", "asm_width_huge", "setrow_huge", "jump_huge",
         "jump_huge_traced", "trace_text_huge", "setrow_past_u16", "jump_past_u16",
         "asm_setrow_past_u16", "max_cycles_str", "max_cycles_float", "max_cycles_bool",
         "max_cycles_huge_negative", *CONTROL, "step_pc_float", "pc_huge",
         "load_refused_width", "load_refused_junk"],
)
def test_raise_is_lamp_error_and_builtin(trigger, cls, builtin, message):
    with pytest.raises(cls) as err:
        trigger()
    assert isinstance(err.value, LampError)
    assert isinstance(err.value, builtin)
    assert str(err.value) == message


@pytest.mark.parametrize("attr, value, message", CONTROL.values(), ids=CONTROL.keys())
def test_a_bad_control_state_is_refused_as_the_reference_refuses(attr, value, message):
    """By a run, a step, and a run whose budget is spent."""
    from sim_reference import RefGrid

    for grid in (Grid(4), Grid(4, tracing=True), RefGrid(4)):
        for spent in (False, True):
            grid.load_program(Program.single_cell([Jump(0)]))
            if spent:
                assert grid.run(3).cycles == 3  # no cycle is left to the run below
            setattr(grid.cell(0, 0), attr, value)
            for call in (lambda: grid.run(3), grid.step):
                with pytest.raises(InvalidArgument) as err:
                    call()
                assert str(err.value) == message



def test_a_refused_assignment_to_a_sequencer_changes_nothing():
    """Its program with its decode, its registers and its matrix keep their values."""
    seq = Sequencer(4, [Halt()], [BitVector(4, 3)])
    for assign, cls in (
        (lambda: setattr(seq, "program", [IncRow(), "junk"]), NotAnInstruction),
        (lambda: setattr(seq, "a_matrix", [BitVector(4, 1), BitVector(5, 1)]), WidthMismatch),
        (lambda: setattr(seq, "a_matrix", [BitVector(4, 1), "0001"]), NotAVector),
    ):
        with pytest.raises(cls):
            assign()
        assert seq.program == [Halt()] and seq.a_matrix == [BitVector(4, 3)]
        assert seq.regs == dict.fromkeys(M_REGS, BitVector(4, 0))
    seq.step()  # the old decode, not the refused one
    assert seq.halted and seq.cycles == 1 and seq.pc == 0

# Every enum's members (Reg.ROW among them), and values of the wrong type or range.
_OPERANDS = (
    st.sampled_from([*BinOp, *Reg, *UnOp, *Dir, "MA", "AND", "0101", "", None, True, False])
    | st.integers(-(1 << 17), 1 << 17)
    | st.builds(BitVector, st.integers(1, 12), st.integers(0, (1 << 12) - 1))
)


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(ISA), data=st.data(), width=st.sampled_from([None, 4]))
def test_an_instruction_is_refused_when_built_or_fails_only_as_lamp_error(cls, data, width):
    args = [data.draw(_OPERANDS) for _ in cls.OPERANDS]
    try:
        inst = cls(*args)
    except LampError:
        return
    program = Program.single_cell([inst], width=width)
    for use in (inst.text, lambda: program_to_bytes(program),
                lambda: Grid(4).load_program(program)):
        try:
            use()
        except LampError:
            pass
