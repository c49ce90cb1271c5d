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
    Program,
    Recv,
    Reg,
    Send,
    Sequencer,
    SequencerHalted,
    SetRow,
    UnOp,
    assemble,
    builtin_query_program,
    program_to_bytes,
)
from lamp.assoc import AssocTable, _as_ternary, load_table, rank
from lamp.bitvec import BitVector
from lamp.sim import ISA
from lamp.ternary import TernaryVector, intersect

tv = TernaryVector.parse


def _run_after(change):
    """Run a grid whose cell (0,0) holds a program, after ``change(cell)``."""
    grid = Grid(4)
    grid.load_program(Program.single_cell([Halt()]))
    change(grid.cell(0, 0))
    grid.run(10)


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
     InvalidArgument, ValueError, "row index must be nonnegative, got -1"),
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
     InvalidArgument, ValueError, "jump target must be an int, got 'x'"),
    (lambda: SetRow("3"),
     InvalidArgument, ValueError, "row index must be nonnegative, got '3'"),
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
     NotAVector, TypeError, "cell (0,0): matrix row 1 is int, not a BitVector"),
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
         "sequencer_width_float", "asm_width_huge"],
)
def test_raise_is_lamp_error_and_builtin(trigger, cls, builtin, message):
    with pytest.raises(cls) as err:
        trigger()
    assert isinstance(err.value, LampError)
    assert isinstance(err.value, builtin)
    assert str(err.value) == message


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
