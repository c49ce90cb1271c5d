import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lamp.asm
from lamp.asm import (
    assemble,
    disassemble,
    program_from_bytes,
    program_to_bytes,
)
from lamp.bitvec import BitVector
from lamp.errors import (
    AsmSyntaxError,
    DuplicateLabel,
    LampError,
    MalformedBinary,
    UnknownMnemonic,
    UnresolvedLabel,
    WidthMismatch,
)
from lamp.sim import (
    GRID_SIZE,
    ISA,
    JUMPS,
    OPERAND_KINDS,
    BinOp,
    Dir,
    Grid,
    Halt,
    IncRow,
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
    Send,
    SetRow,
    UnOp,
    builtin_query_program,
)
from test_sim_reference import sharded

bv = BitVector.parse


# --- assembling ---------------------------------------------------------------


def test_bare_halt_is_broadcast_to_every_cell():
    p = assemble("HALT")
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            assert p.cells[r][c] == [Halt()]


def test_logic_line_maps_to_exact_instruction():
    p = assemble(".cell 0,0\nLOGIC XOR MA, ROW, NOPU, MB\n")
    assert p.cells[0][0] == [Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.NOPU, Reg.MB)]


def test_mnemonics_case_insensitive_labels_case_sensitive():
    p = assemble("loop: logic pass ma, ma, slc, ma\njmp loop\n")
    assert p.cells[0][0][1] == Jump(0)
    with pytest.raises(UnresolvedLabel):
        assemble("Loop: HALT\nJMP loop\n")


def test_comments_and_blank_lines():
    p = assemble("\n; full-line comment\nHALT ; trailing comment\n\n")
    assert p.cells[3][3] == [Halt()]


def test_label_addresses_resolve_forward_and_back():
    src = """
.cell 1,2
start: ORF MA
  JF fwd
  JMP start
fwd: HALT
"""
    code = assemble(src).cells[1][2]
    assert code == [Orf(Reg.MA), JumpIfFlag(3), Jump(0), Halt()]


def test_width_and_loadm():
    p = assemble(".width 6\nLOADM MC, 010_101\n")
    assert p.width == 6
    assert p.cells[0][0] == [LoadImm(Reg.MC, bv("010101"))]


def test_cell_sections_route_code():
    src = ".cell 0,0\nHALT\n.cell 2,1\nORF ROW\nHALT\n"
    p = assemble(src)
    assert p.cells[0][0] == [Halt()]
    assert p.cells[2][1] == [Orf(Reg.ROW), Halt()]
    assert p.cells[1][1] == []


def test_same_cell_section_resumes():
    src = ".cell 0,0\nORF MA\n.cell 0,1\nHALT\n.cell 0,0\nHALT\n"
    p = assemble(src)
    assert p.cells[0][0] == [Orf(Reg.MA), Halt()]


@pytest.mark.parametrize(
    "src, exc, line",
    [
        ("HALT\nJF missing\n", UnresolvedLabel, 2),
        ("\n\nBOGUS\n", UnknownMnemonic, 3),
        ("x: HALT\nx: HALT\n", DuplicateLabel, 2),
        (".width 4\n.width 8\n", AsmSyntaxError, 2),
        (".cell 0,0\nHALT\n.cell 9,9\n", AsmSyntaxError, 3),
        ("HALT\n.cell 0,0\nHALT\n", AsmSyntaxError, 1),
        ("loop:\n", AsmSyntaxError, 1),
        ("LOGIC XOR MA ROW, NOPU, MB\n", AsmSyntaxError, 1),
        ("SEND Q, MA\n", AsmSyntaxError, 1),
        ("JMP 5\n", AsmSyntaxError, 1),
        ("LOADM MA, 0101\n", AsmSyntaxError, 1),
        ("ORF MA extra\n", AsmSyntaxError, 1),
        (".cell 0,0\nfoo: HALT\n.cell 0,1\nJMP foo\n", UnresolvedLabel, 4),
    ],
)
def test_errors_carry_one_based_line_numbers(src, exc, line):
    with pytest.raises(exc) as err:
        assemble(src)
    assert err.value.line == line


def test_error_column_points_at_offending_token():
    with pytest.raises(UnresolvedLabel) as err:
        assemble("JF missing\n")
    assert err.value.column == 4


@pytest.mark.parametrize(
    "src, exc, line, column",
    [
        ("SETROW -3\n", AsmSyntaxError, 1, 8),
        (".width 4\nLOADM MA, -0101\n", AsmSyntaxError, 2, 11),
        ("ORF MA!!\n", AsmSyntaxError, 1, 7),
        ("HALT $$$\n", AsmSyntaxError, 1, 6),
        ("JMP @x\nx: HALT\n", AsmSyntaxError, 1, 5),
        ("SETROW \u0663\n", AsmSyntaxError, 1, 8),  # ARABIC-INDIC DIGIT THREE
        ("SETROW \u00b2\n", AsmSyntaxError, 1, 8),  # SUPERSCRIPT TWO
        (".width \u00b2\n", AsmSyntaxError, 1, 8),
        (".cell 0,\u00b9\nHALT\n", AsmSyntaxError, 1, 9),
        ("\u017fend \u017f, MA\n", UnknownMnemonic, 1, 1),  # LATIN SMALL LETTER LONG S
        ("SEND \u017f, MA\n", AsmSyntaxError, 1, 6),
        (".w\u0131dth 4\n", AsmSyntaxError, 1, 1),  # LATIN SMALL LETTER DOTLESS I
    ],
)
def test_every_character_is_accounted_for(src, exc, line, column):
    with pytest.raises(exc) as err:
        assemble(src)
    assert type(err.value) is exc
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "src, line",
    [
        (".width 4 \f; ff in a comment\nFOO\n", 2),
        ("HALT ; a\u2028; b\nFOO\n", 2),
        ("HALT\v\x1c\x1d\x1e\x85\u2029\rHALT\r\nFOO\n", 3),
    ],
)
def test_error_line_is_the_line_of_a_text_mode_file(tmp_path, src, line):
    path = tmp_path / "p.lasm"
    path.write_bytes(src.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert [text.startswith("FOO") for text in fh].index(True) + 1 == line
    with pytest.raises(UnknownMnemonic) as err:
        assemble(src)
    assert str(err.value) == f"line {line}: col 1: unknown mnemonic 'FOO'"


@pytest.mark.parametrize(
    "src, message",
    [
        (".width 65536\nHALT\n", "line 1: col 1: width 65536 does not fit in 16 bits"),
        ("HALT\n  .width 99999999999999999999\n",
         "line 2: col 3: width 99999999999999999999 does not fit in 16 bits"),
        pytest.param(".width " + "9" * 5000 + "\nHALT\n",
                     "line 1: col 8: width has too many digits (5000)", id="width-of-5000-digits"),
        pytest.param("SETROW " + "1" * 5000 + "\n",
                     "line 1: col 8: row index has too many digits (5000)",
                     id="row-index-of-5000-digits"),
    ],
)
def test_a_width_past_16_bits_or_an_overlong_number_is_refused_where_it_stands(src, message):
    with pytest.raises(AsmSyntaxError) as err:
        assemble(src)
    assert type(err.value) is AsmSyntaxError and str(err.value) == message
    assert assemble(".width 65535\nHALT\n").width == 65535


def test_a_cell_prefixed_word_is_an_unknown_directive():
    with pytest.raises(AsmSyntaxError, match=r"^line 2: col 1: unknown directive '\.cell0'$"):
        assemble("HALT\n.cell0,0\n")


def test_a_non_ascii_label_that_folds_to_a_mnemonic_is_a_label():
    p = assemble("LOG\u0131C: HALT\nJMP LOG\u0131C\n")
    assert p.cells[0][0] == [Halt(), Jump(0)]


def test_width_may_follow_the_loadm_it_sizes():
    after = assemble(".cell 0,0\nLOADM MA, 0101\nHALT\n.width 4\n")
    assert after == assemble(".width 4\n.cell 0,0\nLOADM MA, 0101\nHALT\n")
    assert after.width == 4


# --- equal lines share one parse -------------------------------------------------


def _counted(monkeypatch, name):
    """Count the calls of ``lamp.asm.<name>`` while the test runs."""
    calls = []
    real = getattr(lamp.asm, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lamp.asm, name, counted)
    return calls


def test_each_distinct_line_is_tokenized_and_parsed_once(monkeypatch):
    source = sharded.sharded_source(256)
    tokenize, parse = _counted(monkeypatch, "_tokenize"), _counted(monkeypatch, "_parse_instr")
    program = assemble(source)
    monkeypatch.undo()
    assert program == assemble(source)
    lines = [raw.split(";", 1)[0] for raw in source.splitlines()]
    assert len(tokenize) == len(set(lines)) < len(lines)
    code = [inst for row in program.cells for cell in row for inst in cell]
    jumps = [inst for inst in code if isinstance(inst, JUMPS)]
    plain = [inst for inst in code if not isinstance(inst, JUMPS)]
    bodies = {inst.text() for inst in plain}  # the instructions' texts, labels aside
    assert len(parse) <= len(bodies) + len(jumps) < len(code)
    assert len({id(inst) for inst in plain}) == len(bodies)


def test_a_repeated_jump_resolves_against_its_own_cell():
    src = ".cell 0,0\nx: HALT\n    JNF x\n.cell 0,1\nJNF x\n"
    with pytest.raises(UnresolvedLabel) as err:
        assemble(src)
    assert str(err.value) == "line 5: col 5: label 'x' not defined in this cell"


def test_a_repeated_faulty_line_is_reported_at_its_first_line():
    with pytest.raises(AsmSyntaxError) as err:
        assemble("HALT\n  ORF MA MB\n  ORF MA MB\n")
    assert str(err.value) == "line 2: col 10: unexpected 'MB'"


# a few instructions, so that generated cells repeat lines within and across cells
POOL = [
    Halt(), IncRow(), Orf(Reg.MD), SetRow(1), LoadImm(Reg.MA, bv("0110")),
    Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MD),
    Logic(BinOp.PASS, Reg.ROW, Reg.ROW, UnOp.NOPU, Reg.MC),
    Send(Dir.E, Reg.MD), Recv(Dir.W, Reg.MB),
]


@st.composite
def repetitive_programs(draw):
    program = Program(width=4)
    for row in program.cells:
        for c in range(GRID_SIZE):
            n = draw(st.integers(0, 6))
            target = st.integers(0, max(n - 1, 0))
            jumps = st.builds(Jump, target) | st.builds(JumpIfNotFlag, target)
            row[c] = draw(st.lists(st.sampled_from(POOL) | jumps, min_size=n, max_size=n))
    return program


@settings(max_examples=60, deadline=None)
@given(repetitive_programs())
def test_equal_lines_share_one_instruction_and_encode_alike(p):
    q = assemble(disassemble(p))
    assert q == p
    code = [inst for row in q.cells for cell in row for inst in cell]
    plain = [inst for inst in code if not isinstance(inst, JUMPS)]
    assert len({id(inst) for inst in plain}) == len(set(plain))  # one object per text
    apart = Program(width=q.width, cells=[[[copy.copy(inst) for inst in cell] for cell in row]
                                          for row in q.cells])
    assert not {id(inst) for row in apart.cells for cell in row for inst in cell} & set(
        map(id, code))
    assert program_to_bytes(q) == program_to_bytes(apart)


def test_loadm_width_mismatch():
    with pytest.raises(WidthMismatch):
        assemble(".width 4\nLOADM MA, 01\n")


# --- disassembling ------------------------------------------------------------


EVERY_MNEMONIC = [
    Logic(BinOp.AND, Reg.MA, Reg.ROW, UnOp.NOT, Reg.MB),
    Logic(BinOp.OR, Reg.MB, Reg.MC, UnOp.NOPU, Reg.MC),
    Logic(BinOp.XOR, Reg.MC, Reg.MD, UnOp.SLC, Reg.MD),
    Logic(BinOp.PASS, Reg.MD, Reg.MD, UnOp.NOPU, Reg.MA),
    Orf(Reg.MD),
    JumpIfFlag(7),
    JumpIfNotFlag(8),
    SetRow(2),
    IncRow(),
    JumpIfRowLt(0),
    LoadImm(Reg.MB, bv("10110")),
    Send(Dir.NE, Reg.MA),
    Recv(Dir.SW, Reg.MB),
    Jump(14),
    Halt(),
]


def test_round_trip_every_mnemonic():
    p = Program.single_cell(EVERY_MNEMONIC, width=5, at=(3, 1))
    assert assemble(disassemble(p)) == p


EVERY_MNEMONIC_TEXT = """\
.width 5
.cell 3,1
L31_0: LOGIC AND MA, ROW, NOT, MB
    LOGIC OR MB, MC, NOPU, MC
    LOGIC XOR MC, MD, SLC, MD
    LOGIC PASS MD, MD, NOPU, MA
    ORF MD
    JF L31_7
    JNF L31_8
L31_7: SETROW 2
L31_8: INCROW
    JRLT L31_0
    LOADM MB, 10110
    SEND NE, MA
    RECV SW, MB
    JMP L31_14
L31_14: HALT
"""


def test_disassemble_every_mnemonic_golden():
    p = Program.single_cell(EVERY_MNEMONIC, width=5, at=(3, 1))
    assert disassemble(p) == EVERY_MNEMONIC_TEXT


def test_round_trip_builtin_query_program():
    p = Program.single_cell(builtin_query_program(2), width=12)
    text = disassemble(p)
    assert assemble(text) == p


def test_round_trip_multi_cell():
    p = Program(width=4)
    p.cells[0][0] = [Send(Dir.E, Reg.MA), Halt()]
    p.cells[0][1] = [Recv(Dir.W, Reg.MB), Jump(0)]
    assert assemble(disassemble(p)) == p


def test_disassemble_rejects_dangling_jump():
    p = Program.single_cell([Jump(5), Halt()])
    with pytest.raises(MalformedBinary):
        disassemble(p)


def test_disassemble_rejects_literal_without_width():
    p = Program.single_cell([LoadImm(Reg.MA, bv("01")), Halt()])
    with pytest.raises(MalformedBinary):
        disassemble(p)


# --- binary codec ---------------------------------------------------------------


def test_bytes_round_trip_every_mnemonic():
    p = Program.single_cell(EVERY_MNEMONIC, width=5, at=(2, 2))
    assert program_from_bytes(program_to_bytes(p)) == p


# records are ``kind f1 f2 f3 f4 f5 arg16``; LOADM's literal follows its record
EVERY_MNEMONIC_RECORDS = [
    "00 00 00 04 00 01 0000",  # LOGIC AND MA, ROW, NOT, MB
    "00 01 01 02 02 02 0000",  # LOGIC OR MB, MC, NOPU, MC
    "00 02 02 03 01 03 0000",  # LOGIC XOR MC, MD, SLC, MD
    "00 03 03 03 02 00 0000",  # LOGIC PASS MD, MD, NOPU, MA
    "01 03 00 00 00 00 0000",  # ORF MD
    "03 00 00 00 00 00 0007",  # JF 7
    "04 00 00 00 00 00 0008",  # JNF 8
    "05 00 00 00 00 00 0002",  # SETROW 2
    "06 00 00 00 00 00 0000",  # INCROW
    "07 00 00 00 00 00 0000",  # JRLT 0
    "08 01 00 00 00 00 0000 b0",  # LOADM MB, 10110 (padded to one byte)
    "09 01 00 00 00 00 0000",  # SEND NE, MA
    "0a 05 01 00 00 00 0000",  # RECV SW, MB
    "02 00 00 00 00 00 000e",  # JMP 14
    "0b 00 00 00 00 00 0000",  # HALT
]


def test_bytes_every_mnemonic_golden():
    counts = [0] * GRID_SIZE**2
    counts[3 * GRID_SIZE + 1] = len(EVERY_MNEMONIC)
    expect = b"LAMP1" + (5).to_bytes(2, "big")
    expect += b"".join(n.to_bytes(4, "big") for n in counts)
    expect += bytes.fromhex("".join(EVERY_MNEMONIC_RECORDS))
    p = Program.single_cell(EVERY_MNEMONIC, width=5, at=(3, 1))
    assert program_to_bytes(p) == expect
    assert program_from_bytes(expect) == p


def test_bytes_round_trip_width_unset():
    p = Program.broadcast([Orf(Reg.MA), Halt()])
    assert program_from_bytes(program_to_bytes(p)) == p


def test_width_outside_u16_field_is_malformed_binary():
    program = Program.single_cell([Halt()], width=70000)  # the assembler refuses .width 70000
    with pytest.raises(MalformedBinary, match=r"^width 70000 does not fit in 16 bits$"):
        program_to_bytes(program)
    program_to_bytes(Program.single_cell([Halt()], width=0xFFFF))


def test_width_zero_is_malformed_binary_not_unset():
    # LAMP1 reads width 0 as unspecified: encoded, it would decode as width None
    with pytest.raises(MalformedBinary, match=r"^width 0 is not positive$"):
        program_to_bytes(Program.single_cell([Halt()], width=0))
    narrow = Program.single_cell([Halt()], width=1)
    assert program_from_bytes(program_to_bytes(narrow)) == narrow


def test_truncated_binary_rejected():
    blob = program_to_bytes(Program.single_cell(EVERY_MNEMONIC, width=5))
    for cut in (3, 10, len(blob) - 1):
        with pytest.raises(MalformedBinary):
            program_from_bytes(blob[:cut])


def test_bad_magic_rejected():
    blob = program_to_bytes(Program.broadcast([Halt()]))
    with pytest.raises(MalformedBinary):
        program_from_bytes(b"NOPE!" + blob[5:])


@pytest.mark.parametrize(
    "record",
    [
        "0c 00 00 00 00 00 0000",  # kind past HALT
        "00 04 00 00 00 00 0000",  # binary op past PASS
        "00 00 05 00 00 00 0000",  # source past ROW
        "00 00 00 00 03 00 0000",  # unary op past NOPU
        "00 00 00 00 00 04 0000",  # ROW as LOGIC destination
        "09 08 00 00 00 00 0000",  # direction past NW
    ],
)
def test_invalid_field_code_rejected(record):
    header = program_to_bytes(Program.single_cell([Halt()]))[:-8]
    with pytest.raises(MalformedBinary):
        program_from_bytes(header + bytes.fromhex(record))


def test_trailing_garbage_rejected():
    blob = program_to_bytes(Program.broadcast([Halt()]))
    with pytest.raises(MalformedBinary):
        program_from_bytes(blob + b"\x00")


def _blob(*cells, width=0):
    """A LAMP1 binary whose cells (0,0), (0,1), ... hold the given records,
    each a hex string, written as they are: bad codes, literals, cut ends."""
    counts = [0] * GRID_SIZE**2
    for idx, records in enumerate(cells):
        counts[idx] = len(records)
    head = b"LAMP1" + width.to_bytes(2, "big")
    head += b"".join(n.to_bytes(4, "big") for n in counts)
    return head + bytes.fromhex("".join(r for records in cells for r in records))


HALT = "0b 00 00 00 00 00 0000"
VALID = _blob([HALT])  # the header is 71 bytes, so the first record is at 71

# one case per MalformedBinary the decoder raises, with its exact text
MALFORMED = {
    "bad-magic": (b"NOPE!" + VALID[5:], "bad magic, not a LAMP1 program"),
    "cut-in-magic": (b"LAM", "truncated: wanted 5 bytes at offset 0"),
    "cut-in-width": (b"LAMP1\x00", "truncated: wanted 2 bytes at offset 5"),
    "cut-in-counts": (VALID[:20], "truncated: wanted 4 bytes at offset 19"),
    "cut-in-record": (VALID[:76], "truncated: wanted 8 bytes at offset 71"),
    "cut-in-second-record": (_blob([HALT, "0b 00 00"]),
                             "truncated: wanted 8 bytes at offset 79"),
    "cut-in-literal": (_blob(["08 00 00 00 00 00 0000 ab"], width=16),
                       "truncated: wanted 2 bytes at offset 79"),
    "kind": (_blob(["0c 00 00 00 00 00 0000"]), "invalid instruction kind 12"),
    "binop": (_blob(["00 04 00 00 00 00 0000"]), "invalid binary op code 4"),
    "src": (_blob(["00 00 05 00 00 00 0000"]), "invalid source operand code 5"),
    "unop": (_blob(["00 00 00 00 03 00 0000"]), "invalid unary op code 3"),
    "mreg": (_blob(["00 00 00 00 00 04 0000"]), "invalid m-register code 4"),
    "dir": (_blob(["09 08 00 00 00 00 0000"]), "invalid direction code 8"),
    "loadm-without-width": (_blob(["08 00 00 00 00 00 0000"]),
                            "LOADM literal without a width"),
    "nonzero-padding": (_blob(["08 00 00 00 00 00 0000 b1"], width=5),
                        "nonzero padding in LOADM literal"),
    "trailing": (VALID + b"\0\0", "2 trailing bytes"),
    # two faults in one record: the earlier field is reported
    "loadm-bad-mreg-and-no-width": (_blob(["08 04 00 00 00 00 0000"]),
                                    "invalid m-register code 4"),
    "logic-bad-binop-and-src": (_blob(["00 04 05 00 00 00 0000"]),
                                "invalid binary op code 4"),
    # a record equal to one decoded before is still checked in full
    "bad-record-twice": (_blob(["00 04 00 00 00 00 0000"] * 2),
                         "invalid binary op code 4"),
    "same-loadm-bad-padding": (
        _blob(["08 01 00 00 00 00 0000 b0"], ["08 01 00 00 00 00 0000 b1"], width=5),
        "nonzero padding in LOADM literal"),
    "same-loadm-cut-literal": (
        _blob(["08 01 00 00 00 00 0000 abcd", "08 01 00 00 00 00 0000 ab"], width=16),
        "truncated: wanted 2 bytes at offset 89"),
    "same-record-cut": (_blob([HALT], [HALT[:8]]), "truncated: wanted 8 bytes at offset 79"),
    # a field the record's kind leaves unused holds zero, so each program has one encoding
    "unused-f2": (_blob(["01 03 01 00 00 00 0000"]),
                  "nonzero unused field f2 in the record at offset 71"),
    "unused-f1-of-a-jump": (_blob(["02 01 00 00 00 00 0003"]),
                            "nonzero unused field f1 in the record at offset 71"),
    "unused-f5-and-arg16": (_blob(["0b 00 00 00 00 07 0001"]),
                            "nonzero unused field f5 in the record at offset 71"),
    "unused-arg16": (_blob(["00 00 00 00 00 01 0100"]),
                     "nonzero unused field arg16 in the record at offset 71"),
    "unused-arg16-of-a-loadm": (_blob(["08 01 00 00 00 00 0001 b0"], width=5),
                                "nonzero unused field arg16 in the record at offset 71"),
    "unused-in-second-record": (_blob([HALT, "06 00 00 00 00 00 8000"]),
                                "nonzero unused field arg16 in the record at offset 79"),
    "bad-code-and-unused": (_blob(["09 08 00 00 00 01 0000"]), "invalid direction code 8"),
    "pass-second-source": (_blob(["00 03 00 01 02 00 0000"]),
                           "non-canonical field f3 in the record at offset 71"),
}


def test_equal_records_decode_to_one_shared_instruction():
    ones, zeros = LoadImm(Reg.MA, bv("11111")), LoadImm(Reg.MA, bv("00000"))
    p = Program.broadcast([ones, zeros, LoadImm(Reg.MA, bv("11111")), Halt()], width=5)
    decoded = program_from_bytes(program_to_bytes(p))
    assert decoded == p
    code = decoded.cells[0][0]
    assert code[0] is code[2] and code[0] is not code[1]  # the literal is in the key
    assert all(decoded.cells[r][c][i] is code[i] for r in range(4) for c in range(4)
               for i in range(4))


@pytest.mark.parametrize("blob, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_binary_messages_golden(blob, message):
    with pytest.raises(MalformedBinary) as exc:
        program_from_bytes(blob)
    assert str(exc.value) == message


# --- generated-program round trips -----------------------------------------------


@st.composite
def cell_programs(draw, width):
    n = draw(st.integers(1, 10))
    mregs = st.sampled_from((Reg.MA, Reg.MB, Reg.MC, Reg.MD))
    srcs = st.sampled_from(tuple(Reg))
    target = st.integers(0, n - 1)
    instr = st.one_of(
        st.builds(
            Logic,
            st.sampled_from(tuple(BinOp)),
            srcs,
            srcs,
            st.sampled_from(tuple(UnOp)),
            mregs,
        ),
        st.builds(Orf, srcs),
        st.builds(Jump, target),
        st.builds(JumpIfFlag, target),
        st.builds(JumpIfNotFlag, target),
        st.builds(SetRow, st.integers(0, 30)),
        st.just(IncRow()),
        st.builds(JumpIfRowLt, target),
        st.builds(
            LoadImm,
            mregs,
            st.integers(0, 2**width - 1).map(lambda v: BitVector(width, v)),
        ),
        st.builds(Send, st.sampled_from(tuple(Dir)), mregs),
        st.builds(Recv, st.sampled_from(tuple(Dir)), mregs),
        st.just(Halt()),
    )
    return draw(st.lists(instr, min_size=n, max_size=n))


@st.composite
def programs(draw):
    width = draw(st.integers(1, 20))
    prog = Program(width=width)
    cells = draw(
        st.sets(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3
        )
    )
    for r, c in cells:
        prog.cells[r][c] = draw(cell_programs(width))
    return prog


@settings(max_examples=80, deadline=None)
@given(programs())
def test_generated_program_round_trips(p):
    assert assemble(disassemble(p)) == p
    assert program_from_bytes(program_to_bytes(p)) == p


@settings(max_examples=200, deadline=None)
@given(programs(), st.data())
def test_a_one_byte_mutant_is_refused_or_re_encodes_to_itself(p, data):
    blob = program_to_bytes(p)
    at = data.draw(st.integers(0, len(blob) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    mutant = blob[:at] + bytes([byte]) + blob[at + 1 :]
    try:
        decoded = program_from_bytes(mutant)
    except MalformedBinary:
        return
    assert program_to_bytes(decoded) == mutant
    grid = Grid(decoded.width or 4)  # what decodes runs, or fails only as a LampError
    try:
        grid.load_program(decoded)
        grid.run(64)
    except LampError:
        pass


def test_every_accepted_mutant_of_the_builtin_query_re_encodes_to_itself():
    blob = program_to_bytes(Program.single_cell(builtin_query_program(8), width=8))
    accepted = 0
    for at, old in enumerate(blob):
        for byte in {old ^ 0x01, old ^ 0x02, old ^ 0x10, old ^ 0x80, 0x00, 0xFF} - {old}:
            mutant = blob[:at] + bytes([byte]) + blob[at + 1 :]
            try:
                decoded = program_from_bytes(mutant)
            except MalformedBinary:
                continue
            accepted += 1
            assert program_to_bytes(decoded) == mutant, (at, byte)
    assert accepted  # a program without LOADM takes any width, and a jump any target


# every valid row index or jump target is a u16; these span the field
ARG16_CODES = (0, 1, 2, 255, 256, 4095, 32767, 32768, 65534, 65535)


@pytest.mark.parametrize("cls", ISA, ids=lambda cls: cls.__name__)
def test_every_valid_record_decodes_to_the_checked_instruction(cls):
    """Each valid code of each operand decodes without an error to what
    the checked constructor gives, enum operands in every combination but
    a LOGIC PASS whose second source is not its first."""
    choices = []  # per operand: (where it is encoded, its code, the value it decodes to)
    for _, kind in cls.OPERANDS:
        accepts = OPERAND_KINDS[kind][0]
        if kind == "literal":  # width 5: the literal's byte holds three padding bits
            choices.append([("literal", v << 3, BitVector(5, v)) for v in (0, 1, 0b10110, 31)])
        elif callable(accepts):
            choices.append([("arg16", code, code) for code in ARG16_CODES])
        else:
            choices.append([("field", code, member) for code, member in enumerate(accepts)])
    for combo in itertools.product(*choices):
        fields = [code for where, code, _ in combo if where == "field"]
        arg16 = sum(code for where, code, _ in combo if where == "arg16")
        literal = bytes(code for where, code, _ in combo if where == "literal")
        record = bytes([ISA.index(cls), *fields, *[0] * (5 - len(fields))])
        record += arg16.to_bytes(2, "big") + literal
        expect = cls(*(value for _, _, value in combo))
        if expect.operands() != tuple(value for _, _, value in combo):
            # a PASS's second source is its first: LAMP1 holds only the normalized record
            with pytest.raises(MalformedBinary, match=r"^non-canonical field f3 in the "
                                                      r"record at offset 71$"):
                program_from_bytes(_blob([record.hex()], width=5))
            continue
        inst = program_from_bytes(_blob([record.hex()], width=5)).cells[0][0][0]
        assert type(inst) is cls and inst == expect and hash(inst) == hash(expect)
