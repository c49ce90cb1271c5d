"""Cycle-level simulator for a 4x4 grid of vector sequencers.

Each cell owns four m-registers (MA..MD), a read-only matrix of
associator rows addressed by a row counter, a command memory, and a
two-stage logic datapath: a binary stage (AND / OR / XOR / PASS) over
two of the five operands {MA, MB, MC, MD, ROW}, followed by a unary
stage (NOT / SLC / no-op) whose result lands in one of the four
m-registers. Every executed instruction, including an exchange stall,
costs exactly one cycle.

The sixteen cells sit on a torus with the full 8-neighbor (Moore)
adjacency, the only closed 16-cell arrangement giving each cell exactly
eight distinct neighbors. Exchange is a blocking rendezvous: a SEND and
the facing RECV complete together in the first cycle both are pending;
an unmatched partner stalls. Cells are scanned in fixed row-major order
and transfers copy the sender's start-of-cycle value, so simulation is
bit-for-bit deterministic.

A program is predecoded when it is loaded: each instruction becomes a
tuple of plain ints (opcode, register indexes, the literal's value, the
jump target), which ``_run`` executes for one cell, one instruction per
cycle. Cells meet only at SEND and RECV, so ``Grid.run`` and
``Grid.step`` run each cell alone to its next exchange and settle the
exchanges from the cycles at which the cells arrived (``_free_run``, the
one interpreter of a grid over many cycles). There each loop of a cell's
code (the pcs from a backward jump's target to the jump) runs as one
Python function translated from its tuples, with every basic block as
straight-line int code, cached by value up to a fixed bound; the rest
runs on ``_run``, the oracle of the translations. A traced run notes
each jump taken and each exchange and writes its trace from them at the
end. A run that faults is run again to the cycle before the fault, and
``_step``, which also runs ``Sequencer.step``, runs that one cycle.
Registers are ``BitVector``s at the API edge, in ``Sequencer.regs``;
inside a run they are ints, read when the run starts and written back
when it returns or raises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, zip_longest

from .bitvec import BitVector
from .errors import (
    CoordinateOutOfRange,
    DeadlockDetected,
    InvalidArgument,
    InvalidRowIndex,
    LampError,
    NotAnInstruction,
    NotAVector,
    PcOutOfRange,
    SequencerHalted,
    WidthMismatch,
)

GRID_SIZE = 4
MAX_WIDTH = 0xFFFF  # the widest vector LAMP1's u16 width field can state
MAX_ARG = 0xFFFF  # the largest row index or jump target its u16 arg16 field can state


class Reg(enum.Enum):
    """Operand ports: four m-registers plus the matrix row port."""

    MA = 0
    MB = 1
    MC = 2
    MD = 3
    ROW = 4


M_REGS = (Reg.MA, Reg.MB, Reg.MC, Reg.MD)


class BinOp(enum.Enum):
    AND = 0
    OR = 1
    XOR = 2
    PASS = 3  # first operand through, second ignored


class UnOp(enum.Enum):
    NOT = 0
    SLC = 1  # shift-left crowding, the sls primitive
    NOPU = 2


class Dir(enum.Enum):
    N = 0
    NE = 1
    E = 2
    SE = 3
    S = 4
    SW = 5
    W = 6
    NW = 7


_DIR_OFFSET = {
    Dir.N: (-1, 0),
    Dir.NE: (-1, 1),
    Dir.E: (0, 1),
    Dir.SE: (1, 1),
    Dir.S: (1, 0),
    Dir.SW: (1, -1),
    Dir.W: (0, -1),
    Dir.NW: (-1, -1),
}


def opposite(d: Dir) -> Dir:
    # directions run clockwise from N, so the opposite is half a turn on
    return Dir((d.value + 4) % 8)


def neighbor(r: int, c: int, d: Dir) -> tuple[int, int]:
    dr, dc = _DIR_OFFSET[d]
    return (r + dr) % GRID_SIZE, (c + dc) % GRID_SIZE


# --------------------------------------------------------------------------
# Instruction set


# What each operand kind accepts, stated once; the checks made at construction
# and the parser and codec in ``asm`` read it. kind -> (an enum kind's members
# in binary-code order, or a test of any other kind's value; what errors call
# the operand; what its value must be)
OPERAND_KINDS = {
    "binop": (tuple(BinOp), "binary op", "a BinOp"),
    "src": (tuple(Reg), "source operand", "a Reg"),
    "unop": (tuple(UnOp), "unary op", "a UnOp"),
    "mreg": (M_REGS, "m-register", "an m-register"),
    "dir": (tuple(Dir), "direction", "a Dir"),
    "target": (lambda value: type(value) is int and -MAX_ARG <= value <= MAX_ARG,  # not a bool
               "jump target", f"an int in -{MAX_ARG}..{MAX_ARG}"),
    "index": (lambda value: type(value) is int and 0 <= value <= MAX_ARG,
              "row index", f"an int in 0..{MAX_ARG}"),
    "literal": (lambda value: isinstance(value, BitVector), "bit literal", "a BitVector"),
}
_RANGED = ("mreg", "target", "index")  # the kinds that refuse some values of their type


def _shown(value) -> str:
    """``value`` in an error: Reg.ROW, an int too long for str() by its size, or its repr."""
    if isinstance(value, enum.Enum):
        return str(value)
    if type(value) is int and value.bit_length() > 9999:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)


class Instruction:
    """Base of the instruction classes.

    Each class declares its assembly MNEMONIC and, in OPERANDS, one
    ``(field name, kind)`` pair per field, in field order. The kinds are
    the enum operands ``binop``, ``src`` (any Reg), ``unop``, ``mreg`` (an
    m-register) and ``dir``, plus ``target`` (a jump address), ``index``
    (a row number) and ``literal`` (a BitVector). The pairs are the one
    statement of an instruction's shape, and ``OPERAND_KINDS`` the one
    table of what each kind accepts. From them the base makes each class
    a frozen dataclass whose fields are annotated with their kinds, and
    gives it the check of every field as ``_check``, run by
    ``__post_init__`` on construction, so a wrong operand is an
    InvalidArgument. The assembler, disassembler and codec read the same.
    """

    MNEMONIC = ""
    OPERANDS: tuple[tuple[str, str], ...] = ()
    ROLE = ""  # what errors call the class's one mreg, target or index operand

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__annotations__ = dict(cls.OPERANDS)
        if sum(kind in _RANGED for _, kind in cls.OPERANDS) > 1:  # ROLE names one operand
            raise TypeError(f"{cls.__name__} declares more than one checked operand")
        checks = []  # (field name, test, error message up to the value)
        for name, kind in cls.OPERANDS:
            accepts, noun, must = OPERAND_KINDS[kind]
            role = cls.ROLE or noun if kind in _RANGED else noun
            test = accepts if callable(accepts) else accepts.__contains__
            checks.append((name, test, f"{role} must be {must}, got "))

        def check(inst) -> None:
            for name, test, error in checks:
                value = getattr(inst, name)
                if not test(value):
                    raise InvalidArgument(error + _shown(value))

        cls._check = check
        if checks and "__post_init__" not in cls.__dict__:  # none for IncRow and Halt
            cls.__post_init__ = check
        dataclass(frozen=True)(cls)

    def operands(self) -> tuple:
        """Field values in the order of OPERANDS."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def text(self, label=str) -> str:
        """Assembly text; ``label`` renders jump targets."""
        out, sep = self.MNEMONIC, " "
        for name, kind in self.OPERANDS:
            value = getattr(self, name)
            if kind == "target":
                value = label(value)
            elif kind == "index":
                value = str(value)
            elif kind == "literal":
                value = value.to01()
            else:
                value = value.name
            out += sep + value
            # LOGIC's binary op is set off by a space, every other operand by a comma
            sep = " " if kind == "binop" else ", "
        return out


class Logic(Instruction):
    MNEMONIC = "LOGIC"
    OPERANDS = (("binop", "binop"), ("src_a", "src"), ("src_b", "src"), ("unop", "unop"),
                ("dst", "mreg"))
    ROLE = "destination"

    def __post_init__(self):
        self._check()
        if self.binop is BinOp.PASS and self.src_b is not self.src_a:
            # PASS has one operand; normalize so equal programs compare equal
            object.__setattr__(self, "src_b", self.src_a)


class Orf(Instruction):
    MNEMONIC = "ORF"
    OPERANDS = (("src", "src"),)


class Jump(Instruction):
    MNEMONIC = "JMP"
    OPERANDS = (("target", "target"),)


class JumpIfFlag(Instruction):
    MNEMONIC = "JF"
    OPERANDS = (("target", "target"),)


class JumpIfNotFlag(Instruction):
    MNEMONIC = "JNF"
    OPERANDS = (("target", "target"),)


class SetRow(Instruction):
    MNEMONIC = "SETROW"
    OPERANDS = (("index", "index"),)


class IncRow(Instruction):
    MNEMONIC = "INCROW"


class JumpIfRowLt(Instruction):
    """Jump while the row counter is below the loaded row count."""

    MNEMONIC = "JRLT"
    OPERANDS = (("target", "target"),)


class LoadImm(Instruction):
    MNEMONIC = "LOADM"
    OPERANDS = (("reg", "mreg"), ("literal", "literal"))
    ROLE = "LOADM target"


class Send(Instruction):
    MNEMONIC = "SEND"
    OPERANDS = (("direction", "dir"), ("reg", "mreg"))
    ROLE = "SEND source"


class Recv(Instruction):
    MNEMONIC = "RECV"
    OPERANDS = (("direction", "dir"), ("reg", "mreg"))
    ROLE = "RECV target"


class Halt(Instruction):
    MNEMONIC = "HALT"


# The position of a class here is its kind code in the binary format.
ISA = (
    Logic, Orf, Jump, JumpIfFlag, JumpIfNotFlag, SetRow, IncRow,
    JumpIfRowLt, LoadImm, Send, Recv, Halt,
)

JUMPS = (Jump, JumpIfFlag, JumpIfNotFlag, JumpIfRowLt)


@dataclass
class Program:
    """Per-cell instruction lists plus the shared vector width.

    ``width`` may be None for programs without LOADM literals; the grid
    width is then supplied at load time.
    """

    width: int | None = None
    cells: list[list[list[Instruction]]] = field(
        default_factory=lambda: [
            [[] for _ in range(GRID_SIZE)] for _ in range(GRID_SIZE)
        ]
    )

    @classmethod
    def single_cell(cls, instructions, width=None, at=(0, 0)) -> "Program":
        prog = cls(width=width)
        r, c = _place(at)
        prog.cells[r][c] = list(instructions)
        return prog

    @classmethod
    def broadcast(cls, instructions, width=None) -> "Program":
        prog = cls(width=width)
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                prog.cells[r][c] = list(instructions)
        return prog


def _place(at) -> tuple[int, int]:
    """The (row, column) ``at``, checked to name a cell of the grid."""
    r, c = at
    if not (isinstance(r, int) and isinstance(c, int)):
        raise InvalidArgument(f"cell coordinates must be ints, got ({r!r}, {c!r})")
    if r not in range(GRID_SIZE) or c not in range(GRID_SIZE):
        raise CoordinateOutOfRange(f"cell ({r},{c}) is outside the {GRID_SIZE}x{GRID_SIZE} grid")
    return r, c


def _check_vector(value) -> None:
    if not isinstance(value, BitVector):
        raise NotAVector(f"expected a BitVector, got {type(value).__name__}")


# --------------------------------------------------------------------------
# Predecoded code
#
# A cell's program is decoded once, when it is loaded, into one tuple of
# plain ints per instruction, and runs execute the tuples on int
# registers. The last field of a tuple is the stop code of the pc it
# falls through to: _STOP when that pc holds an exchange, lies past the
# end of the program or is the head of a loop, where _run returns, and
# _GO otherwise. A jump carries a second stop code for its target, _BAD
# when the target lies outside the program. A loop is the pcs from the
# target of a backward jump to the last backward jump to that target.
# The free run (_free_run) executes a loop through its translation
# (_translation), kept by value in _TRANSLATIONS, the oldest dropped past
# _MAX_TRANSLATIONS, and the rest on _run, one instruction per cycle, as
# the one-cycle step (_step) does.

_LOGIC, _ORF, _JUMP, _SETROW, _INCROW, _LOADM, _SEND, _RECV, _HALT, _BADWIDTH = range(10)
_GO, _STOP, _BAD = range(3)
_ALWAYS, _IF_FLAG, _IF_NOT_FLAG, _IF_ROW = range(4)  # jump conditions, in the order of JUMPS
_CONDITION = {cls: cond for cond, cls in enumerate(JUMPS)}
_AND, _OR, _XOR = BinOp.AND.value, BinOp.OR.value, BinOp.XOR.value
_NOT, _SLC = UnOp.NOT.value, UnOp.SLC.value
_ROW = Reg.ROW.value  # the row port is register slot 4 of a running cell

_CELLS = [(r, c) for r in range(GRID_SIZE) for c in range(GRID_SIZE)]  # scan order
_WHERE = [f"cell ({r},{c}): " for r, c in _CELLS]  # error prefix
_POSITION = [f"{r},{c}" for r, c in _CELLS]  # trace field
_PARTNER = [  # _PARTNER[cell][direction] is the neighbouring cell's index
    [GRID_SIZE * rr + cc for rr, cc in (neighbor(r, c, d) for d in Dir)] for r, c in _CELLS
]
_FACING = [opposite(d).value for d in Dir]  # the direction a partner must name


def _decode(program: list, width: int) -> tuple[list[tuple], dict]:
    """The int code of one cell's instructions, for vectors of ``width``,
    and its loops as ``{head pc: last pc}``, to which a free run adds each
    translation it makes at ``(head pc, traced)``."""
    size = len(program)
    loops = {inst.target: pc for pc, inst in enumerate(program)  # the last jump back ends it
             if type(inst) in _CONDITION and 0 <= inst.target <= pc}
    stops = [_STOP if type(inst) in (Send, Recv) or pc in loops else _GO
             for pc, inst in enumerate(program)]
    stops.append(_STOP)
    code = []
    for pc, inst in enumerate(program):
        cls, stop = type(inst), stops[pc + 1]
        if cls is Logic:
            a, b = inst.src_a._value_, inst.src_b._value_
            code.append((_LOGIC, inst.binop._value_, a, b, inst.unop._value_,
                         inst.dst._value_, _ROW in (a, b), stop))
        elif cls is Orf:
            src = inst.src._value_
            code.append((_ORF, src, src == _ROW, stop))
        elif cls in _CONDITION:
            target = inst.target
            taken = stops[target] if 0 <= target < size else _BAD
            code.append((_JUMP, _CONDITION[cls], target, taken, stop))
        elif cls is SetRow:
            code.append((_SETROW, inst.index, stop))
        elif cls is IncRow:
            code.append((_INCROW, stop))
        elif cls is LoadImm:
            lit = inst.literal
            if lit.n != width:
                code.append((_BADWIDTH, lit.n))
            else:
                code.append((_LOADM, inst.reg._value_, lit.value, stop))
        elif cls is Send or cls is Recv:
            code.append((_SEND if cls is Send else _RECV, inst.direction._value_,
                         inst.reg._value_, stop))
        elif cls is Halt:
            code.append((_HALT,))
        else:
            raise NotAnInstruction(f"cannot execute {inst!r}")
    return code, loops


def _row_error(row: int, matrix: list) -> InvalidRowIndex:
    return InvalidRowIndex(f"row {row} outside matrix of {len(matrix)} rows")


def _load(seqs: list, width: int, where: list) -> tuple:
    """Read the non-halted cells of ``seqs`` into ints for a run.

    Returns ``(loaded, code, regs, rows, pcs, row_idx, flags)``: the
    indexes of those cells, and per index its code, its ports (MA..MD,
    then the ROW port, None past the matrix), its matrix rows, pc, row
    counter and flag. Raises NotAVector for a register or matrix row that
    is not a BitVector, WidthMismatch for a register of another width, and
    InvalidArgument for a pc or row counter that is not an int (the row
    counter nonnegative) or a flag that is not 0 or 1.
    """
    count = len(seqs)
    code, regs, rows = [None] * count, [None] * count, [None] * count
    pcs, row_idx, flags = [0] * count, [0] * count, [0] * count
    loaded = [i for i, seq in enumerate(seqs) if not seq.halted]
    for i in loaded:
        seq = seqs[i]
        pc, counter, flag = seq.pc, seq.row_idx, seq.flag
        if type(pc) is not int:  # not a bool either
            raise InvalidArgument(f"{where[i]}pc must be an int, got {_shown(pc)}")
        if type(counter) is not int or counter < 0:
            raise InvalidArgument(f"{where[i]}row counter must be a nonnegative int, "
                                  f"got {_shown(counter)}")
        if type(flag) is not int or flag not in (0, 1):
            raise InvalidArgument(f"{where[i]}flag must be 0 or 1, got {_shown(flag)}")
        values = []
        for reg in M_REGS:
            value = seq.regs[reg]
            if not isinstance(value, BitVector):
                raise NotAVector(f"{where[i]}register {reg.name} holds "
                                 f"{type(value).__name__}, not a BitVector")
            if value.n != width:
                raise WidthMismatch(
                    f"{where[i]}register {reg.name} width {value.n} != machine width {width}"
                )
            values.append(value.value)
        try:
            matrix = rows[i] = [row.value for row in seq.a_matrix]
        except AttributeError:  # a row assigned to a_matrix, past set_matrix's check
            k, row = next((k, row) for k, row in enumerate(seq.a_matrix)
                          if not isinstance(row, BitVector))
            raise NotAVector(f"{where[i]}matrix row {k} is "
                             f"{type(row).__name__}, not a BitVector") from None
        row_idx[i] = counter
        values.append(matrix[counter] if counter < len(matrix) else None)
        regs[i] = values
        code[i], pcs[i], flags[i] = seq._code, pc, flag
    return loaded, code, regs, rows, pcs, row_idx, flags


def _store(seqs, width, first, loaded, ended, ends, pcs, row_idx, flags, regs) -> None:
    """Write a run's state back to the cells it loaded.

    ``ended`` holds each cell's HALT cycle, None if it did not halt, and
    ``ends`` the cycle at which a cell that did not halt stopped; a cell
    spent the cycles from ``first`` to either. A register gets a new
    BitVector only when its value changed.
    """
    for j in loaded:
        seq = seqs[j]
        end = ended[j]
        seq.halted = end is not None
        seq.cycles += (ends[j] if end is None else end) - first
        seq.pc, seq.row_idx, seq.flag = pcs[j], row_idx[j], flags[j]
        for reg, value in zip(M_REGS, regs[j]):
            if value != seq.regs[reg].value:
                seq.regs[reg] = BitVector(width, value)


def _run(code, ports, matrix, pc, flag, row, t, last, width, path=None):
    """Run one cell's code from ``pc``, after cycle ``t``, to cycle ``last`` at most.

    One instruction per cycle. Stops after HALT, or after an instruction
    whose stop code is _STOP: its next pc holds an exchange, which is the
    caller's to settle, lies outside the program, or is a loop's head,
    which a free run hands to the loop's translation. Returns ``(pc,
    flag, row, t, stop)``: the state reached, the last cycle run and the
    last instruction's stop code, or _HALT when it halted. ``ports`` is
    updated in place, and ``path``, when given, gets ``(cycle, target)``
    for each jump taken. A faulting instruction raises with the cell's
    state as it was before it, and the cycle it faulted in as ``_cycle``.
    """
    mask = (1 << width) - 1
    stop = _GO
    try:
        for t in range(t + 1, last + 1):
            inst = code[pc]
            op = inst[0]
            # each branch leaves the next pc in pc and its stop code in stop
            if op == _LOGIC:
                _, bop, a, b, uop, dst, reads_row, stop = inst
                if reads_row and ports[_ROW] is None:
                    raise _row_error(row, matrix)
                v = ports[a]
                if bop == _XOR:
                    v ^= ports[b]
                elif bop == _AND:
                    v &= ports[b]
                elif bop == _OR:
                    v |= ports[b]
                if uop == _SLC:
                    k = v.bit_count()
                    v = ((1 << k) - 1) << (width - k)
                elif uop == _NOT:
                    v ^= mask
                ports[dst] = v
                pc += 1
            elif op == _JUMP:
                _, cond, target, taken, stop = inst
                if cond == _IF_NOT_FLAG:
                    go = not flag
                elif cond == _IF_ROW:
                    go = ports[_ROW] is not None
                elif cond == _IF_FLAG:
                    go = flag
                else:
                    go = True
                if not go:
                    pc += 1
                elif taken == _BAD:
                    raise PcOutOfRange(f"jump target {target} outside program")
                else:
                    pc, stop = target, taken
                    if path is not None:
                        path.append((t + 1, pc))
            elif op == _ORF:
                _, src, reads_row, stop = inst
                if reads_row and ports[_ROW] is None:
                    raise _row_error(row, matrix)
                flag = 1 if ports[src] else 0
                pc += 1
            elif op == _INCROW:
                _, stop = inst
                size = len(matrix)
                if row >= size:
                    raise InvalidRowIndex(f"INCROW past matrix of {size} rows")
                row += 1
                ports[_ROW] = matrix[row] if row < size else None
                pc += 1
            elif op == _SETROW:
                _, index, stop = inst
                size = len(matrix)
                if index > size:
                    raise InvalidRowIndex(f"SETROW {index} outside matrix of {size} rows")
                row = index
                ports[_ROW] = matrix[row] if row < size else None
                pc += 1
            elif op == _LOADM:
                _, dst, value, stop = inst
                ports[dst] = value
                pc += 1
            elif op == _HALT:
                return pc, flag, row, t, _HALT
            else:  # _BADWIDTH
                raise WidthMismatch(f"literal width {inst[1]} != machine width {width}")
            if stop:
                break
    except LampError as exc:  # for the free run, which looks for the first fault
        exc._cycle = t
        raise
    return pc, flag, row, t, stop


_TRANSLATIONS: dict = {}  # (width, head, end, the loop's code) -> its function, oldest first
_MAX_TRANSLATIONS = 256
_PORTS = ("ma", "mb", "mc", "md", "rp")  # the locals of a translation, in port order
_BINARY = {_AND: "{} & {}", _OR: "{} | {}", _XOR: "{} ^ {}", BinOp.PASS.value: "{}"}


def _translation(code, head: int, end: int, width: int, traced=False):
    """The function that runs the loop ``code[head:end + 1]``.

    Called as ``loop(ports, matrix, pc, flag, row, t, last)`` at a pc of
    the loop, it runs whole basic blocks, each as straight-line int code
    that adds its cycles to ``t``, and updates ``ports`` in place. It
    returns ``(pc, flag, row, t)`` at a pc outside the loop, at an
    exchange or a HALT, or at a block that would run past cycle ``last``,
    and None at a fault, which ``_run`` must then raise at its cycle. A
    ``traced`` one takes ``path`` last, to which it adds ``(cycle,
    target)`` for each jump taken, as ``_run`` does. The source holds
    only the small ints ``_decode`` wrote; the mask and the LOADM values
    are bound by name.
    """
    key = (width, head, end, tuple(code[head:end + 1]), traced)
    loop = _TRANSLATIONS.get(key)
    if loop is not None:
        return loop
    leaders = {head} | {p for pc in range(head, end + 1) if code[pc][0] == _JUMP
                        for p in (pc + 1, code[pc][2]) if head <= p <= end}
    names = {"MASK": (1 << width) - 1}
    lines = [f"def loop(ports, matrix, pc, flag, row, t, last{', path' * traced}):",
             " ma, mb, mc, md, rp = ports", " size = len(matrix)", " while True:"]
    for leader in sorted(leaders):
        body, pc, checked = [], leader, False  # checked: rp, since the row last moved
        while pc <= end and (pc == leader or pc not in leaders):
            inst = code[pc]
            op = inst[0]
            if op in (_SEND, _RECV, _HALT):
                break  # for the free run to settle
            pc += 1
            if op in (_LOGIC, _ORF) and inst[-2] and not checked:  # reads the ROW port
                body.append("if rp is None: return")
                checked = True
            if op == _LOGIC:
                _, bop, a, b, uop, dst, _, _ = inst
                value = _BINARY[bop].format(_PORTS[a], _PORTS[b])
                if uop == _SLC:
                    body.append(f"k = ({value}).bit_count()")
                    value = f"((1 << k) - 1) << ({width} - k)"
                elif uop == _NOT:
                    value = f"({value}) ^ MASK"
                body.append(f"{_PORTS[dst]} = {value}")
            elif op == _ORF:
                body.append(f"flag = 1 if {_PORTS[inst[1]]} else 0")
            elif op == _INCROW or op == _SETROW:
                to = "row + 1" if op == _INCROW else inst[1]
                body += [f"if {to} > size: return", f"row = {to}",
                         "rp = matrix[row] if row < size else None"]
                checked = False
            elif op == _LOADM:
                names[f"L{pc}"] = inst[2]
                body.append(f"{_PORTS[inst[1]]} = L{pc}")
            elif op == _BADWIDTH:
                body.append("return")
            else:  # a jump, which ends the block
                _, cond, target, taken, _ = inst
                go = ("True", "flag", "not flag", "rp is not None")[cond]
                jump = "return" if taken == _BAD else f"pc = {target}"
                if traced and taken != _BAD:  # the target runs in the block's last cycle + 1
                    jump += f"; path.append((t + {pc - leader + 1}, {target}))"
                body += [f"pc = {pc}", f"if {go}: {jump}"]
                break
        if pc > leader:
            lines += [f"  if pc == {leader}:", f"   if t + {pc - leader} > last: break",
                      *(f"   {line}" for line in body), f"   t += {pc - leader}",
                      "   continue" if code[pc - 1][0] == _JUMP else f"   pc = {pc}; continue"]
    lines += ["  break", " ports[:] = ma, mb, mc, md, rp", " return pc, flag, row, t"]
    exec(compile("\n".join(lines), f"<loop {head}..{end}>", "exec"), names)
    if len(_TRANSLATIONS) >= _MAX_TRANSLATIONS:
        try:  # drop the oldest, as re's cache does
            del _TRANSLATIONS[next(iter(_TRANSLATIONS))]
        except (StopIteration, RuntimeError, KeyError):  # another thread changed it
            pass
    loop = _TRANSLATIONS[key] = names["loop"]
    return loop


def _free_run(grid, budget: int) -> None:
    """Run ``grid``'s cells, each on its own to its next exchange, for ``budget`` cycles at most.

    Each active cell runs alone until it reaches a SEND or RECV, halts,
    or runs the budget's last cycle: a loop through its translation, from
    the loop's head, and the rest on ``_run``. A SEND at a cell that waits
    from cycle t and the facing RECV at its partner that waits from cycle
    u complete together in cycle max(t, u) + 1, and both run on; the
    cycles a cell waits are its stalls. A traced run marks each cell's
    start, jumps taken and exchanges, and ``_render`` writes the trace
    from the marks. When every cell left waits, the state at the last
    cycle in which a cell moved is written back and DeadlockDetected
    raised. A fault stops its cell, and the others run to its cycle T
    only, so that T ends as the first cycle in which a cell faults.
    Nothing is written then: the run is made again from the same state
    to T - 1, and ``_step`` runs cycle T, which raises the fault that a
    cycle-by-cycle run meets first.
    """
    seqs, width, first = grid._targets(None), grid.width, grid.global_cycle
    last = first + max(budget, 0)
    loaded, code, regs, rows, pcs, row_idx, flags = _load(seqs, width, _WHERE)
    ended = [None] * len(seqs)
    waiting = {}  # cell -> (the cycle after which it waits, its exchange)
    latest = first  # the last cycle in which a cell ran, halted or began to wait
    marks = {i: [(first + 1, pcs[i])] for i in loaded} if grid.tracing else None
    fault = None  # the first cycle in which a cell faults
    todo = [(i, first) for i in loaded]  # cells to run on, each after a cycle
    while todo:
        i, t = todo.pop()
        cell_code, loops = code[i], seqs[i]._loops
        path = marks[i] if marks is not None else None
        traced = () if path is None else (path,)  # a traced translation's last argument
        translate = True
        while t < last:
            pc = pcs[i]
            if not 0 <= pc < len(cell_code):
                fault = last = t + 1  # no later cycle matters, and t < last
                break
            inst = cell_code[pc]
            op = inst[0]
            if op == _SEND or op == _RECV:
                partner = _PARTNER[i][inst[1]]
                u, facing = waiting.get(partner, (None, None))
                # a RECV faces one neighbour only, so it has at most one sender
                if facing is None or facing[0] == op or facing[1] != _FACING[inst[1]]:
                    waiting[i] = t, inst
                    latest = max(latest, t)
                    break
                del waiting[partner]
                if op == _SEND:
                    regs[partner][facing[2]] = regs[i][inst[2]]
                else:
                    regs[i][inst[2]] = regs[partner][facing[2]]
                done = max(t, u) + 1  # both waited before: within the budget, or past a fault
                if path is not None:  # each stalls from the cycle after it began to wait
                    path += (t + 1, ~pc), (done, pc)
                    marks[partner] += (u + 1, ~pcs[partner]), (done, pcs[partner])
                pcs[i] += 1
                pcs[partner] += 1
                t = done
                todo.append((partner, t))
                continue
            if translate and pc in loops:
                key = pc, bool(traced)
                loop = loops.get(key)
                if loop is None:  # first entered: keep its translation with the decode
                    loop = loops[key] = (_translation(cell_code, pc, loops[pc], width, True)
                                         if traced else _translation(cell_code, pc, loops[pc], width))
                state = loop(regs[i], rows[i], pc, flags[i], row_idx[i], t, last, *traced)
                if state is None:
                    translate = False  # a fault, which _run meets at its cycle
                elif state[3] > t:
                    pcs[i], flags[i], row_idx[i], t = state
                    continue
                # its first block would pass the budget, or it begins at a HALT
            try:
                pcs[i], flags[i], row_idx[i], t, stop = _run(
                    cell_code, regs[i], rows[i], pc, flags[i], row_idx[i], t, last, width, path)
            except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
                fault = last = exc._cycle
                break
            if stop == _HALT:
                ended[i] = t
                latest = max(latest, t)
                break
        else:  # stopped by the budget
            latest = last
    if fault is not None:  # write nothing: run again to the cycle before, then run that one
        _free_run(grid, fault - 1 - first)
        return _step(seqs, width, grid)  # raises the fault
    if marks is not None:
        for i, (t, _) in waiting.items():
            marks[i].append((t + 1, ~pcs[i]))
        _render(grid.trace, seqs, marks, [latest if end is None else end for end in ended], first)
    grid.global_cycle = latest
    _store(seqs, width, first, loaded, ended, [latest] * len(seqs), pcs, row_idx, flags, regs)
    if waiting and latest < last:  # every cell left waits, and no exchange can complete
        cells = [_CELLS[i] for i in sorted(waiting)]
        raise DeadlockDetected("all active cells stalled on unmatched exchanges: "
                               + ", ".join(f"({r},{c})" for r, c in cells), cells=cells)


def _render(trace: list, seqs: list, marks: dict, ends: list, first: int) -> None:
    """Append a free run's trace lines to ``trace``, by cycle and then by cell.

    From a mark ``(cycle, pc)`` in ``marks[i]`` cell i runs pc, pc + 1,
    ... one a cycle, and from ``(cycle, ~pc)`` it stalls at pc, each until
    the next mark, or past the last until cycle ``ends[i]``.
    """
    nows = [str(cycle) for cycle in range(first + 1, max(ends) + 1)]
    columns = []
    for i, cell_marks in marks.items():
        texts = [f"\t{_POSITION[i]}\t{pc}\t{text}"
                 for pc, text in enumerate(seqs[i]._trace_text({}))]
        size = len(texts)
        texts += [text + "\t(stall)" for text in texts]  # a stall at pc is text size + pc
        path = []  # the index of each cycle's text
        for (start, pc), (stop, _) in zip(cell_marks, cell_marks[1:] + [(ends[i] + 1, 0)]):
            path += [size + ~pc] * (stop - start) if pc < 0 else range(pc, pc + stop - start)
        columns.append(list(map(str.__add__, nows, map(texts.__getitem__, path))))
    trace += filter(None, chain.from_iterable(zip_longest(*columns)))


def _step(seqs: list, width: int, grid=None) -> None:
    """Run one cycle: check every pc, match the exchanges, then trace and run each cell.

    ``seqs`` are a grid's sixteen cells, in scan order, or with ``grid``
    None one standalone sequencer, whose exchanges stall. This runs
    ``Sequencer.step`` and the cycle in which a grid run faults. At a
    fault the cells before the faulting one have spent the cycle, the
    later ones have not, and the cycle does not end.
    """
    first = grid.global_cycle if grid is not None else 0
    where = _WHERE if grid is not None else [""]
    trace = grid.trace if grid is not None and grid.tracing else None
    loaded, code, regs, rows, pcs, row_idx, flags = _load(seqs, width, where)
    waiting = {}
    for i in loaded:
        pc, cell_code = pcs[i], code[i]
        if not 0 <= pc < len(cell_code):
            raise PcOutOfRange(f"{where[i]}pc {_shown(pc)} outside program of {len(cell_code)}")
        if cell_code[pc][0] == _SEND or cell_code[pc][0] == _RECV:
            waiting[i] = cell_code[pc]
    matched = {}  # the cells whose exchange completes, each with the value it takes
    for i, (op, d, reg, _stop) in waiting.items() if grid is not None else ():
        partner = _PARTNER[i][d]
        other = waiting.get(partner)
        # a RECV faces one neighbour only, so it has at most one sender
        if op == _SEND and other is not None and other[0] == _RECV and other[1] == _FACING[d]:
            matched[i] = None
            matched[partner] = regs[i][reg]  # SEND writes no register this cycle
    cycle = first + 1
    ended, ends = [None] * len(seqs), [cycle] * len(seqs)
    try:
        for i in loaded:
            pc = pcs[i]
            if trace is not None:
                line = f"{cycle}\t{_POSITION[i]}\t{pc}\t{seqs[i]._trace_text({})[pc]}"
                trace.append(line + "\t(stall)" if i in waiting and i not in matched else line)
            if i in waiting:
                if i in matched:
                    if waiting[i][0] == _RECV:
                        regs[i][waiting[i][2]] = matched[i]
                    pcs[i] = pc + 1
                continue
            pcs[i], flags[i], row_idx[i], _, stop = _run(
                code[i], regs[i], rows[i], pc, flags[i], row_idx[i], first, cycle, width)
            if stop == _HALT:
                ended[i] = cycle
    except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
        exc.args = (f"{where[i]}{exc.args[0]}",)
        ends = [cycle if j <= i else first for j in range(len(seqs))]
        raise
    finally:
        _store(seqs, width, first, loaded, ended, ends, pcs, row_idx, flags, regs)
    if grid is not None:
        grid.global_cycle = cycle


# --------------------------------------------------------------------------
# Machine state


class Sequencer:
    """State of one grid cell: registers, matrix, command memory.

    Registers are BitVectors here, at the API edge: set them before a
    step or a run and read them after. Assigning ``program`` decodes it
    once into the int code that runs execute. The width is 1..MAX_WIDTH,
    the widths a LAMP1 binary can state.
    """

    def __init__(self, width: int, program=None, a_matrix=None):
        if type(width) is not int or not 1 <= width <= MAX_WIDTH:
            raise InvalidArgument(
                f"machine width must be an int in 1..{MAX_WIDTH}, got {_shown(width)}")
        self.width = width
        self.regs = dict.fromkeys(M_REGS, BitVector.zeros(width))  # BitVectors are immutable
        if a_matrix:
            self.set_matrix(a_matrix)
        else:
            self.a_matrix = []
        if program:
            self.program = program
        else:  # no code to decode, and a loops dict of its own for what a load puts there
            self._program, self._code, self._loops, self._texts = [], [], {}, None
        self.row_idx = 0
        self.flag = 0
        self.pc = 0
        self.cycles = 0
        # a cell without code has no cycle to execute, so it starts halted
        self.halted = not self.program

    @property
    def program(self) -> list[Instruction]:
        return self._program

    @program.setter
    def program(self, instructions) -> None:
        self._program = list(instructions)
        self._code, self._loops = _decode(self._program, self.width)
        self._texts = None

    def _trace_text(self, texts: dict) -> list[str]:
        """Trace texts, rendered once per loaded program and per object in ``texts``."""
        if self._texts is None:
            self._texts = [texts.get(id(inst)) or texts.setdefault(id(inst), inst.text())
                           for inst in self._program]
        return self._texts

    @property
    def row_count(self) -> int:
        return len(self.a_matrix)

    def set_matrix(self, rows) -> None:
        rows = list(rows)
        for row in rows:
            if not isinstance(row, BitVector) or row.n != self.width:
                _check_vector(row)
                raise WidthMismatch(f"matrix row width {row.n} != {self.width}")
        self.a_matrix = rows

    def step(self) -> "Sequencer":
        """Execute one instruction in one cycle.

        A SEND or RECV stepped here (outside a grid) has no partner and
        stalls: the cycle is spent, the pc does not move.
        """
        if self.halted:
            raise SequencerHalted("step on a halted sequencer")
        _step([self], self.width)
        return self


class RunOutcome(enum.Enum):
    ALL_HALTED = "all-halted"
    CYCLE_BUDGET_EXHAUSTED = "cycle-budget-exhausted"
    DEADLOCK = "deadlock"


@dataclass
class RunResult:
    outcome: RunOutcome
    cycles: int
    deadlocked: tuple = ()


class Grid:
    """4x4 torus of sequencers with deterministic lockstep execution."""

    def __init__(self, width: int, tracing: bool = False):
        self.width = width
        self.cells = [
            [Sequencer(width) for _ in range(GRID_SIZE)] for _ in range(GRID_SIZE)
        ]
        self.global_cycle = 0
        self.tracing = tracing
        self.trace: list[str] = []

    def cell(self, r: int, c: int) -> Sequencer:
        r, c = _place((r, c))
        return self.cells[r][c]

    def load_program(self, program: Program) -> None:
        if not isinstance(program, Program):
            raise NotAnInstruction(f"expected a Program, got {type(program).__name__}")
        if program.width is not None and program.width != self.width:
            raise WidthMismatch(
                f"program width {program.width} != grid width {self.width}"
            )
        # Cells with equal instruction lists share one decode, its loops and their
        # translations; list == passes the same object without calling its __eq__.
        decoded, texts = [], {}  # (instructions, (code, loops, bad)) of each distinct list
        for (r, c), seq in zip(_CELLS, self._targets(None)):
            instructions = seq._program = list(program.cells[r][c])
            seq._texts = None
            if not instructions:  # nothing to decode
                done = [], {}, ()
            else:
                for known, done in decoded:
                    if known == instructions:
                        break
                else:
                    code, loops = _decode(instructions, self.width)
                    done = code, loops, [inst[1] for inst in code if inst[0] == _BADWIDTH]
                    decoded.append((instructions, done))
            seq._code, seq._loops, bad = done
            if bad:
                raise WidthMismatch(f"cell ({r},{c}): literal width {bad[0]} "
                                    f"!= grid width {self.width}")
            if self.tracing:
                seq._trace_text(texts)
            # a loaded program starts from a fresh control state
            seq.pc = seq.row_idx = seq.flag = 0
            seq.halted = not instructions

    def _targets(self, at) -> list[Sequencer]:
        """The cell at ``at``, or every cell when ``at`` is None."""
        if not at:
            return [seq for row in self.cells for seq in row]
        r, c = _place(at)
        return [self.cells[r][c]]

    def set_table(self, rows, at=None) -> None:
        """Load associator rows into one cell, or into all when at=None."""
        first, *rest = self._targets(at)
        first.set_matrix(rows)  # reads and checks the rows once
        for seq in rest:
            seq.a_matrix = first.a_matrix.copy()

    def set_register(self, reg: Reg, value: BitVector, at=None) -> None:
        if reg not in M_REGS:
            shown = reg.name if isinstance(reg, Reg) else repr(reg)
            raise LampError(f"cannot set {shown}: only MA, MB, MC and MD hold values")
        _check_vector(value)
        if value.n != self.width:
            raise WidthMismatch(f"value width {value.n} != grid width {self.width}")
        for seq in self._targets(at):
            seq.regs[reg] = value

    @property
    def all_halted(self) -> bool:
        return all(seq.halted for row in self.cells for seq in row)

    def step(self) -> "Grid":
        """Advance every non-halted cell by one cycle, row-major order.

        Exchanges rendezvous first: a SEND at some cell matched by the
        facing RECV at its target completes atomically this cycle, with
        the receiver taking the sender's start-of-cycle register value.
        Unmatched exchange partners stall for the cycle.
        """
        _free_run(self, 1)
        return self

    def run(self, max_cycles: int) -> RunResult:
        """Step until everything halts, the budget runs out, or deadlock."""
        if type(max_cycles) is not int or max_cycles < 1:  # a bool is no budget either
            must = "positive" if type(max_cycles) is int else "an int"
            raise InvalidArgument(f"max_cycles must be {must}, got {_shown(max_cycles)}")
        try:
            _free_run(self, max_cycles - self.global_cycle)
        except DeadlockDetected as exc:
            return RunResult(RunOutcome.DEADLOCK, self.global_cycle, exc.cells)
        if self.all_halted:
            return RunResult(RunOutcome.ALL_HALTED, self.global_cycle)
        return RunResult(RunOutcome.CYCLE_BUDGET_EXHAUSTED, self.global_cycle)


# --------------------------------------------------------------------------
# Canonical query program


def builtin_query_program(rows: int) -> list[Instruction]:
    """Emit the canonical best-row search over ``rows`` >= 1 matrix rows.

    One sweep of 11 instructions for every row count. It expects the
    query in MA, the associators as the cell's matrix and the row
    counter at 0, as ``Grid.load_program`` leaves it. Row 0's compacted
    quality SLC(MA XOR ROW) (popcount(m XOR a), acceptance criterion 4)
    and pattern are taken into MD and MC; a later row is retaken only
    when the paper's decision orf((MD AND MB) XOR MD), on its quality in
    MB, says it is strictly better, so ties keep the earlier row. MB is
    scratch. R rows, t of which beat every earlier one, take 7R + 3t - 2
    cycles.
    """
    if rows < 1:
        raise InvalidArgument(f"rows must be >= 1, got {rows}")
    take, next_row, fold = 0, 2, 5  # jump targets
    return [
        # take: MD and MC := this row's quality and pattern
        Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MD),
        Logic(BinOp.PASS, Reg.ROW, Reg.ROW, UnOp.NOPU, Reg.MC),
        IncRow(),
        JumpIfRowLt(fold),
        Halt(),
        # fold: flag := this row is strictly better than MD
        Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MB),
        Logic(BinOp.AND, Reg.MD, Reg.MB, UnOp.NOPU, Reg.MB),
        Logic(BinOp.XOR, Reg.MB, Reg.MD, UnOp.NOPU, Reg.MB),
        Orf(Reg.MB),
        JumpIfNotFlag(next_row),
        Jump(take),
    ]
