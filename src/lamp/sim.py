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

A program is predecoded when it is loaded. Cells meet only at SEND and
RECV, so ``Grid.run`` and ``Grid.step`` run each cell alone from exchange
to exchange and settle the exchanges from the cycles at which the cells
arrived (``_free_run``). Each stretch between exchanges is one call of
the cell's translation, its whole code as one Python function of
straight-line int blocks; ``_run`` executes one instruction a cycle, for
the cycles no whole block fits, ``Sequencer.step`` and faults, and is the
oracle of the translations. Matrix rows are ints inside a cell, and
``Sequencer.a_matrix`` shows them as ``BitVector``s; a run reads the
``BitVector`` registers into ints and writes back the ones that changed.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, zip_longest
from operator import and_, or_, xor

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


def _row_values(rows, width: int) -> list:
    """The ints of ``rows``, each checked to be a BitVector of ``width``; never changed
    in place, so cells may share it."""
    rows = list(rows)
    values = [row.value for row in rows if isinstance(row, BitVector) and row.n == width]
    if len(values) < len(rows):
        row = next(row for row in rows if not isinstance(row, BitVector) or row.n != width)
        _check_vector(row)
        raise WidthMismatch(f"matrix row width {row.n} != {width}")
    return values


# --------------------------------------------------------------------------
# Predecoded code
#
# One tuple of plain ints per instruction, run by a translation (_translation)
# from exchange to exchange, or by _run one a cycle. There are no stop codes:
# SEND, RECV and HALT end every segment.

# the ops from _SEND on end a segment
_LOGIC, _ORF, _JUMP, _SETROW, _INCROW, _LOADM, _BADWIDTH, _SEND, _RECV, _HALT = range(10)
_ALWAYS = 0  # the condition of JMP; a condition is its class's index in JUMPS
_CONDITION = {cls: cond for cond, cls in enumerate(JUMPS)}
_APPLY = (and_, or_, xor, lambda a, b: a)  # the binary ops, by BinOp value
_NOT, _SLC = UnOp.NOT.value, UnOp.SLC.value
_ROW = Reg.ROW.value  # the row port is register slot 4 of a running cell

_CELLS = [(r, c) for r in range(GRID_SIZE) for c in range(GRID_SIZE)]  # scan order
_WHERE = [f"cell ({r},{c}): " for r, c in _CELLS]  # error prefix
_POSITION = [f"{r},{c}" for r, c in _CELLS]  # trace field
_PARTNER = [  # _PARTNER[cell][direction] is the neighbouring cell's index
    [GRID_SIZE * rr + cc for rr, cc in (neighbor(r, c, d) for d in Dir)] for r, c in _CELLS
]
_FACING = [opposite(d).value for d in Dir]  # the direction a partner must name


def _decode(program: list, width: int) -> tuple:
    """The int code of one cell's instructions, for vectors of ``width``."""
    size = len(program)
    code = []
    for inst in program:
        cls = type(inst)
        if cls is Logic:
            a, b = inst.src_a._value_, inst.src_b._value_
            code.append((_LOGIC, inst.binop._value_, a, b, inst.unop._value_,
                         inst.dst._value_, _ROW in (a, b)))
        elif cls is Orf:
            src = inst.src._value_
            code.append((_ORF, src, src == _ROW))
        elif cls in _CONDITION:  # the last field: the target lies outside the program
            code.append((_JUMP, _CONDITION[cls], inst.target, not 0 <= inst.target < size))
        elif cls is SetRow:
            code.append((_SETROW, inst.index))
        elif cls is IncRow:
            code.append((_INCROW,))
        elif cls is LoadImm:
            lit = inst.literal
            code.append((_LOADM, inst.reg._value_, lit.value) if lit.n == width
                        else (_BADWIDTH, lit.n))
        elif cls is Send or cls is Recv:  # with the keys (op, direction) of it and of its partner
            op, other = (_SEND, _RECV) if cls is Send else (_RECV, _SEND)
            d = inst.direction._value_
            code.append((op, d, inst.reg._value_, op << 3 | d, other << 3 | _FACING[d]))
        elif cls is Halt:
            code.append((_HALT,))
        else:
            raise NotAnInstruction(f"cannot execute {inst!r}")
    return tuple(code)


# A running cell's state is one list: MA..MD, the ROW port (None past the matrix), pc,
# flag, row counter, the matrix's size, and the cycle after which it waits at an exchange.
_PC, _SIZE, _WAIT = 5, 8, 9


def _load(seqs: list, width: int, where: list, traced=None) -> tuple:
    """Read the non-halted cells of ``seqs`` for a run: ``(loaded, states, cells)``.

    ``loaded`` are their indexes, and per index ``states`` holds a new state
    and ``cells`` (code, state, matrix rows, translation traced as ``traced``
    says or, with ``traced`` None, one that runs no block, partner by
    direction). Raises NotAVector for a register that is not a BitVector,
    WidthMismatch for one of another width, and InvalidArgument for a pc or
    row counter that is not an int (the row counter nonnegative) or a flag
    that is not 0 or 1.
    """
    states, cells = [None] * len(seqs), [None] * len(seqs)
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
        state = states[i] = []
        for reg in M_REGS:
            value = seq.regs[reg]
            if not isinstance(value, BitVector):
                raise NotAVector(f"{where[i]}register {reg.name} holds "
                                 f"{type(value).__name__}, not a BitVector")
            if value.n != width:
                raise WidthMismatch(
                    f"{where[i]}register {reg.name} width {value.n} != machine width {width}")
            state.append(value.value)
        matrix, made = seq._rows, seq._segments
        state += [matrix[counter] if counter < len(matrix) else None, pc, flag, counter,
                  len(matrix), None]
        segment = _no_block if traced is None else made.get(traced) or made.setdefault(
            traced, _translation(seq._code, seq.width, traced))
        cells[i] = seq._code, state, matrix, segment, _PARTNER[i]
    return loaded, states, cells


def _no_block(state, matrix, t, last, path):
    """A translation in which no whole block fits: it leaves every cycle to ``_run``."""
    return t


def _store(seqs, width, first, loaded, ended, ends, states) -> None:
    """Write a run's state back to the cells it loaded.

    ``ended`` holds each cell's HALT cycle, None if it did not halt, and
    ``ends`` the cycle at which a cell that did not halt stopped; a cell
    spent the cycles from ``first`` to either. A register gets a new
    BitVector only when its value changed.
    """
    for j in loaded:
        seq, state, end = seqs[j], states[j], ended[j]
        seq.halted = end is not None
        seq.cycles += (ends[j] if end is None else end) - first
        seq.pc, seq.flag, seq.row_idx = state[_PC:_SIZE]
        regs = seq.regs
        for reg, value in zip(M_REGS, state):
            if value != regs[reg].value:
                regs[reg] = BitVector(width, value)


def _run(code, state, matrix, t, last, width, path=None):
    """Run one cell's code, from the ``state`` ``_load`` made, after cycle ``t``, to ``last``.

    One instruction a cycle, up to a SEND, RECV or HALT, which it leaves to
    the caller; the pc must stay inside the program. Updates ``state`` and
    returns the last cycle run; ``path``, when given, gets ``(cycle,
    target)`` for each jump taken. A fault raises with ``state`` as it was
    before the faulting instruction, and that cycle as ``_cycle``.
    """
    mask = (1 << width) - 1
    pc, flag, row = state[_PC:_SIZE]
    try:
        while t < last:
            inst = code[pc]
            op = inst[0]
            if op == _LOGIC:
                _, bop, a, b, uop, dst, reads_row = inst
                if reads_row and state[_ROW] is None:
                    raise InvalidRowIndex(f"row {row} outside matrix of {len(matrix)} rows")
                v = _APPLY[bop](state[a], state[b])
                if uop == _SLC:
                    k = v.bit_count()
                    v = ((1 << k) - 1) << (width - k)
                elif uop == _NOT:
                    v ^= mask
                state[dst] = v
                pc += 1
            elif op == _JUMP:
                _, cond, target, bad = inst
                if not (True, flag, not flag, state[_ROW] is not None)[cond]:  # by condition
                    pc += 1
                elif bad:
                    raise PcOutOfRange(f"jump target {target} outside program")
                else:
                    pc = target
                    if path is not None:
                        path.append((t + 2, pc))
            elif op == _ORF:
                _, src, reads_row = inst
                if reads_row and state[_ROW] is None:
                    raise InvalidRowIndex(f"row {row} outside matrix of {len(matrix)} rows")
                flag = 1 if state[src] else 0
                pc += 1
            elif op == _INCROW or op == _SETROW:
                index, size = row + 1 if op == _INCROW else inst[1], len(matrix)
                if index > size:
                    raise InvalidRowIndex(f"INCROW past matrix of {size} rows" if op == _INCROW
                                          else f"SETROW {index} outside matrix of {size} rows")
                row = index
                state[_ROW] = matrix[row] if row < size else None
                pc += 1
            elif op == _LOADM:
                state[inst[1]] = inst[2]
                pc += 1
            elif op == _BADWIDTH:
                raise WidthMismatch(f"literal width {inst[1]} != machine width {width}")
            else:  # an exchange or HALT
                break
            t += 1
    except LampError as exc:  # for the free run, which looks for the first fault
        exc._cycle = t + 1
        raise
    finally:
        state[_PC:_SIZE] = pc, flag, row
    return t


_TRANSLATIONS: dict = {}  # (width, code, traced) -> its function, oldest first
_MAX_TRANSLATIONS = 256
_PORTS = ("ma", "mb", "mc", "md", "rp")  # the locals of a translation, in port order
_BINARY = ("{} & {}", "{} | {}", "{} ^ {}", "{}")  # by BinOp value
_GO = ("True", "flag", "not flag", "rp is not None")  # by jump condition


def _translation(code: tuple, width: int, traced: bool):
    """The function that runs a cell's ``code`` from exchange to exchange.

    ``segment(state, matrix, t, last, path)`` takes what ``_run`` takes and
    runs whole basic blocks, each straight-line int code that adds its
    cycles at once; a block begins at pc 0, after an exchange, or at a
    jump's target or the pc after it. At an exchange, a HALT, a pc past the
    program, a block that would pass cycle ``last`` or a pc inside a block
    it writes ``state`` and returns the last cycle run; at a fault it
    returns None, ``state`` unchanged, for ``_run`` to raise the fault at
    its cycle. A ``traced`` one notes jumps in ``path`` as ``_run`` does.
    Blocks are tested in one chain, those in loops first, and a block goes
    on down it or back to its top. The mask and the LOADM values are bound
    by name, so the source holds only small ints.
    """
    key = width, code, traced
    segment = _TRANSLATIONS.get(key)
    if segment is not None:
        return segment
    size = len(code)
    leaders = {0}
    for pc, inst in enumerate(code):
        if inst[0] == _JUMP:
            leaders.update((pc + 1,) if inst[3] else (pc + 1, inst[2]))
        elif inst[0] == _SEND or inst[0] == _RECV:
            leaders.add(pc + 1)
    looped = {pc for end, inst in enumerate(code) if inst[0] == _JUMP and 0 <= inst[2] <= end
              for pc in range(inst[2], end + 1)}
    # the blocks, tested those in loops first and each part in pc order
    order = sorted((pc for pc in leaders if pc < size and code[pc][0] < _SEND),
                   key=lambda pc: (pc not in looped, pc))
    rank = {pc: k for k, pc in enumerate(order)}
    names = {"MASK": (1 << width) - 1}
    lines = ["def segment(state, matrix, t, last, path):",
             " ma, mb, mc, md, rp, pc, flag, row, size, _ = state", " while True:"]

    def onward(pc):  # after the block at leader: on down the chain, back to its top, or out
        return "; break" if pc not in rank else "" if rank[pc] > rank[leader] else "; continue"

    for leader in order:
        body, pc, checked = [], leader, False  # checked: rp, since the row last moved
        while pc == leader or pc < size and pc not in leaders and code[pc][0] < _SEND:
            inst = code[pc]
            op = inst[0]
            pc += 1
            if op in (_LOGIC, _ORF) and inst[-1] and not checked:  # reads the ROW port
                body.append("if rp is None: return")
                checked = True
            if op == _LOGIC:
                _, bop, a, b, uop, dst, _ = inst
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
            else:
                break  # a jump, which ends the block
        body.append(f"t += {pc - leader}")
        if code[pc - 1][0] == _JUMP:  # the jump is the block's last cycle
            _, cond, target, bad = code[pc - 1]
            taken = "return" if bad else f"pc = {target}"
            if traced and not bad:  # the target runs in the cycle after
                taken += f"; path.append((t + 1, {target}))"
            if not bad:
                taken += onward(target)
            body += [f"if {_GO[cond]}: {taken}", f"else: pc = {pc}{onward(pc)}"] \
                if cond != _ALWAYS else [taken]
        else:
            body.append(f"pc = {pc}{onward(pc)}")
        lines += [f"  if pc == {leader}:", f"   if t + {pc - leader} > last: break",
                  *(f"   {line}" for line in body)]
    lines += ["  break", " " + "; ".join(  # faster than one slice: it builds no tuple
        f"state[{k}] = {name}" for k, name in enumerate(_PORTS + ("pc", "flag", "row"))),
              " return t"]
    exec(compile("\n".join(lines), f"<cell code of {size}>", "exec"), names)
    if len(_TRANSLATIONS) >= _MAX_TRANSLATIONS:
        try:  # drop the oldest, as re's cache does
            del _TRANSLATIONS[next(iter(_TRANSLATIONS))]
        except (StopIteration, RuntimeError, KeyError):  # another thread changed it
            pass
    segment = _TRANSLATIONS[key] = names["segment"]
    return segment


def _free_run(grid, budget: int) -> None:
    """Run ``grid``'s cells, each on its own to its next exchange, for ``budget`` cycles at most.

    A cell runs each stretch between exchanges in one call of its translation,
    and on ``_run`` the cycles no whole block fits. A SEND at a cell that
    waits from cycle t and the facing RECV at its partner, waiting from u,
    complete in cycle max(t, u) + 1; the cycles a cell waits are stalls. A
    traced run marks starts, jumps and exchanges for ``_render``. When every
    cell left waits, the state is written back and DeadlockDetected raised.
    A fault at cycle T stops all cells at T; nothing is written, the run is
    made again to T - 1, and ``_step`` runs cycle T, raising the fault that
    a cycle-by-cycle run meets first.
    """
    seqs, width, first = grid._targets(None), grid.width, grid.global_cycle
    last = first + max(budget, 0)
    traced = grid.tracing
    # a one-cycle run, as Grid.step makes, runs on _run and translates nothing
    loaded, states, cells = _load(seqs, width, _WHERE, traced if budget > 1 else None)
    fault = None  # the first cycle in which a cell faults
    if last > first and any(not 0 <= cells[i][1][_PC] < len(cells[i][0]) for i in loaded):
        fault = first + 1  # a pc outside its program faults in the first cycle
    ended = [None] * len(seqs)
    waits = [None] * len(seqs)  # the exchange a cell waits at, with the cycle in its state
    latest = first  # the last cycle in which a cell ran, halted or began to wait
    marks = {i: [(first + 1, states[i][_PC])] for i in loaded} if traced else None
    path = None
    todo = [] if fault else [(i, first) for i in loaded]  # cells to run on, each after a cycle
    while todo:
        i, t = todo.pop()
        cell_code, state, matrix, segment, partners = cells[i]
        if traced:
            path = marks[i]
        while t < last:
            pc = state[_PC]
            try:
                inst = cell_code[pc]
            except IndexError:  # past the end: jumps outside fault as they are taken
                fault = last = t + 1  # no later cycle matters, and t < last
                break
            op = inst[0]
            if op < _SEND:
                after = segment(state, matrix, t, last, path)
                if after is None or after == t:  # a fault, or no whole block fits from pc
                    try:  # one cycle on _run, or its replay up to the fault, which it raises
                        after = _run(cell_code, state, matrix, t,
                                     last if after is None else t + 1, width, path)
                    except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
                        fault = last = exc._cycle
                        break
                t = after
            elif op == _HALT:
                t = ended[i] = t + 1
                if t > latest:
                    latest = t
                break
            else:
                partner = partners[inst[1]]
                facing = waits[partner]
                # a RECV faces one neighbour only, so it has at most one sender
                if facing is None or facing[3] != inst[4]:
                    waits[i] = inst
                    state[_WAIT] = t
                    if t > latest:
                        latest = t
                    break
                waits[partner] = None
                other = states[partner]
                u = other[_WAIT]
                if op == _SEND:
                    other[facing[2]] = state[inst[2]]
                else:
                    state[inst[2]] = other[facing[2]]
                done = (t if t > u else u) + 1  # both waited before: within the budget
                if traced:  # each stalls from the cycle after it began to wait
                    path += (t + 1, ~pc), (done, pc)
                    marks[partner] += (u + 1, ~other[_PC]), (done, other[_PC])
                state[_PC] = pc + 1
                other[_PC] += 1
                t = done
                todo.append((partner, t))
        else:  # stopped by the budget
            latest = last
    if fault is not None:  # write nothing: run again to the cycle before, then run that one
        _free_run(grid, fault - 1 - first)
        return _step(seqs, width, grid)  # raises the fault
    waiting = [i for i in loaded if waits[i] is not None]
    if traced:
        for i in waiting:
            marks[i].append((states[i][_WAIT] + 1, ~states[i][_PC]))
        _render(grid.trace, seqs, marks, [latest if end is None else end for end in ended], first)
    grid.global_cycle = latest
    _store(seqs, width, first, loaded, ended, [latest] * len(seqs), states)
    if waiting and latest < last:  # every cell left waits, and no exchange can complete
        cells = [_CELLS[i] for i in waiting]
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
    loaded, states, cells = _load(seqs, width, where)
    waiting = {}
    for i in loaded:
        cell_code, state = cells[i][:2]
        pc = state[_PC]
        if not 0 <= pc < len(cell_code):
            raise PcOutOfRange(f"{where[i]}pc {_shown(pc)} outside program of {len(cell_code)}")
        if cell_code[pc][0] == _SEND or cell_code[pc][0] == _RECV:
            waiting[i] = cell_code[pc]
    matched = {}  # the cells whose exchange completes, each with the value it takes
    for i, inst in waiting.items() if grid is not None else ():
        partner = _PARTNER[i][inst[1]]
        other = waiting.get(partner)
        # a RECV faces one neighbour only, so it has at most one sender
        if inst[0] == _SEND and other is not None and other[3] == inst[4]:
            matched[i] = None
            matched[partner] = states[i][inst[2]]  # SEND writes no register this cycle
    cycle = first + 1
    ended, ends = [None] * len(seqs), [cycle] * len(seqs)
    try:
        for i in loaded:
            state = states[i]
            pc = state[_PC]
            if trace is not None:
                line = f"{cycle}\t{_POSITION[i]}\t{pc}\t{seqs[i]._trace_text({})[pc]}"
                trace.append(line + "\t(stall)" if i in waiting and i not in matched else line)
            if i in waiting:
                if i in matched:
                    if waiting[i][0] == _RECV:
                        state[waiting[i][2]] = matched[i]
                    state[_PC] = pc + 1
            elif cells[i][0][pc][0] == _HALT:
                ended[i] = cycle
            else:
                _run(cells[i][0], state, cells[i][2], first, cycle, width)
    except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
        exc.args = (f"{where[i]}{exc.args[0]}",)
        ends = [cycle if j <= i else first for j in range(len(seqs))]
        raise
    finally:
        _store(seqs, width, first, loaded, ended, ends, states)
    if grid is not None:
        grid.global_cycle = cycle


# --------------------------------------------------------------------------
# Machine state


class _Rows(Sequence):
    """``seq.a_matrix``: a cell's matrix rows, held as ints and read as BitVectors; it is
    read-only, and a new list assigned to ``a_matrix`` is checked as ``set_table`` checks."""

    __slots__ = ("_seq",)

    def __init__(self, seq: "Sequencer"):
        self._seq = seq

    def __getitem__(self, k):
        rows, width = self._seq._rows, self._seq.width
        if isinstance(k, slice):
            return [BitVector(width, value) for value in rows[k]]
        return BitVector(width, rows[k])

    def __len__(self) -> int:
        return len(self._seq._rows)

    def __eq__(self, other) -> bool:  # and so unhashable, as a list is
        return list(self) == (list(other) if isinstance(other, _Rows) else other)

    def __repr__(self) -> str:
        return repr(list(self))


class Sequencer:
    """State of one grid cell: registers, matrix, command memory.

    Registers are BitVectors here, at the API edge: set them before a
    step or a run and read them after. ``a_matrix`` is a checked view of
    int rows. Assigning ``program`` decodes it once into the int code that
    runs execute. The width is 1..MAX_WIDTH, the widths a LAMP1 binary can
    state.
    """

    def __init__(self, width: int, program=None, a_matrix=None):
        if type(width) is not int or not 1 <= width <= MAX_WIDTH:
            raise InvalidArgument(
                f"machine width must be an int in 1..{MAX_WIDTH}, got {_shown(width)}")
        self.width = width
        self.regs = dict.fromkeys(M_REGS, BitVector.zeros(width))  # BitVectors are immutable
        self._rows = _row_values(a_matrix, width) if a_matrix else []
        if program:
            self.program = program
        else:  # no code to decode, and a dict of its own for the translations a load puts there
            self._program, self._code, self._segments, self._texts = [], (), {}, None
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
        instructions = list(instructions)
        code = _decode(instructions, self.width)  # a refused program changes nothing
        self._program, self._code, self._segments, self._texts = instructions, code, {}, None

    def _trace_text(self, texts: dict) -> list[str]:
        """Trace texts, rendered once per loaded program and per object in ``texts``."""
        if self._texts is None:
            self._texts = [texts.get(id(inst)) or texts.setdefault(id(inst), inst.text())
                           for inst in self._program]
        return self._texts

    def set_matrix(self, rows) -> None:
        self._rows = _row_values(rows, self.width)

    a_matrix = property(_Rows, set_matrix)

    @property
    def row_count(self) -> int:
        return len(self._rows)

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
        """Load every cell's instructions; a refused program changes no cell."""
        if not isinstance(program, Program):
            raise NotAnInstruction(f"expected a Program, got {type(program).__name__}")
        if program.width is not None and program.width != self.width:
            raise WidthMismatch(
                f"program width {program.width} != grid width {self.width}"
            )
        # Every cell is checked before any changes. Cells with equal lists share one decode
        # and its translations; list == passes the same object without calling its __eq__.
        decoded, cells = [], []  # (instructions, (code, translations)) of each distinct list
        for where, (r, c) in zip(_WHERE, _CELLS):
            instructions = list(program.cells[r][c])
            done = next((done for known, done in decoded if known == instructions),
                        None) if instructions else ((), {})  # nothing to decode
            if done is None:
                try:
                    done = _decode(instructions, self.width), {}
                except NotAnInstruction as exc:
                    raise NotAnInstruction(where + str(exc)) from None
                bad = next((inst[1] for inst in done[0] if inst[0] == _BADWIDTH), None)
                if bad is not None:
                    raise WidthMismatch(f"{where}literal width {bad} != grid width {self.width}")
                decoded.append((instructions, done))
            cells.append((instructions, done))
        texts = {}
        for seq, (instructions, (code, segments)) in zip(self._targets(None), cells):
            seq._program, seq._code, seq._segments, seq._texts = instructions, code, segments, None
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
        targets = self._targets(at)
        values = _row_values(rows, self.width)  # reads and checks the rows once
        for seq in targets:
            seq._rows = values

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
