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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .bitvec import BitVector, orf, sls, vand, vnot, vor, vxor
from .errors import (
    DeadlockDetected,
    InvalidRowIndex,
    PcOutOfRange,
    WidthMismatch,
)

GRID_SIZE = 4


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


_BINOPS = {BinOp.AND: vand, BinOp.OR: vor, BinOp.XOR: vxor}


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


class Instruction:
    """Base of the instruction classes.

    Each class declares its assembly MNEMONIC and, in OPERANDS, the kind
    of each of its fields in field order. The kinds are the enum operands
    ``binop``, ``src`` (any Reg), ``unop``, ``mreg`` (an m-register) and
    ``dir``, plus ``target`` (a jump address), ``index`` (a row number)
    and ``literal`` (a BitVector). The assembler, disassembler and binary
    codec are all driven by these declarations.
    """

    MNEMONIC = ""
    OPERANDS: tuple[str, ...] = ()

    def operands(self) -> tuple:
        """Field values in the order of OPERANDS, which is the order the
        dataclass declares its fields."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def text(self, label=str) -> str:
        """Assembly text; ``label`` renders jump targets."""
        out, sep = self.MNEMONIC, " "
        for kind, value in zip(self.OPERANDS, self.operands()):
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


@dataclass(frozen=True)
class Logic(Instruction):
    MNEMONIC = "LOGIC"
    OPERANDS = ("binop", "src", "src", "unop", "mreg")

    binop: BinOp
    src_a: Reg
    src_b: Reg
    unop: UnOp
    dst: Reg

    def __post_init__(self):
        if self.dst not in M_REGS:
            raise ValueError(f"destination must be an m-register, got {self.dst}")
        if self.binop is BinOp.PASS and self.src_b is not self.src_a:
            # PASS has one operand; normalize so equal programs compare equal
            object.__setattr__(self, "src_b", self.src_a)


@dataclass(frozen=True)
class Orf(Instruction):
    MNEMONIC = "ORF"
    OPERANDS = ("src",)

    src: Reg


@dataclass(frozen=True)
class Jump(Instruction):
    MNEMONIC = "JMP"
    OPERANDS = ("target",)

    target: int


@dataclass(frozen=True)
class JumpIfFlag(Instruction):
    MNEMONIC = "JF"
    OPERANDS = ("target",)

    target: int


@dataclass(frozen=True)
class JumpIfNotFlag(Instruction):
    MNEMONIC = "JNF"
    OPERANDS = ("target",)

    target: int


@dataclass(frozen=True)
class SetRow(Instruction):
    MNEMONIC = "SETROW"
    OPERANDS = ("index",)

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"row index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class IncRow(Instruction):
    MNEMONIC = "INCROW"


@dataclass(frozen=True)
class JumpIfRowLt(Instruction):
    """Jump while the row counter is below the loaded row count."""

    MNEMONIC = "JRLT"
    OPERANDS = ("target",)

    target: int


@dataclass(frozen=True)
class LoadImm(Instruction):
    MNEMONIC = "LOADM"
    OPERANDS = ("mreg", "literal")

    reg: Reg
    literal: BitVector

    def __post_init__(self):
        if self.reg not in M_REGS:
            raise ValueError(f"LOADM target must be an m-register, got {self.reg}")


@dataclass(frozen=True)
class Send(Instruction):
    MNEMONIC = "SEND"
    OPERANDS = ("dir", "mreg")

    direction: Dir
    reg: Reg

    def __post_init__(self):
        if self.reg not in M_REGS:
            raise ValueError(f"SEND source must be an m-register, got {self.reg}")


@dataclass(frozen=True)
class Recv(Instruction):
    MNEMONIC = "RECV"
    OPERANDS = ("dir", "mreg")

    direction: Dir
    reg: Reg

    def __post_init__(self):
        if self.reg not in M_REGS:
            raise ValueError(f"RECV target must be an m-register, got {self.reg}")


@dataclass(frozen=True)
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
        prog.cells[at[0]][at[1]] = list(instructions)
        return prog

    @classmethod
    def broadcast(cls, instructions, width=None) -> "Program":
        prog = cls(width=width)
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                prog.cells[r][c] = list(instructions)
        return prog

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Program)
            and self.width == other.width
            and self.cells == other.cells
        )


# --------------------------------------------------------------------------
# Machine state


class Sequencer:
    """State of one grid cell: registers, matrix, command memory."""

    def __init__(self, width: int, program=None, a_matrix=None):
        self.width = width
        self.regs = {r: BitVector.zeros(width) for r in M_REGS}
        self.a_matrix: list[BitVector] = list(a_matrix) if a_matrix else []
        for row in self.a_matrix:
            if row.n != width:
                raise WidthMismatch(f"matrix row width {row.n} != {width}")
        self.program: list[Instruction] = list(program) if program else []
        self.row_idx = 0
        self.flag = 0
        self.pc = 0
        self.cycles = 0
        # a cell without code has no cycle to execute, so it starts halted
        self.halted = not self.program

    @property
    def row_count(self) -> int:
        return len(self.a_matrix)

    def set_matrix(self, rows) -> None:
        rows = list(rows)
        for row in rows:
            if row.n != self.width:
                raise WidthMismatch(f"matrix row width {row.n} != {self.width}")
        self.a_matrix = rows

    def current(self) -> Instruction:
        if not 0 <= self.pc < len(self.program):
            raise PcOutOfRange(f"pc {self.pc} outside program of {len(self.program)}")
        return self.program[self.pc]

    def _read(self, src: Reg) -> BitVector:
        if src is Reg.ROW:
            if self.row_idx >= self.row_count:
                raise InvalidRowIndex(
                    f"row {self.row_idx} outside matrix of {self.row_count} rows"
                )
            return self.a_matrix[self.row_idx]
        return self.regs[src]

    def _jump(self, target: int) -> None:
        if not 0 <= target < len(self.program):
            raise PcOutOfRange(f"jump target {target} outside program")
        self.pc = target

    def step(self) -> "Sequencer":
        """Execute one instruction in one cycle.

        A SEND or RECV stepped here (outside a grid) has no partner and
        stalls: the cycle is spent, the pc does not move.
        """
        if self.halted:
            raise RuntimeError("step on a halted sequencer")
        inst = self.current()
        if isinstance(inst, (Send, Recv)):
            self.cycles += 1
            return self
        self.execute(inst)
        return self

    def execute(self, inst: Instruction) -> None:
        """Run one non-exchange instruction and charge its cycle."""
        self.cycles += 1
        match inst:
            case Logic(binop=binop, src_a=sa, src_b=sb, unop=unop, dst=dst):
                a = self._read(sa)
                if binop is BinOp.PASS:
                    r = a
                else:
                    b = self._read(sb)
                    r = _BINOPS[binop](a, b)
                if unop is UnOp.NOT:
                    r = vnot(r)
                elif unop is UnOp.SLC:
                    r = sls(r)
                self.regs[dst] = r
                self.pc += 1
            case Orf(src=src):
                self.flag = orf(self._read(src))
                self.pc += 1
            case Jump(target=t):
                self._jump(t)
            case JumpIfFlag(target=t):
                if self.flag:
                    self._jump(t)
                else:
                    self.pc += 1
            case JumpIfNotFlag(target=t):
                if not self.flag:
                    self._jump(t)
                else:
                    self.pc += 1
            case SetRow(index=i):
                if i > self.row_count:
                    raise InvalidRowIndex(
                        f"SETROW {i} outside matrix of {self.row_count} rows"
                    )
                self.row_idx = i
                self.pc += 1
            case IncRow():
                if self.row_idx + 1 > self.row_count:
                    raise InvalidRowIndex(
                        f"INCROW past matrix of {self.row_count} rows"
                    )
                self.row_idx += 1
                self.pc += 1
            case JumpIfRowLt(target=t):
                if self.row_idx < self.row_count:
                    self._jump(t)
                else:
                    self.pc += 1
            case LoadImm(reg=reg, literal=lit):
                if lit.n != self.width:
                    raise WidthMismatch(
                        f"literal width {lit.n} != machine width {self.width}"
                    )
                self.regs[reg] = lit
                self.pc += 1
            case Halt():
                self.halted = True
            case _:
                raise TypeError(f"cannot execute {inst!r} directly")


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
        return self.cells[r][c]

    def load_program(self, program: Program) -> None:
        if program.width is not None and program.width != self.width:
            raise WidthMismatch(
                f"program width {program.width} != grid width {self.width}"
            )
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                seq = self.cells[r][c]
                seq.program = list(program.cells[r][c])
                for inst in seq.program:
                    if isinstance(inst, LoadImm) and inst.literal.n != self.width:
                        raise WidthMismatch(
                            f"cell ({r},{c}): literal width {inst.literal.n} "
                            f"!= grid width {self.width}"
                        )
                # a loaded program starts from a fresh control state
                seq.pc = 0
                seq.row_idx = 0
                seq.flag = 0
                seq.halted = not seq.program

    def set_table(self, rows, at=None) -> None:
        """Load associator rows into one cell, or into all when at=None."""
        targets = [at] if at else [
            (r, c) for r in range(GRID_SIZE) for c in range(GRID_SIZE)
        ]
        for r, c in targets:
            self.cells[r][c].set_matrix(rows)

    def set_register(self, reg: Reg, value: BitVector, at=None) -> None:
        if value.n != self.width:
            raise WidthMismatch(f"value width {value.n} != grid width {self.width}")
        targets = [at] if at else [
            (r, c) for r in range(GRID_SIZE) for c in range(GRID_SIZE)
        ]
        for r, c in targets:
            self.cells[r][c].regs[reg] = value

    @property
    def all_halted(self) -> bool:
        return all(seq.halted for row in self.cells for seq in row)

    def _active(self):
        return [
            (r, c, self.cells[r][c])
            for r in range(GRID_SIZE)
            for c in range(GRID_SIZE)
            if not self.cells[r][c].halted
        ]

    def _trace(self, cycle, r, c, seq, note=""):
        if self.tracing:
            self.trace.append(f"{cycle}\t{r},{c}\t{seq.pc}\t{seq.current().text()}{note}")

    def step(self) -> "Grid":
        """Advance every non-halted cell by one cycle, row-major order.

        Exchanges rendezvous first: a SEND at some cell matched by the
        facing RECV at its target completes atomically this cycle, with
        the receiver taking the sender's start-of-cycle register value.
        Unmatched exchange partners stall for the cycle.
        """
        active = self._active()
        if not active:
            return self

        comm = {}
        for r, c, seq in active:
            try:
                inst = seq.current()
            except PcOutOfRange as exc:
                exc.args = (f"cell ({r},{c}): {exc.args[0]}",)
                raise
            if isinstance(inst, (Send, Recv)):
                comm[(r, c)] = inst

        matched = {}  # position -> value to write (receivers) or None (senders)
        for (r, c), inst in comm.items():
            if not isinstance(inst, Send):
                continue
            partner = neighbor(r, c, inst.direction)
            other = comm.get(partner)
            if (
                isinstance(other, Recv)
                and other.direction is opposite(inst.direction)
                and partner not in matched
            ):
                matched[(r, c)] = None
                # snapshot now: the transfer must not see same-cycle writes
                matched[partner] = self.cells[r][c].regs[inst.reg]

        if comm and len(comm) == len(active) and not matched:
            cells = sorted(comm)
            raise DeadlockDetected(
                "all active cells stalled on unmatched exchanges: "
                + ", ".join(f"({r},{c})" for r, c in cells),
                cells=cells,
            )

        cycle = self.global_cycle + 1
        for r, c, seq in active:
            pos = (r, c)
            if pos in matched:
                self._trace(cycle, r, c, seq)
                inst = comm[pos]
                if isinstance(inst, Recv):
                    seq.regs[inst.reg] = matched[pos]
                seq.pc += 1
                seq.cycles += 1
            elif pos in comm:
                self._trace(cycle, r, c, seq, "\t(stall)")
                seq.cycles += 1  # stall still burns the cycle
            else:
                self._trace(cycle, r, c, seq)
                try:
                    seq.execute(seq.current())
                except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
                    exc.args = (f"cell ({r},{c}): {exc.args[0]}",)
                    raise
        self.global_cycle = cycle
        return self

    def run(self, max_cycles: int) -> RunResult:
        """Step until everything halts, the budget runs out, or deadlock."""
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be positive, got {max_cycles}")
        while True:
            if self.all_halted:
                return RunResult(RunOutcome.ALL_HALTED, self.global_cycle)
            if self.global_cycle >= max_cycles:
                return RunResult(
                    RunOutcome.CYCLE_BUDGET_EXHAUSTED, self.global_cycle
                )
            try:
                self.step()
            except DeadlockDetected as exc:
                return RunResult(
                    RunOutcome.DEADLOCK, self.global_cycle, tuple(exc.cells)
                )


# --------------------------------------------------------------------------
# Canonical query program


def builtin_query_program(rows: int) -> list[Instruction]:
    """Emit the canonical best-row search over ``rows`` >= 1 matrix rows.

    The program is the same loop of 18 instructions for every row count.
    It expects the query vector in MA, the associators loaded as the
    cell's matrix and the row counter at 0, as ``Grid.load_program``
    leaves it. Two sweeps over the rows. The first folds each row's
    compacted quality SLC(MA XOR ROW) into MD (the binary criterion is
    popcount(m XOR a), acceptance criterion 4) through the paper's
    decision orf((MD AND MC) XOR MD), which is 0 when MD is at least as
    good, so the earlier row is kept on ties. The second finds the first
    row whose compacted quality equals MD and parks that associator's
    pattern in MC as the winner's identification.

    MD starts as all ones -- the worst possible compacted quality --
    synthesized width-free as NOT(MA XOR MA). The fold costs 7 or 8
    cycles per row, the search 6 per row up to the winner.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    quality_into_mc = Logic(BinOp.XOR, Reg.MA, Reg.ROW, UnOp.SLC, Reg.MC)
    fold, next_row, find, found = 1, 7, 10, 16  # jump targets
    return [
        Logic(BinOp.XOR, Reg.MA, Reg.MA, UnOp.NOT, Reg.MD),
        # fold: MD := the better of MD and this row's quality
        quality_into_mc,
        Logic(BinOp.AND, Reg.MD, Reg.MC, UnOp.NOPU, Reg.MB),
        Logic(BinOp.XOR, Reg.MB, Reg.MD, UnOp.NOPU, Reg.MB),
        Orf(Reg.MB),
        JumpIfNotFlag(next_row),
        Logic(BinOp.PASS, Reg.MC, Reg.MC, UnOp.NOPU, Reg.MD),
        IncRow(),
        JumpIfRowLt(fold),
        SetRow(0),
        # find: stop at the first row whose quality equals MD
        quality_into_mc,
        Logic(BinOp.XOR, Reg.MC, Reg.MD, UnOp.NOPU, Reg.MB),
        Orf(Reg.MB),
        JumpIfNotFlag(found),
        IncRow(),
        JumpIfRowLt(find),
        Logic(BinOp.PASS, Reg.ROW, Reg.ROW, UnOp.NOPU, Reg.MC),
        Halt(),
    ]
