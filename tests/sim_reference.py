"""Slow reference interpreter for the grid: the oracle of the fast one.

This is the simulator's per-instruction semantics written the plain way,
on ``BitVector`` registers: one ``match`` per executed instruction, an
active list and a rendezvous dict rebuilt every cycle, and a fresh
vector for every register write. ``lamp.sim`` predecodes programs into
int code and must agree with this module on every run: outcome, cycles,
deadlocked cells, every cell's final state, trace lines and, when a run
raises, the exception's class and message.
"""

from __future__ import annotations

from lamp.bitvec import BitVector, orf, sls, vand, vnot, vor, vxor
from lamp.errors import (
    DeadlockDetected,
    InvalidArgument,
    InvalidRowIndex,
    NotAnInstruction,
    PcOutOfRange,
    WidthMismatch,
)
from lamp.sim import (
    GRID_SIZE,
    M_REGS,
    BinOp,
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
    Recv,
    Reg,
    RunOutcome,
    RunResult,
    Send,
    SetRow,
    UnOp,
    neighbor,
    opposite,
)

_BINOPS = {BinOp.AND: vand, BinOp.OR: vor, BinOp.XOR: vxor}


class RefCell:
    """One sequencer: registers, matrix, command memory, control state."""

    def __init__(self, width, program=(), a_matrix=()):
        self.width = width
        self.regs = {r: BitVector.zeros(width) for r in M_REGS}
        self.a_matrix = list(a_matrix)
        self.program = list(program)
        self.row_idx = 0
        self.flag = 0
        self.pc = 0
        self.cycles = 0
        self.halted = not self.program

    @property
    def row_count(self):
        return len(self.a_matrix)

    def check_control(self, where=""):
        """Refuse a pc or row counter that is not an int, a negative row
        counter, or a flag that is not 0 or 1."""
        if type(self.pc) is not int:
            raise InvalidArgument(f"{where}pc must be an int, got {self.pc!r}")
        if type(self.row_idx) is not int or self.row_idx < 0:
            raise InvalidArgument(
                f"{where}row counter must be a nonnegative int, got {self.row_idx!r}")
        if type(self.flag) is not int or self.flag not in (0, 1):
            raise InvalidArgument(f"{where}flag must be 0 or 1, got {self.flag!r}")

    def current(self):
        if not 0 <= self.pc < len(self.program):
            raise PcOutOfRange(f"pc {self.pc} outside program of {len(self.program)}")
        return self.program[self.pc]

    def _read(self, src):
        if src is Reg.ROW:
            if self.row_idx >= self.row_count:
                raise InvalidRowIndex(
                    f"row {self.row_idx} outside matrix of {self.row_count} rows"
                )
            return self.a_matrix[self.row_idx]
        return self.regs[src]

    def _jump(self, target):
        if not 0 <= target < len(self.program):
            raise PcOutOfRange(f"jump target {target} outside program")
        self.pc = target

    def step(self):
        """Standalone step: an exchange has no partner and stalls."""
        if self.halted:
            raise RuntimeError("step on a halted sequencer")
        inst = self.current()
        if isinstance(inst, (Send, Recv)):
            self.cycles += 1
            return
        self.execute(inst)

    def execute(self, inst):
        self.cycles += 1
        match inst:
            case Logic(binop=binop, src_a=sa, src_b=sb, unop=unop, dst=dst):
                a = self._read(sa)
                if binop is BinOp.PASS:
                    r = a
                else:
                    r = _BINOPS[binop](a, self._read(sb))
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
                    raise InvalidRowIndex(f"SETROW {i} outside matrix of {self.row_count} rows")
                self.row_idx = i
                self.pc += 1
            case IncRow():
                if self.row_idx + 1 > self.row_count:
                    raise InvalidRowIndex(f"INCROW past matrix of {self.row_count} rows")
                self.row_idx += 1
                self.pc += 1
            case JumpIfRowLt(target=t):
                if self.row_idx < self.row_count:
                    self._jump(t)
                else:
                    self.pc += 1
            case LoadImm(reg=reg, literal=lit):
                if lit.n != self.width:
                    raise WidthMismatch(f"literal width {lit.n} != machine width {self.width}")
                self.regs[reg] = lit
                self.pc += 1
            case Halt():
                self.halted = True
            case _:
                raise TypeError(f"cannot execute {inst!r} directly")


class RefGrid:
    """4x4 torus of RefCells in lockstep, scanned row-major."""

    def __init__(self, width, tracing=False):
        self.width = width
        self.cells = [[RefCell(width) for _ in range(GRID_SIZE)] for _ in range(GRID_SIZE)]
        self.global_cycle = 0
        self.tracing = tracing
        self.trace = []

    def cell(self, r, c):
        return self.cells[r][c]

    def load_program(self, program):
        """Check every cell's instructions, then load them all: a refused
        program changes no cell."""
        if program.width is not None and program.width != self.width:
            raise WidthMismatch(f"program width {program.width} != grid width {self.width}")
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                code = program.cells[r][c]
                for inst in code:
                    if not isinstance(inst, Instruction):
                        raise NotAnInstruction(f"cell ({r},{c}): cannot execute {inst!r}")
                for inst in code:
                    if isinstance(inst, LoadImm) and inst.literal.n != self.width:
                        raise WidthMismatch(
                            f"cell ({r},{c}): literal width {inst.literal.n} "
                            f"!= grid width {self.width}"
                        )
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                seq = self.cells[r][c]
                seq.program = list(program.cells[r][c])
                seq.pc = seq.row_idx = seq.flag = 0
                seq.halted = not seq.program

    @property
    def all_halted(self):
        return all(seq.halted for row in self.cells for seq in row)

    def _check_control(self):
        for r in range(GRID_SIZE):
            for c in range(GRID_SIZE):
                if not self.cells[r][c].halted:
                    self.cells[r][c].check_control(f"cell ({r},{c}): ")

    def _trace(self, cycle, r, c, seq, note=""):
        if self.tracing:
            self.trace.append(f"{cycle}\t{r},{c}\t{seq.pc}\t{seq.current().text()}{note}")

    def step(self):
        active = [
            (r, c, self.cells[r][c])
            for r in range(GRID_SIZE)
            for c in range(GRID_SIZE)
            if not self.cells[r][c].halted
        ]
        if not active:
            return
        self._check_control()

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
                seq.cycles += 1
            else:
                self._trace(cycle, r, c, seq)
                try:
                    seq.execute(seq.current())
                except (InvalidRowIndex, PcOutOfRange, WidthMismatch) as exc:
                    exc.args = (f"cell ({r},{c}): {exc.args[0]}",)
                    raise
        self.global_cycle = cycle

    def run(self, max_cycles):
        while True:
            if self.all_halted:
                return RunResult(RunOutcome.ALL_HALTED, self.global_cycle)
            if self.global_cycle >= max_cycles:  # a cell that could run is still checked
                self._check_control()
                return RunResult(RunOutcome.CYCLE_BUDGET_EXHAUSTED, self.global_cycle)
            try:
                self.step()
            except DeadlockDetected as exc:
                return RunResult(RunOutcome.DEADLOCK, self.global_cycle, tuple(exc.cells))


def cell_state(seq):
    """Everything a cell holds after a run, registers as ints."""
    return (
        seq.pc, seq.flag, seq.row_idx, seq.cycles, seq.halted,
        tuple(seq.regs[r].value for r in M_REGS),
    )


def grid_state(grid):
    return (grid.global_cycle, tuple(cell_state(seq) for row in grid.cells for seq in row))
