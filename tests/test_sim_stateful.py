"""The grid against its reference under interleaved calls.

A Hypothesis state machine drives ``lamp.sim.Grid`` and
``sim_reference.RefGrid`` through the same sequence of loads, table and
register writes (through the API and straight into ``regs`` and
``a_matrix``), single steps and runs, traced or not. After every call
both must hold the same registers, pc, row, flag, halted state and
cycles in every cell, the same global cycle and trace, and have returned
the same result or raised the same exception class and message. Changes
between runs are where a run's read and write-back of the cells, and the
rerun of a faulting run, could part from the reference.

Some rules make calls that must be refused: a load with a non-instruction
or a literal of the wrong width in one cell, a table row of the wrong
width, a register value that is not a BitVector of the machine's width.
A refused call must change nothing, which an invariant of the grid alone
checks against a snapshot taken before the call. Runs are left out of it,
because a fault or a deadlock writes state back by design.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from lamp.bitvec import BitVector
from lamp.sim import GRID_SIZE, M_REGS, Grid, IncRow, JumpIfRowLt, LoadImm, Program, Reg
from sim_reference import RefGrid, grid_state
from test_sim_reference import DIRECTION_SETS, _outcome, random_instruction

CELLS = st.tuples(st.integers(0, GRID_SIZE - 1), st.integers(0, GRID_SIZE - 1))


def machine_program(seed, width):
    """A 16-cell program drawn from ``seed``: empty cells, straight code and row loops.

    Jumps land anywhere in a cell's code, now and then just past it, and
    exchanges name random directions, so runs halt, loop, fault, wait
    and deadlock.
    """
    rng = random.Random(seed)
    dirs = rng.choice(DIRECTION_SETS)
    program = Program()
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            if rng.random() < 0.4:
                continue  # an empty cell starts halted
            count = rng.randint(1, 7)
            loop = rng.random() < 0.5  # close the code with a loop over the rows
            length = count + 2 * loop
            code = [random_instruction(rng, width, length, dirs, rng.random() < 0.3)
                    for _ in range(count)]
            program.cells[r][c] = code + ([IncRow(), JumpIfRowLt(0)] if loop else [])
    return program


class GridAgainstReference(RuleBasedStateMachine):
    @initialize(width=st.integers(1, 9), tracing=st.booleans())
    def build(self, width, tracing):
        self.width = width
        self.grids = Grid(width, tracing=tracing), RefGrid(width, tracing=tracing)
        self.outcomes = None
        self.before = None  # the grid's snapshot before a call that must be refused

    def vectors(self, data, count):
        return [BitVector(self.width, data.draw(st.integers(0, (1 << self.width) - 1)))
                for _ in range(count)]

    def cells(self, everywhere, at):
        """The reference's cells that a Grid call with ``at`` (None when ``everywhere``) names."""
        ref = self.grids[1]
        return [cell for row in ref.cells for cell in row] if everywhere else [ref.cell(*at)]

    def both(self, call):
        """Make ``call`` on the grid and on the reference; both must end alike."""
        self.outcomes = [_outcome(lambda: call(grid)) for grid in self.grids]

    def refused(self, call, reference=True):
        """Make ``call``, which each grid must refuse; the reference's only
        when ``reference``, for the calls that the grid alone checks."""
        self.before = snapshot(self.grids[0])
        if reference:
            self.both(call)
        else:
            self.outcomes = [_outcome(lambda: call(self.grids[0]))] * 2
        assert self.outcomes[0][0] == "raised", self.outcomes[0]

    def bad_vector(self, data):
        """A value that is not a BitVector of the machine's width."""
        width = data.draw(st.sampled_from([w for w in (1, self.width + 1, 70) if w != self.width]))
        return data.draw(st.sampled_from([BitVector(width, 1), 1, "1" * self.width, None]))

    @rule(seed=st.integers(0, 2**32 - 1))
    def load_program(self, seed):
        program = machine_program(seed, self.width)
        self.both(lambda grid: grid.load_program(program))

    @rule(data=st.data(), count=st.integers(0, 5), everywhere=st.booleans(), at=CELLS)
    def set_table(self, data, count, everywhere, at):
        rows = self.vectors(data, count)
        self.grids[0].set_table(rows, at=None if everywhere else at)
        for cell in self.cells(everywhere, at):
            cell.a_matrix = list(rows)

    @rule(data=st.data(), reg=st.sampled_from(M_REGS), everywhere=st.booleans(), at=CELLS)
    def set_register(self, data, reg, everywhere, at):
        value, = self.vectors(data, 1)
        self.grids[0].set_register(reg, value, at=None if everywhere else at)
        for cell in self.cells(everywhere, at):
            cell.regs[reg] = value

    @rule(data=st.data(), reg=st.sampled_from(M_REGS), at=CELLS)
    def write_register(self, data, reg, at):
        value, = self.vectors(data, 1)
        for grid in self.grids:
            grid.cell(*at).regs[reg] = value

    @rule(data=st.data(), count=st.integers(0, 5), at=CELLS)
    def write_matrix(self, data, count, at):
        rows = self.vectors(data, count)
        for grid in self.grids:
            grid.cell(*at).a_matrix = list(rows)

    @rule(seed=st.integers(0, 2**32 - 1), at=CELLS, junk=st.booleans())
    def refused_load(self, seed, at, junk):
        """A non-instruction, or a literal of another width, after a cell's code."""
        program = machine_program(seed, self.width)
        bad = "junk" if junk else LoadImm(Reg.MB, BitVector(self.width + 1, 1))
        program.cells[at[0]][at[1]] = program.cells[at[0]][at[1]] + [bad]
        self.refused(lambda grid: grid.load_program(program))

    @rule(data=st.data(), count=st.integers(0, 3), everywhere=st.booleans(), at=CELLS,
          direct=st.booleans())
    def refused_table(self, data, count, everywhere, at, direct):
        rows = self.vectors(data, count)
        rows.insert(data.draw(st.integers(0, count)), self.bad_vector(data))
        if direct:
            self.refused(lambda grid: setattr(grid.cell(*at), "a_matrix", rows), reference=False)
        else:
            self.refused(lambda grid: grid.set_table(rows, at=None if everywhere else at),
                         reference=False)

    @rule(data=st.data(), reg=st.sampled_from(M_REGS), everywhere=st.booleans(), at=CELLS)
    def refused_register(self, data, reg, everywhere, at):
        value = self.bad_vector(data)
        self.refused(lambda grid: grid.set_register(reg, value, at=None if everywhere else at),
                     reference=False)

    @rule()
    def step(self):
        self.both(lambda grid: grid.step())

    @rule(ahead=st.integers(0, 40))
    def run(self, ahead):
        budget = max(1, self.grids[0].global_cycle + ahead)
        self.both(lambda grid: grid.run(budget))

    @invariant()
    def refused_calls_change_nothing(self):
        if self.before is not None:
            assert snapshot(self.grids[0]) == self.before
            self.before = None

    @invariant()
    def agree(self):
        if self.outcomes is not None:
            assert self.outcomes[0] == self.outcomes[1]
        fast, ref = self.grids
        assert grid_state(fast) == grid_state(ref)
        assert fast.trace == ref.trace


def snapshot(grid):
    """Everything a call could change: each cell's program, decode and its
    translations, control state, registers and matrix, the cycle and the trace."""
    cells = tuple(
        (seq.program.copy(), seq._code, id(seq._code), id(seq._segments), seq.pc, seq.row_idx,
         seq.flag, seq.halted, seq.cycles, dict(seq.regs), list(seq.a_matrix))
        for row in grid.cells for seq in row)
    return cells, grid.global_cycle, grid.trace.copy()


GridAgainstReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)
TestGridAgainstReference = GridAgainstReference.TestCase
