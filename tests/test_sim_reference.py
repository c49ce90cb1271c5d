"""The simulator against its slow reference, and a golden multi-cell run.

``sim_reference`` holds the per-instruction ``BitVector`` semantics. The
differential tests run seeded random programs on it and on ``lamp.sim``
and require the same outcome, cycles, deadlocked cells, final state of
every cell, trace lines, and the same exception class and message when
a run raises. The golden test pins one run of the benchmark's sharded
16-cell program bit for bit.
"""

import hashlib
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from lamp.asm import assemble, program_from_bytes, program_to_bytes
from lamp.bitvec import BitVector
from lamp.errors import DeadlockDetected, LampError
from lamp.sim import (
    GRID_SIZE,
    M_REGS,
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
    RunOutcome,
    RunResult,
    Send,
    Sequencer,
    SetRow,
    UnOp,
    builtin_query_program,
)
from sim_reference import RefCell, RefGrid, cell_state, grid_state
from test_acceptance import _grid_digest

DIRECTION_SETS = [(Dir.E, Dir.W), (Dir.N, Dir.S), (Dir.NE, Dir.SW), tuple(Dir)]


def _target(rng, length, risky):
    # inside the program, or now and then just past either end
    if risky and rng.random() < 0.1:
        return rng.choice([length, -1])
    return rng.randrange(length)


def random_instruction(rng, width, length, dirs, risky=True):
    kind = rng.choices(
        ["logic", "orf", "jmp", "jf", "jnf", "jrlt", "setrow", "incrow",
         "loadm", "send", "recv", "halt"],
        weights=[6, 2, 1, 1, 1, 2, 1, 2, 1, 3, 3, 1],
    )[0]
    reg = rng.choice(M_REGS)
    if kind == "logic":
        return Logic(rng.choice(list(BinOp)), rng.choice(list(Reg)), rng.choice(list(Reg)),
                     rng.choice(list(UnOp)), reg)
    if kind == "orf":
        return Orf(rng.choice(list(Reg)))
    if kind in ("jmp", "jf", "jnf", "jrlt"):
        cls = {"jmp": Jump, "jf": JumpIfFlag, "jnf": JumpIfNotFlag, "jrlt": JumpIfRowLt}[kind]
        return cls(_target(rng, length, risky))
    if kind == "setrow":
        return SetRow(rng.randint(0, 6 if risky else 2))
    if kind == "incrow":
        return IncRow()
    if kind == "loadm":
        return LoadImm(reg, BitVector(width, rng.getrandbits(width)))
    if kind == "send":
        return Send(rng.choice(dirs), reg)
    if kind == "recv":
        return Recv(rng.choice(dirs), reg)
    return Halt()


def random_case(rng):
    """A 16-cell program, per-cell tables and register loads, and a budget.

    A risky case may jump out of its program, run off its end and address
    rows past its matrix. A safe one ends each cell in HALT, keeps jumps
    inside, and gives every cell at least three rows, so its runs more
    often end by halting, deadlock or the budget.
    """
    width = rng.randint(1, 70)
    dirs = rng.choice(DIRECTION_SETS)
    risky = rng.random() < 0.4
    busy = rng.choice([0.1, 0.3, 0.6, 0.9])  # share of cells with code
    program = Program(width=rng.choice([None, width]))
    tables, loads = {}, []
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            if rng.random() >= busy:
                continue  # an empty cell starts halted
            length = rng.randint(1, 10)
            code = [random_instruction(rng, width, length, dirs, risky) for _ in range(length)]
            if not risky:
                code[-1] = Halt()
            program.cells[r][c] = code
            tables[(r, c)] = [BitVector(width, rng.getrandbits(width))
                              for _ in range(rng.randint(0 if risky else 3, 5))]
            for reg in M_REGS:
                if rng.random() < 0.5:
                    loads.append((reg, BitVector(width, rng.getrandbits(width)), (r, c)))
    return width, program, tables, loads, rng.randint(1, 120)


def _outcome(call):
    try:
        result = call()
    except LampError as exc:
        return ("raised", type(exc), str(exc))
    if not isinstance(result, RunResult):  # step() returns its grid or sequencer
        return ("ok",)
    return ("ok", result.outcome, result.cycles, result.deadlocked)


def _build(grid, case, fast):
    _width, program, tables, loads, _budget = case
    grid.load_program(program)
    for (r, c), rows in tables.items():
        if fast:
            grid.set_table(rows, at=(r, c))
        else:
            grid.cell(r, c).a_matrix = list(rows)
    for reg, value, (r, c) in loads:
        if fast:
            grid.set_register(reg, value, at=(r, c))
        else:
            grid.cell(r, c).regs[reg] = value


def _drive(grid, budget, stepwise):
    """Run to the budget in one call, or one ``step`` at a time; then go on
    for a second budget, so a run restarts from the state the last left."""
    outcomes = []
    for limit in (budget, budget + 25):
        if stepwise:
            outcome = ("ok",)
            while not grid.all_halted and grid.global_cycle < limit:
                outcome = _outcome(grid.step)
                if outcome[0] == "raised":
                    break
            else:
                outcome = ("halted" if grid.all_halted else "budget", grid.global_cycle)
        else:
            outcome = _outcome(lambda: grid.run(limit))
        outcomes.append(outcome)
        if outcome[0] == "raised":
            break
    return outcomes


def _categories(outcomes, trace):
    seen = set()
    for outcome in outcomes:
        if outcome[0] == "raised" and outcome[1] is DeadlockDetected:
            seen.add("deadlock")
        elif outcome[0] == "raised":
            seen.add(outcome[2].split(": ", 1)[1].split(" ")[0])  # pc, row, jump, SETROW...
        elif outcome[0] == "ok":
            seen.add(outcome[1].value)
        else:
            seen.add(outcome[0])
    if any("\tSEND " in line and not line.endswith("(stall)") for line in trace):
        seen.add("exchange")
    return seen


@pytest.mark.parametrize("stepwise", [False, True], ids=["run", "step"])
def test_grid_matches_reference_on_random_programs(stepwise):
    rng = random.Random(20240 + stepwise)
    seen = Counter()
    for _ in range(400):
        case = random_case(rng)
        width, budget = case[0], case[4]
        runs = []
        for grid, fast in ((RefGrid(width, tracing=True), False),
                           (Grid(width, tracing=True), True)):
            loaded = _outcome(lambda: _build(grid, case, fast))
            outcomes = [loaded] if loaded[0] == "raised" else _drive(grid, budget, stepwise)
            runs.append((outcomes, grid_state(grid), grid.trace))
        assert runs[1] == runs[0]
        # an untraced run ends in the same state
        quiet = Grid(width)
        if _outcome(lambda: _build(quiet, case, True))[0] == "ok":
            assert _drive(quiet, budget, stepwise) == runs[0][0]
            assert grid_state(quiet) == runs[0][1] and quiet.trace == []
        seen.update(_categories(runs[0][0], runs[0][2]))
    finished = ("halted", "budget") if stepwise else ("all-halted", "cycle-budget-exhausted")
    for category in (*finished, "deadlock", "exchange", "pc", "row", "jump", "SETROW", "INCROW"):
        assert seen[category] >= 3, (category, seen)


def test_sequencer_step_matches_reference():
    rng = random.Random(7)
    for _ in range(600):
        width = rng.randint(1, 70)
        length = rng.randint(1, 8)
        code = [random_instruction(rng, width, length, tuple(Dir)) for _ in range(length)]
        if rng.random() < 0.1:  # a literal of the wrong width
            code[rng.randrange(length)] = LoadImm(Reg.MB, BitVector(width + 1, 1))
        rows = [BitVector(width, rng.getrandbits(width)) for _ in range(rng.randint(0, 4))]
        ref, seq = RefCell(width, code, rows), Sequencer(width, code, rows)
        ma = BitVector(width, rng.getrandbits(width))
        ref.regs[Reg.MA] = seq.regs[Reg.MA] = ma
        outcomes = []
        for cell in (ref, seq):
            steps = []
            for _ in range(30):
                if cell.halted:
                    break
                steps.append(_outcome(cell.step))
                if steps[-1][0] == "raised":
                    break
            outcomes.append((steps, cell_state(cell)))
        assert outcomes[1] == outcomes[0]


def test_builtin_query_matches_reference():
    rng = random.Random(1973)
    for _ in range(12):
        width = rng.randint(1, 40)
        rows = [BitVector(width, rng.getrandbits(width)) for _ in range(rng.randint(1, 12))]
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))  # a tie
        program = Program.single_cell(builtin_query_program(len(rows)))
        ma = BitVector(width, rng.getrandbits(width))
        case = (width, program, {(0, 0): rows}, [(Reg.MA, ma, (0, 0))], 0)
        runs = []
        for grid, fast in ((RefGrid(width, tracing=True), False),
                           (Grid(width, tracing=True), True)):
            _build(grid, case, fast)
            runs.append((grid.run(10_000), grid_state(grid), grid.trace))
        assert runs[1] == runs[0]
        assert runs[0][0].outcome is RunOutcome.ALL_HALTED


# --- golden run of the benchmark's sharded program ---------------------------

_SHARDED = Path(__file__).resolve().parent.parent / "bench" / "sharded.py"
_spec = importlib.util.spec_from_file_location("bench_sharded", _SHARDED)
sharded = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sharded)

# recorded from the BitVector interpreter that the reference above preserves
GOLDEN_SHARDED = {
    "trace_sha256": "b869a3eebc9981eb6d91b6b50f7a0c917aacf3df375e072b708776e32f8a76d0",
    "state_sha256": "cfde69b50dfe57e08c13fffdf9cf7a6bfed385add030108fd2771d865325b782",
    "global_cycle": 104,
    "cell_cycles": 1640,
}


def _sharded_run(decoded, tracing):
    rng = random.Random(64)
    width = 64
    shards = []
    for _ in range(GRID_SIZE * GRID_SIZE):
        rows = [rng.getrandbits(width) for _ in range(7)]
        rows.insert(rng.randrange(8), rng.choice(rows))  # a tie inside the shard
        shards.append(rows)
    query = rng.getrandbits(width)
    grid = Grid(width, tracing=tracing)
    program = assemble(sharded.sharded_source(width))
    if decoded:
        program = program_from_bytes(program_to_bytes(program))
    grid.load_program(program)
    for idx, rows in enumerate(shards):
        grid.set_table([BitVector(width, v) for v in rows], at=divmod(idx, GRID_SIZE))
    grid.set_register(Reg.MA, BitVector(width, query))
    result = grid.run(100_000)
    return grid, result, shards, query


def test_golden_sharded_run():
    for decoded in (False, True):  # as assembled, and decoded from its LAMP1 bytes
        for tracing in (True, False):
            _check_golden_sharded_run(*_sharded_run(decoded, tracing))


def _check_golden_sharded_run(grid, result, shards, query):
    assert result.outcome is RunOutcome.ALL_HALTED
    # the int oracle: MD is the best compacted quality of the whole table,
    # MC the earliest best row of the cell's own shard
    best = min((query ^ v).bit_count() for rows in shards for v in rows)
    for idx, rows in enumerate(shards):
        seq = grid.cell(*divmod(idx, GRID_SIZE))
        ks = [(query ^ v).bit_count() for v in rows]
        assert seq.regs[Reg.MD].value == ((1 << best) - 1) << (64 - best)
        assert seq.regs[Reg.MC].value == rows[ks.index(min(ks))]
    observed = {
        "trace_sha256": hashlib.sha256("\n".join(grid.trace).encode()).hexdigest(),
        "state_sha256": hashlib.sha256(repr(_grid_digest(grid)).encode()).hexdigest(),
        "global_cycle": grid.global_cycle,
        "cell_cycles": sum(seq.cycles for row in grid.cells for seq in row),
    }
    if not grid.tracing:  # an untraced run keeps no trace and ends in the same state
        assert grid.trace == []
        del observed["trace_sha256"]
    assert observed == {key: GOLDEN_SHARDED[key] for key in observed}
