"""The benchmark's workloads: generated inputs, the oracle, and one op.

Inputs come from ``random.Random`` seeded with the workload name and the
run's seed, and are generated before any timing. Each workload keeps a
pool of probes per op kind; op ``i`` runs kind ``i % len(kinds)`` on
probe ``(i // len(kinds)) % pool``, so the first ``len(kinds) * pool``
ops (the first pass) are the same in every run of a seed, which is what
makes the counts reported over the first pass exact.

The oracle is computed with plain ints: the binary criterion of a row is
``(m ^ a).bit_count()`` (acceptance criterion 4), never lamp's own
scoring. The one exception is ternary ``query`` output, which is checked
against a library ``query()`` on the table loaded once.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
import time

import sharded

GRID = 4
MAX_CYCLES = 100_000


def _s(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def _prefix(k: int, n: int) -> int:
    """The compacted quality vector 1^k 0^(n-k) as an int."""
    return ((1 << k) - 1) << (n - k)


def _binary_rows(rng: random.Random, count: int, n: int) -> list[int]:
    """``count`` rows of which 1/8 repeat an earlier row, so ties occur."""
    dups = count // 8
    rows = [rng.getrandbits(n) for _ in range(count - dups)]
    rows += [rng.choice(rows) for _ in range(dups)]
    rng.shuffle(rows)
    return rows


def _binary_probes(rng: random.Random, rows: list[int], n: int, count: int) -> list[int]:
    """A third exact rows (half of them repeated rows), a third rows with
    four bits flipped, a third uniform random vectors."""
    repeated = sorted({v for v in rows if rows.count(v) > 1})
    probes = []
    for j in range(count):
        if j % 3 == 0:
            pool = repeated if repeated and j % 2 == 0 else rows
            probes.append(rng.choice(pool))
        elif j % 3 == 1:
            m = rng.choice(rows)
            for pos in rng.sample(range(n), min(4, n)):
                m ^= 1 << pos
            probes.append(m)
        else:
            probes.append(rng.getrandbits(n))
    return probes


def _ternary(rng: random.Random, n: int) -> str:
    return "".join("x" if rng.random() < 0.25 else rng.choice("01") for _ in range(n))


def _ternary_probes(rng: random.Random, rows: list[str], n: int, count: int) -> list[str]:
    """Exact rows, rows with three symbols redrawn, random vectors."""
    probes = []
    for j in range(count):
        if j % 3 == 0:
            probes.append(rng.choice(rows))
        elif j % 3 == 1:
            m = list(rng.choice(rows))
            for pos in rng.sample(range(n), min(3, n)):
                m[pos] = _ternary(rng, 1)
            probes.append("".join(m))
        else:
            probes.append(_ternary(rng, n))
    return probes


def _scores(m: int, rows: list[int]) -> list[int]:
    return [(m ^ a).bit_count() for a in rows]


class Workload:
    """Inputs, timed set-up, one timed op and its check."""

    name = ""
    why = ""
    kinds: tuple = ()
    traced_setup = True  # False when repeating set-up would undo the hooks

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = 0
        self.sizes: dict = {}
        self.tracing = False

    def probe(self, i: int) -> tuple[str, int]:
        return self.kinds[i % len(self.kinds)], (i // len(self.kinds)) % self.pool

    def setup(self) -> None:
        """The set-up timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first op."""
        raise NotImplementedError

    def run(self, i: int):
        """The timed op; returns what ``check`` and ``stats`` read."""
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def stats(self, i: int, out) -> dict:
        return {}

    def rows(self, i: int) -> int:
        """Table rows one op searches."""
        raise NotImplementedError


class LibBinary(Workload):
    name = "lib_binary"
    why = ("one labelled binary table loaded once, then a stream of query() "
           "probes: row scoring and the winner fold, no parsing per op")
    kinds = ("query",)

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n, count, self.pool = (32, 16, 6) if tiny else (256, 256, 24)
        self.table_rows = _binary_rows(self.rng, count, self.n)
        self.labels = [f"R{i:04d}" for i in range(1, count + 1)]
        self.text = "".join(
            f"{label}\t{_s(v, self.n)}\n" for label, v in zip(self.labels, self.table_rows)
        )
        self.probes = _binary_probes(self.rng, self.table_rows, self.n, self.pool)
        self.refs = []
        for m in self.probes:
            ks = _scores(m, self.table_rows)
            best = min(ks)
            winners = [(i + 1, self.labels[i]) for i, k in enumerate(ks) if k == best]
            self.refs.append((winners, best))
        self.sizes = {"rows": count, "n": self.n, "repeated_rows": count // 8,
                      "probes": self.pool}

    def setup(self):
        self.table = importlib.import_module("lamp.assoc").load_table(
            self.text, name=self.name
        )

    def prepare(self):
        self.assoc = importlib.import_module("lamp.assoc")
        bitvector = importlib.import_module("lamp.bitvec").BitVector
        self.inputs = [bitvector(self.n, m) for m in self.probes]
        self.row_bits = self.table.row_bits()

    def run(self, i):
        return self.assoc.query(self.table, self.inputs[self.probe(i)[1]])

    def check(self, i, out):
        winners, best = self.refs[self.probe(i)[1]]
        return out.best_rows == winners and out.best_index.k == best

    def stats(self, i, out):
        return {"winners": len(out.best_rows)}

    def rows(self, i):
        return len(self.table_rows)

    def index_pass(self) -> int:
        """The ``lamp bench`` loop: quality_index alone over pre-built rows,
        for three probes; returns the rows scored."""
        quality_index = importlib.import_module("lamp.quality").quality_index
        probes = self.inputs[:3]
        for m in probes:
            [quality_index(m, row).k for row in self.row_bits]
        return len(self.row_bits) * len(probes)


class CliOneshot(Workload):
    name = "cli_oneshot"
    why = ("lamp.cli.main alternating diag (binary JSON) and query (ternary TSV): "
           "every op re-reads, parses, scores and renders a whole table")
    kinds = ("diag", "query")
    traced_setup = False

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        rng = self.rng
        self.n_diag, diag_rows, self.n_query, query_rows, self.pool = (
            (16, 12, 8, 24, 3) if tiny else (128, 250, 64, 3600, 8)
        )
        signatures = _binary_rows(rng, diag_rows, self.n_diag)
        labels = [f"F{i:04d}" for i in range(1, diag_rows + 1)]
        self.diag_rows = diag_rows
        self.diag_path = os.path.join(workdir, "faults.tbl")
        with open(self.diag_path, "w", encoding="utf-8") as fh:
            fh.write("# labelled binary fault dictionary\n")
            fh.writelines(f"{l}\t{_s(v, self.n_diag)}\n" for l, v in zip(labels, signatures))
        self.diag_refs = []
        self.diag_argv = []
        for m in _binary_probes(rng, signatures, self.n_diag, self.pool):
            ks = _scores(m, signatures)
            best = min(ks)
            order = sorted(range(diag_rows), key=lambda r: (ks[r], r))[:5]
            self.diag_refs.append((
                [{"row": r + 1, "label": labels[r]} for r in range(diag_rows) if ks[r] == best],
                best,
                [(r + 1, labels[r], ks[r]) for r in order],
            ))
            self.diag_argv.append(["diag", self.diag_path, "--response", _s(m, self.n_diag),
                                   "--top", "5", "--format", "json"])
        self.query_table = [_ternary(rng, self.n_query) for _ in range(query_rows)]
        self.query_path = os.path.join(workdir, "patterns.tbl")
        with open(self.query_path, "w", encoding="utf-8") as fh:
            fh.write("# ternary patterns, 25% x\n")
            fh.writelines(row + "\n" for row in self.query_table)
        self.query_probes = _ternary_probes(rng, self.query_table, self.n_query, self.pool)
        self.query_argv = [["query", self.query_path, "--m", m, "--format", "tsv"]
                           for m in self.query_probes]
        self.sizes = {
            "diag": {"rows": diag_rows, "n": self.n_diag, "repeated_rows": diag_rows // 8,
                     "top": 5, "probes": self.pool},
            "query": {"rows": query_rows, "n": self.n_query, "x_share": 0.25,
                      "probes": self.pool},
        }

    def setup(self):
        for mod in [m for m in sys.modules if m == "lamp" or m.startswith("lamp.")]:
            del sys.modules[mod]
        importlib.import_module("lamp.cli")

    def prepare(self):
        self.cli = importlib.import_module("lamp.cli")
        assoc = importlib.import_module("lamp.assoc")
        ternary = importlib.import_module("lamp.ternary").TernaryVector
        with open(self.query_path, encoding="utf-8") as fh:
            table = assoc.load_table(fh)
        self.query_refs = []
        for m in self.query_probes:
            res = assoc.query(table, ternary.parse(m))
            self.query_refs.append(([row for row, _ in res.best_rows], str(res.best_index.value)))

    def run(self, i):
        kind, j = self.probe(i)
        argv = self.diag_argv[j] if kind == "diag" else self.query_argv[j]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def check(self, i, out):
        rc, text = out
        if rc != 0:
            return False
        kind, j = self.probe(i)
        if kind == "diag":
            winners, best, ranked = self.diag_refs[j]
            doc = json.loads(text)
            return (
                doc["best_rows"] == winners
                and doc["best"]["k"] == best
                and [(r["row"], r["label"], r["k"]) for r in doc["ranked"]] == ranked
            )
        rows, q = self.query_refs[j]
        lines = [line.split("\t") for line in text.splitlines() if line.startswith("winner\t")]
        return [int(f[1]) for f in lines] == rows and all(f[3] == q for f in lines)

    def stats(self, i, out):
        return {"out_bytes": len(out[1].encode("utf-8"))}

    def rows(self, i):
        return self.diag_rows if self.probe(i)[0] == "diag" else len(self.query_table)


class GridRun(Workload):
    name = "grid"
    why = ("the simulator and the assembler: builtin_query_program in one cell, "
           "and a 16-cell sharded search decoded from LAMP1 bytes per op")
    kinds = ("builtin", "sharded")
    RERUN_EVERY = 7  # odd, so both op kinds get rerun

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        rng = self.rng
        self.n, per_cell, self.pool = (16, 4, 3) if tiny else (256, 64, 16)
        self.builtin_rows = _binary_rows(rng, per_cell, self.n)
        self.shards = [_binary_rows(rng, per_cell, self.n) for _ in range(GRID * GRID)]
        table = [v for shard in self.shards for v in shard]
        self.builtin_probes = _binary_probes(rng, self.builtin_rows, self.n, self.pool)
        self.sharded_probes = _binary_probes(rng, table, self.n, self.pool)
        self.builtin_refs = []
        for m in self.builtin_probes:
            ks = _scores(m, self.builtin_rows)
            best = min(ks)
            self.builtin_refs.append((self.builtin_rows[ks.index(best)], _prefix(best, self.n)))
        self.sharded_refs = []
        for m in self.sharded_probes:
            md = _prefix(min(_scores(m, table)), self.n)
            mcs = []
            for shard in self.shards:
                ks = _scores(m, shard)
                mcs.append(shard[ks.index(min(ks))])
            self.sharded_refs.append((md, mcs))
        self.source = sharded.sharded_source(self.n)
        self.sizes = {
            "n": self.n,
            "builtin": {"rows": per_cell, "cells": 1, "probes": self.pool},
            "sharded": {"rows": per_cell * GRID * GRID, "rows_per_cell": per_cell,
                        "cells": GRID * GRID, "probes": self.pool},
        }

    def setup(self):
        asm = importlib.import_module("lamp.asm")
        self.blob = asm.program_to_bytes(asm.assemble(self.source))

    def prepare(self):
        self.sim = importlib.import_module("lamp.sim")
        self.asm = importlib.import_module("lamp.asm")
        bitvector = importlib.import_module("lamp.bitvec").BitVector
        self.builtin_table = [bitvector(self.n, v) for v in self.builtin_rows]
        self.shard_tables = [[bitvector(self.n, v) for v in s] for s in self.shards]
        self.inputs = {
            "builtin": [bitvector(self.n, m) for m in self.builtin_probes],
            "sharded": [bitvector(self.n, m) for m in self.sharded_probes],
        }
        program = self.asm.program_from_bytes(self.blob)
        self.instructions = {
            "builtin": len(self.sim.builtin_query_program(len(self.builtin_rows))),
            "sharded": sum(len(code) for row in program.cells for code in row),
        }

    def run(self, i):
        kind, j = self.probe(i)
        sim = self.sim
        if kind == "builtin":
            # the path of `lamp run --builtin-query`: every cell gets the table
            program = sim.Program.single_cell(sim.builtin_query_program(len(self.builtin_table)))
            grid = sim.Grid(self.n, tracing=self.tracing)
            grid.load_program(program)
            grid.set_table(self.builtin_table)
        else:
            program = self.asm.program_from_bytes(self.blob)
            grid = sim.Grid(self.n, tracing=self.tracing)
            grid.load_program(program)
            for idx, shard in enumerate(self.shard_tables):
                grid.set_table(shard, at=divmod(idx, GRID))
        grid.set_register(sim.Reg.MA, self.inputs[kind][j])
        t0 = time.perf_counter_ns()
        result = grid.run(MAX_CYCLES)
        return grid, result, time.perf_counter_ns() - t0

    def _digest(self, grid, result) -> str:
        cells = [
            (seq.pc, seq.flag, seq.row_idx, seq.cycles, seq.halted,
             tuple(seq.regs[r].value for r in self.sim.M_REGS))
            for row in grid.cells for seq in row
        ]
        state = (result.outcome.value, result.cycles, tuple(result.deadlocked), cells)
        return hashlib.sha256(repr(state).encode()).hexdigest()

    def check(self, i, out):
        grid, result, _ = out
        if result.outcome is not self.sim.RunOutcome.ALL_HALTED:
            return False
        kind, j = self.probe(i)
        reg = self.sim.Reg
        if kind == "builtin":
            mc, md = self.builtin_refs[j]
            cell = grid.cell(0, 0)
            ok = cell.regs[reg.MC].value == mc and cell.regs[reg.MD].value == md
        else:
            md, mcs = self.sharded_refs[j]
            ok = all(
                grid.cell(*divmod(idx, GRID)).regs[reg.MD].value == md
                and grid.cell(*divmod(idx, GRID)).regs[reg.MC].value == mcs[idx]
                for idx in range(GRID * GRID)
            )
        if ok and i % self.RERUN_EVERY == 0:
            again, again_result, _ = self.run(i)
            ok = self._digest(grid, result) == self._digest(again, again_result)
        return ok

    def stats(self, i, out):
        grid, result, run_ns = out
        trace = grid.trace
        return {
            "cycles": result.cycles,
            "cell_cycles": sum(seq.cycles for row in grid.cells for seq in row),
            "run_ns": run_ns,
            "stalls": sum(1 for line in trace if line.endswith("(stall)")),
            "exchanges": sum(
                1 for line in trace if "\tSEND " in line and not line.endswith("(stall)")
            ),
        }

    def rows(self, i):
        if self.probe(i)[0] == "builtin":
            return len(self.builtin_rows)
        return sum(len(s) for s in self.shards)


WORKLOADS = {w.name: w for w in (LibBinary, CliOneshot, GridRun)}
