"""Generator of the sharded 16-cell best-row search program.

Every cell of the 4x4 grid holds its own shard of the table as its row
matrix and the query in MA. A cell first folds its shard with a loop:
the compacted quality of a row is ``SLC(MA XOR ROW)`` (the binary
criterion is popcount(m XOR a), acceptance criterion 4), and the
and/xor/or-fold decision keeps the earlier row unless a later one is
strictly better. Afterwards the per-cell bests in MD are merged over the
torus: three rounds pass the running best east, so each cell has seen
its whole grid row, then three rounds pass it south, so each cell has
seen all sixteen shards. In every round a cell sends its best before it
merges what it received, so the value it forwards is the one it held
when the round began.

Exchanges are blocking rendezvous. Even columns (rows, for the N/S
rounds) SEND first and then RECV, odd ones RECV first and then SEND, so
along every ring each SEND meets a RECV that is already waiting or will
be next, and the rounds cannot deadlock.

Final registers of every cell: MD holds the compacted quality of the
best row of the whole table, MC the pattern of the earliest best row of
that cell's own shard. MA and MB are scratch after the fold.
"""

from __future__ import annotations

GRID = 4


class _Cell:
    """Lines of one cell; a label waits for the next instruction."""

    def __init__(self, r: int, c: int):
        self.tag = f"r{r}c{c}"
        self.lines = [f".cell {r},{c}"]
        self.label = None

    def at(self, name: str) -> None:
        self.label = f"{name}_{self.tag}"

    def emit(self, *instructions: str) -> None:
        for inst in instructions:
            prefix = f"{self.label}: " if self.label else "    "
            self.lines.append(prefix + inst)
            self.label = None

    def ref(self, name: str) -> str:
        return f"{name}_{self.tag}"


def _choose_best(cell: _Cell, name: str, cand: str, scratch: str, reload: list[str]) -> None:
    """MD := the better of MD and ``cand``; MD is kept on ties.

    flag = orf((MD AND cand) XOR MD) is 0 exactly when MD's ones are a
    subset of the candidate's, that is when MD is at least as good.
    ``reload`` rebuilds the candidate in MD, since ``scratch`` may be
    the candidate itself.
    """
    cell.emit(
        f"LOGIC AND MD, {cand}, NOPU, {scratch}",
        f"LOGIC XOR {scratch}, MD, NOPU, {scratch}",
        f"ORF {scratch}",
        f"JNF {cell.ref(name)}",
        *reload,
    )
    cell.at(name)


def _exchange(cell: _Cell, name: str, parity: int, send: str, recv: str) -> None:
    """One merge round: pass MD towards ``send``, take the best from ``recv``."""
    pair = [f"SEND {send}, MD", f"RECV {recv}, MB"]
    cell.emit(*(pair if parity == 0 else pair[::-1]))
    _choose_best(cell, name, "MB", "MA", ["LOGIC PASS MB, MB, NOPU, MD"])


def sharded_source(width: int) -> str:
    """Assembly source of the sharded search for vectors of ``width``.

    Labels carry the cell's coordinates, because the assembler rejects a
    label name used twice in one source, even in different cells.
    """
    out = [f".width {width}"]
    for r in range(GRID):
        for c in range(GRID):
            cell = _Cell(r, c)
            take_row = ["LOGIC XOR MA, ROW, SLC, MD", "LOGIC PASS ROW, ROW, NOPU, MC"]
            cell.emit(*take_row, "INCROW", f"JRLT {cell.ref('fold')}",
                      f"JMP {cell.ref('merge')}")
            cell.at("fold")
            cell.emit("LOGIC XOR MA, ROW, SLC, MB")
            _choose_best(cell, "next", "MB", "MB", take_row)
            cell.emit("INCROW", f"JRLT {cell.ref('fold')}")
            cell.at("merge")
            for i in range(GRID - 1):
                _exchange(cell, f"ew{i}", c % 2, "E", "W")
            for i in range(GRID - 1):
                _exchange(cell, f"ns{i}", r % 2, "S", "N")
            cell.emit("HALT")
            out += cell.lines
    return "\n".join(out) + "\n"
