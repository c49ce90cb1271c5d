"""Command-line front end: metric, query, diag, asm, run, bench.

Every command renders one report in a chosen format: ``text`` (human),
``tsv`` (stable tab-separated lines), or ``json`` (stable document).
Diagnostics go to stderr and the exit status is nonzero on any failure.
Set LAMP_COLOR=0 to disable text decoration.

The grid commands, ``asm`` and ``run``, import the simulator and the
assembler inside their functions, so that metric, query, diag and bench
start without loading either; ``run --builtin-query`` reads no program
file and loads only the simulator.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .assoc import AssocTable, diagnose, load_table, query, rank
from .bitvec import BitVector
from .errors import LampError, ModeMismatch
from .quality import (
    QualityIndex,
    criterion_arith,
    criterion_vector,
    quality_arith,
    quality_index,
)
from .ternary import TernaryVector


def _color_enabled() -> bool:
    return os.environ.get("LAMP_COLOR", "1") != "0" and sys.stdout.isatty()


def _head(s: str) -> str:
    return f"\033[1m{s}\033[0m" if _color_enabled() else s


# the text of each value type that json writes the same at any indent;
# default=str writes a Fraction as the string str() gives it
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: lambda value: _quote(str(value)),
}


def _indented(value, out: list[str], pad: str = "") -> list[str]:
    """``out`` with ``value`` appended as ``json.dumps(value, indent=2,
    default=str)`` writes it, nested at indent ``pad``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder. This
    writes the same text: dicts, lists and tuples by recursion, the types
    of ``_SCALARS`` directly, and the rest (floats, subclasses, other
    objects, ``{}`` and ``[]``) by the C encoder, which writes them alike
    with or without an indent. A :class:`_PerRowJson` writes its own list.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        out.append(write(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out += sep, _quote(key if isinstance(key, str) else _key(key)), ": "
            write = _SCALARS.get(type(item))
            if write is None:
                _indented(item, out, inner)
            else:
                out.append(write(item))
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _indented(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, _PerRowJson):
        out.append(value.json(pad))
    else:
        out.append(json.dumps(value, default=str))
    return out


def _key(key) -> str:
    """A dict key that is not a str, as ``json.dumps`` names it."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(report: dict, text_lines: list[str], tsv_lines: list[list], fmt: str):
    if fmt == "json":
        print("".join(_indented(report, [])))
    elif fmt == "tsv":
        for row in tsv_lines:
            print("\t".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def _read_text(path: str, blob: bytes | None = None, expected: str = "UTF-8 text") -> str:
    """The text of ``path``, or of ``blob`` when it was already read from it.

    A byte that is not UTF-8 is a LampError naming the file and the offset.
    """
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LampError(f"{path}: not {expected} (byte {exc.start})") from None


def _read_table(path: str):
    return load_table(_read_text(path), name=os.path.basename(path))


# --------------------------------------------------------------------------
# metric


def cmd_metric(args) -> int:
    if args.mode == "vector":
        m = BitVector.parse(args.m)
        a = BitVector.parse(args.a)
        qv = criterion_vector(m, a)
        shared = m & a
        idx = quality_index(m, a)
        rows = [  # (text name, JSON key, vector); m and A are echoed as inputs
            ("m", None, m),
            ("A", None, a),
            ("m AND A", "m_and_a", shared),
            ("NOT(m AND A)", "not_m_and_a", ~shared),
            ("d = m XOR A", "d_vec", qv.d_vec),
            ("mu(A in m)", "mu_a_in_m_vec", qv.mu_a_in_m_vec),
            ("mu(m in A)", "mu_m_in_a_vec", qv.mu_m_in_a_vec),
            ("Q (OR of three)", "q_vec", qv.q_vec),
            ("Q compacted", "q_compacted", qv.q_compacted),
        ]
        text = [_head("vector criterion")]
        text += [f"{name:<16} {vec.to01()}" for name, _, vec in rows]
        text.append(f"Q = {idx.k}/{idx.n}")
        tsv = [[name.replace(" ", "_"), vec.to01()] for name, _, vec in rows]
        tsv.append(["q_index", f"{idx.k}/{idx.n}"])
        report = {
            "command": "metric", "mode": "vector",
            "inputs": {"m": m.to01(), "a": a.to01()},
            **{key: vec.to01() for _, key, vec in rows if key},
            "k": idx.k, "n": idx.n,
        }
        _emit(report, text, tsv, args.format)
        return 0
    if args.mode == "arith":
        m = TernaryVector.parse(args.m)
        a = TernaryVector.parse(args.a)
        s = quality_arith(m, a)
        title, inputs = "interaction quality", {"m": m.symbols(), "a": a.symbols()}
        fields = [  # (text name, TSV and JSON key, value)
            ("d", "d", s.d),
            ("mu(m in A)", "mu_m_in_a", s.mu_m_in_a),
            ("mu(A in m)", "mu_a_in_m", s.mu_a_in_m),
        ]
    else:
        m = BitVector.parse(args.m)
        a = BitVector.parse(args.a)
        s = criterion_arith(m, a)
        title, inputs = "integer criterion", {"m": m.to01(), "a": a.to01()}
        fields = [
            ("d_card", "d_card", s.d_card),
            ("nonmembership(m, A)", "nonmembership_m_in_a", s.nonmembership_m_in_a),
            ("nonmembership(A, m)", "nonmembership_a_in_m", s.nonmembership_a_in_m),
        ]
    width = max(len(name) for name, _, _ in fields)
    text = [_head(f"{title} ({inputs['m']} vs {inputs['a']})")]
    text += [f"{name:<{width}} = {value}" for name, _, value in fields]
    text.append(f"Q = {s.value}")
    tsv = [[key, value] for _, key, value in fields] + [["q", s.value]]
    report = {
        "command": "metric", "mode": args.mode, "inputs": inputs,
        **{key: value for _, key, value in fields}, "q": s.value,
    }
    _emit(report, text, tsv, args.format)
    return 0


# --------------------------------------------------------------------------
# query / diag


def _score_text(score) -> str:
    if isinstance(score, QualityIndex):
        return f"k={score.k}/{score.n}"
    return f"Q={score.value}"


def _score_cells(score) -> dict:
    if isinstance(score, QualityIndex):
        return {"k": score.k, "n": score.n}
    return {
        "q": score.value, "d": score.d,
        "mu_m_in_a": score.mu_m_in_a, "mu_a_in_m": score.mu_a_in_m,
    }


class _PerRowJson:
    """The ``per_row`` list of a table report, one ``{"row": i, "label":
    label, **_score_cells(score)}`` per row, written by :func:`_indented`
    with one format for every row: the row's number and label are filled
    in, and its score cells are the text of its score object, written once
    for each distinct object (rows with the same counts share one)."""

    __slots__ = ("labels", "scores")

    def __init__(self, labels: list, scores: list):
        self.labels, self.scores = labels, scores

    def json(self, pad: str) -> str:
        """The list as ``_indented`` writes a list at indent ``pad``."""
        item, field = pad + "  ", pad + "    "
        cells = {id(score): score for score in self.scores}
        for key, score in cells.items():
            cells[key] = (",\n" + field).join(
                [f"{_quote(name)}: {''.join(_indented(value, [], field))}"
                 for name, value in _score_cells(score).items()])
        row = f'{{\n{field}"row": %d,\n{field}"label": %s,\n{field}%s\n{item}}}'
        labels = ["null" if label is None else _quote(label) for label in self.labels]
        rows = [row % (i, label, cells[id(score)])
                for i, (label, score) in enumerate(zip(labels, self.scores), 1)]
        return "[\n" + item + (",\n" + item).join(rows) + "\n" + pad + "]"


def _run_table_query(args, response_mode: bool) -> int:
    table = _read_table(args.table)
    vec_text = args.response if response_mode else args.m
    if response_mode:
        probe = BitVector.parse(vec_text)
        result = diagnose(table, probe)
    else:
        probe = TernaryVector.parse(vec_text)
        result = query(table, probe)

    mode_name = result.mode.value
    text = [
        _head(f"{table.name}: {len(table)} rows, width {table.cols}, {mode_name}"),
        f"query   {vec_text}",
    ]
    tsv, rows_json = [], []
    if args.format == "text":
        # tied rows share Q or k, so each winner's text is the first winner's
        best = _score_text(result.best_index)
        for idx, label in result.best_rows:
            text.append(f"winner  row {idx}" + (f"  {label}" if label else "") + f"  {best}")
    elif args.format == "tsv":  # tied ternary rows can differ in mu_m_in_a and mu_a_in_m
        for (idx, label), score in zip(result.best_rows, result.winner_scores()):
            tsv.append(["winner", idx, label or "", *_score_cells(score).values()])
    if args.top:
        ranked = rank(table, probe, args.top)
        text.append(_head(f"top {len(ranked)}"))
        for idx, score in ranked:
            cells = _score_cells(score)
            label = table.labels[idx - 1]
            text.append(f"  row {idx}" + (f"  {label}" if label else "") + "  " + _score_text(score))
            tsv.append(["rank", idx, label or "", *cells.values()])
            rows_json.append({"row": idx, "label": label, **cells})
    report = {
        "command": "diag" if response_mode else "query",
        "inputs": {"table": args.table, "vector": vec_text, "top": args.top},
        "mode": mode_name,
        "best_rows": [
            {"row": idx, "label": label} for idx, label in result.best_rows
        ],
        "best": _score_cells(result.best_index),
    }
    if args.format == "json":  # only JSON prints per-row scores
        report["per_row"] = _PerRowJson(table.labels, result.per_row)
    if args.top:
        report["ranked"] = rows_json
    _emit(report, text, tsv, args.format)
    return 0


def cmd_query(args) -> int:
    return _run_table_query(args, response_mode=False)


def cmd_diag(args) -> int:
    return _run_table_query(args, response_mode=True)


# --------------------------------------------------------------------------
# asm


def cmd_asm_build(args) -> int:
    from .asm import assemble, save_program

    program = assemble(_read_text(args.source))
    out = args.output or os.path.splitext(args.source)[0] + ".lprog"
    save_program(out, program)
    used = sum(1 for row in program.cells for code in row if code)
    total = sum(len(code) for row in program.cells for code in row)
    print(f"wrote {out}: width={program.width or 'unset'}, "
          f"{total} instructions across {used} cells")
    return 0


def cmd_asm_dump(args) -> int:
    from .asm import disassemble, load_program

    sys.stdout.write(disassemble(load_program(args.program)))
    return 0


# --------------------------------------------------------------------------
# run


def _load_freight(args):
    """Resolve the program, table rows, register loads, and the width."""
    from .sim import M_REGS, Program, builtin_query_program

    table_rows = None
    if args.table:
        table = _read_table(args.table)
        if not table.is_binary:
            raise ModeMismatch("simulator tables must be binary")
        table_rows = table.row_bits()

    loads = []
    for item in args.load or []:
        name, _, bits = item.partition("=")
        regs = {r.name: r for r in M_REGS}
        if name.upper() not in regs or not bits:
            raise LampError(f"bad --load {item!r}, expected REG=BITS")
        loads.append((regs[name.upper()], BitVector.parse(bits)))

    if args.builtin_query:
        if table_rows is None:
            raise LampError("--builtin-query needs --table")
        program = Program.single_cell(builtin_query_program(len(table_rows)))
    else:
        from .asm import MAGIC, assemble, program_from_bytes

        with open(args.program, "rb") as fh:
            blob = fh.read()
        if blob.startswith(MAGIC):
            program = program_from_bytes(blob)
        else:
            source = _read_text(args.program, blob, "a LAMP1 binary or UTF-8 assembly")
            program = assemble(source)

    width = program.width or args.width
    for _, vec in loads:
        width = width or vec.n
    if table_rows:
        width = width or table_rows[0].n
    # a program that never touches data (HALT only, pure control) runs at any width
    return program, table_rows, loads, width or 1


def cmd_run(args) -> int:
    from .sim import GRID_SIZE, M_REGS, Grid

    program, table_rows, loads, width = _load_freight(args)
    grid = Grid(width, tracing=args.trace)
    grid.load_program(program)
    if table_rows:
        grid.set_table(table_rows)
    for reg, vec in loads:
        grid.set_register(reg, vec)

    result = grid.run(args.max_cycles)
    text = [
        _head("run"),
        f"outcome {result.outcome.value}",
        f"cycles  {result.cycles}",
    ]
    tsv = [["outcome", result.outcome.value], ["cycles", result.cycles]]
    cells_json = {}
    if result.deadlocked:
        cellset = ", ".join(f"({r},{c})" for r, c in result.deadlocked)
        text.append(f"deadlocked cells: {cellset}")
        tsv.append(["deadlocked", cellset])
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            seq = grid.cell(r, c)
            if not seq.program:
                continue
            text.append(_head(f"cell {r},{c}") + f"  pc={seq.pc} flag={seq.flag} "
                        f"row={seq.row_idx} cycles={seq.cycles}")
            cell = {"pc": seq.pc, "flag": seq.flag, "row": seq.row_idx,
                    "cycles": seq.cycles, "halted": seq.halted}
            for reg in M_REGS:
                text.append(f"  {reg.name} {seq.regs[reg].to01()}")
                tsv.append(["reg", f"{r},{c}", reg.name, seq.regs[reg].to01()])
                cell[reg.name] = seq.regs[reg].to01()
            cells_json[f"{r},{c}"] = cell
    report = {
        "command": "run",
        "inputs": {
            "program": None if args.builtin_query else args.program,
            "builtin_query": args.builtin_query,
            "table": args.table, "max_cycles": args.max_cycles,
        },
        "outcome": result.outcome.value,
        "cycles": result.cycles,
        "deadlocked": [f"{r},{c}" for r, c in result.deadlocked],
        "cells": cells_json,
    }
    if args.trace:
        # a trace line is cycle, cell, pc, instruction and, for a stall, "(stall)"
        events = [line.split("\t") for line in grid.trace]
        tsv += [["trace", *event] for event in events]
        report["trace"] = [
            {"cycle": int(cycle), "cell": cell, "pc": int(pc),
             "instruction": instruction, "stall": bool(stall)}
            for cycle, cell, pc, instruction, *stall in events
        ]
    _emit(report, text, tsv, args.format)
    if args.trace and args.format == "text":
        print(_head("trace (cycle cell pc mnemonic)"))
        for line in grid.trace:
            print(line)
    return 0


# --------------------------------------------------------------------------
# bench


def _scalar_criterion(m_bits: list[int], a_bits: list[int]) -> int:
    """Integer criterion computed one coordinate at a time."""
    d = ones_m = ones_a = common = 0
    for mb, ab in zip(m_bits, a_bits):
        if mb != ab:
            d += 1
        ones_m += mb
        ones_a += ab
        if mb and ab:
            common += 1
    return d + (ones_a - common) + (ones_m - common)


def cmd_bench(args) -> int:
    import random

    rng = random.Random(args.seed)
    n, rows = args.n, args.rows
    table = [BitVector(n, rng.getrandbits(n)) for _ in range(rows)]
    m = BitVector(n, rng.getrandbits(n))
    assoc_table = AssocTable.from_rows(table)  # row conversion is not timed

    t0 = time.perf_counter()
    results = [query(assoc_table, m) for _ in range(args.iters)]
    vec_elapsed = time.perf_counter() - t0
    vec_rate = rows * args.iters / vec_elapsed if vec_elapsed else float("inf")
    stable = all(r.best_rows == results[0].best_rows for r in results)

    report = {
        "command": "bench",
        "inputs": {"n": n, "rows": rows, "iters": args.iters, "seed": args.seed},
        "vector_rows_per_s": round(vec_rate, 1),
        "winner_rows": [i for i, _ in results[0].best_rows],
        "best_k": results[0].best_index.k,
        "winners_stable": stable,
    }
    text = [
        _head("bench"),
        f"n       {n}",
        f"rows    {rows}",
        f"iters   {args.iters}",
        f"vector  {vec_rate:.1f} rows/s",
    ]
    tsv = [["vector_rows_per_s", f"{vec_rate:.1f}"]]

    if args.baseline:
        sample = min(rows, args.baseline_rows)
        bit_rows = [row.bits() for row in table[:sample]]
        m_bits = m.bits()
        t0 = time.perf_counter()
        scalar_scores = [_scalar_criterion(m_bits, row) for row in bit_rows]
        sc_elapsed = time.perf_counter() - t0
        sc_rate = sample / sc_elapsed if sc_elapsed else float("inf")
        # the two paths must agree where both were measured
        agree = all(
            scalar_scores[i] == criterion_arith(m, table[i]).value
            for i in range(sample)
        )
        speedup = vec_rate / sc_rate if sc_rate else float("inf")
        report.update(
            scalar_rows_per_s=round(sc_rate, 1),
            scalar_sample_rows=sample,
            speedup=round(speedup, 2),
            paths_agree=agree,
        )
        text += [
            f"scalar  {sc_rate:.1f} rows/s  (per-coordinate, sampled on {sample} rows)",
            f"speedup {speedup:.2f}x  (measured on this machine, not a claim)",
            f"agree   {'yes' if agree else 'NO'}",
        ]
        tsv += [
            ["scalar_rows_per_s", f"{sc_rate:.1f}"],
            ["scalar_sample_rows", sample],
            ["speedup", f"{speedup:.2f}"],
            ["paths_agree", agree],
        ]
    text.append(
        f"winner  rows {report['winner_rows'][:4]} k={report['best_k']}/{n}"
        + (" (stable)" if stable else " (UNSTABLE)")
    )
    tsv += [
        ["winner_rows", ",".join(str(i) for i in report["winner_rows"])],
        ["best_k", report["best_k"]],
        ["winners_stable", stable],
    ]
    _emit(report, text, tsv, args.format)
    return 0


# --------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_format(p):
    p.add_argument(
        "--format", choices=("text", "tsv", "json"), default="text",
        help="output format (default: text)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every parse returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="lamp",
        description="Vector-logic metric, associative table queries, and "
        "the LAMP grid simulator toolchain.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="score the interaction of two vectors")
    p.add_argument("--m", required=True, help="query vector")
    p.add_argument("--a", required=True, help="associator vector")
    p.add_argument(
        "--mode", choices=("arith", "int", "vector"), default="vector",
        help="arith: normalized rational on {0,1,x}; int: integer sum; "
        "vector: pure logic-vector criterion (default)",
    )
    _add_format(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("query", help="find the best rows of a table")
    p.add_argument("table", help="table file ({0,1,x} rows, optional label<TAB>)")
    p.add_argument("--m", required=True, help="query vector")
    p.add_argument("--top", type=_positive_int, help="also list the best K rows")
    _add_format(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("diag", help="look up a response in a fault dictionary")
    p.add_argument("table", help="fault dictionary file (binary signatures)")
    p.add_argument("--response", required=True, help="observed response vector")
    p.add_argument("--top", type=_positive_int, help="also list the best K candidates")
    _add_format(p)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("asm", help="assemble or dump grid programs")
    asub = p.add_subparsers(dest="asm_command", required=True)
    pb = asub.add_parser("build", help="assemble source into a LAMP1 binary")
    pb.add_argument("source")
    pb.add_argument("-o", "--output", help="output path (default: source.lprog)")
    pb.set_defaults(func=cmd_asm_build)
    pd = asub.add_parser("dump", help="disassemble a LAMP1 binary to stdout")
    pd.add_argument("program")
    pd.set_defaults(func=cmd_asm_dump)

    p = sub.add_parser("run", help="run a program on the 4x4 grid")
    p.add_argument("program", nargs="?", help="program file (.lasm text or LAMP1 binary)")
    p.add_argument(
        "--builtin-query", action="store_true",
        help="run the canonical best-row search instead of a program file "
        "(query in MA, table rows as the matrix)",
    )
    p.add_argument("--table", help="table file loaded into every cell's matrix")
    p.add_argument(
        "--load", action="append", metavar="REG=BITS",
        help="preload an m-register in every cell (repeatable)",
    )
    p.add_argument(
        "--width", type=_positive_int,
        help="vector width when neither .width, --table, nor --load sets it",
    )
    p.add_argument("--max-cycles", type=_positive_int, default=100_000)
    p.add_argument("--trace", action="store_true", help="print a cycle trace")
    _add_format(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="measure criterion throughput")
    p.add_argument("--n", type=_positive_int, default=256, help="vector width")
    p.add_argument("--rows", type=_positive_int, default=10_000, help="table rows")
    p.add_argument("--iters", type=_positive_int, default=3, help="vector-path passes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--baseline-rows", type=_positive_int, default=200,
        help="rows sampled for the per-coordinate baseline (default 200)",
    )
    p.add_argument(
        "--no-baseline", dest="baseline", action="store_false",
        help="skip the scalar baseline",
    )
    _add_format(p)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run" and not args.builtin_query and not args.program:
        print("error: run needs a program file or --builtin-query", file=sys.stderr)
        return 1
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a reader that has gone shows here, not at exit
        return status
    except BrokenPipeError as exc:  # as the signal docs' note on SIGPIPE advises,
        try:  # quietly, with stdout at devnull so that the exit flushes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # no file descriptor, as in a StringIO
            print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LampError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
