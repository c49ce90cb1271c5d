"""lamp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lib_binary --seed 1 --seconds 30 --trace 0

Run from the root of a lamp checkout; lamp is imported from its ``src``
directory and nowhere else. One process, one closed-loop client and no
threads: an op starts when the previous one has returned and been
checked. Every op is checked against an oracle; a failing op counts in
``failed`` and the run goes on.

Times are host-normalised (see ``hostspeed.py``): each op is bracketed
by a fixed reference loop and its wall time is scaled to a host on which
that loop takes 2.5 ms, because the shared hosts this runs on change
speed by tens of percent from one minute to the next. Raw wall times are
in the report.

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` measures the per-layer metrics: it first runs ops untraced
for about 30% of ``--seconds``, then installs the span hooks of
``tracer.py`` and runs the same ops traced for the rest. Either way a run
goes on past ``--seconds`` until it has made one pass over the probe
pool, and counts are averaged over that first pass so that they repeat
exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name with its unit, including those that only
apply to some workloads (``error_ratio``, ``sim_cycles_per_op``,
``sim_cell_cycles_per_s``). The full report, the environment and, for a
traced run, the spans of set-up and of the first pass go to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracer as tr
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9  # spread over the run, so that they sample the host's slow and fast spells
TRACED_SETUP_REPS = 3
UNTRACED_SHARE = 0.3  # of --seconds, in a traced run
MAX_REPORTED_FAILURES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _kinds(metric: str, unit: str, better: str, kinds):
    return [(f"{metric}.{k}", unit, better) for k in kinds]


_CLI = ("diag", "query")
_GRID = ("builtin", "sharded")
# (name, unit, better). Every traced run prints all of them; a metric of a
# layer or op kind the workload does not exercise reads 0.
PER_LAYER = [
    ("assoc.load_table_ms", "ms", "lower"),
    ("assoc.query.self_ms", "ms", "lower"),
    ("assoc.winners_per_op", "count", "lower"),
    ("ternary.self_ms", "ms", "lower"),
    ("ternary.calls_per_row", "count", "lower"),
    ("quality.self_ms", "ms", "lower"),
    ("quality.calls_per_row", "count", "lower"),
    ("quality.index_rows_per_s", "rows/s", "higher"),
    ("bitvec.vectors_per_row", "count", "lower"),
    *_kinds("cli.self_ms", "ms", "lower", _CLI),
    *_kinds("cli.out_bytes", "bytes", "lower", _CLI),
    *_kinds("assoc.load_table.self_ms", "ms", "lower", _CLI),
    ("assoc.rank_ms.diag", "ms", "lower"),
    *_kinds("ternary.self_ms", "ms", "lower", _CLI),
    *_kinds("ternary.calls_per_row", "count", "lower", _CLI),
    ("quality.arith_ms.query", "ms", "lower"),
    *_kinds("sim.setup_ms", "ms", "lower", _GRID),
    *_kinds("sim.run_ms", "ms", "lower", _GRID),
    *_kinds("sim.host_us_per_cell_cycle", "us", "lower", _GRID),
    *_kinds("sim.cell_cycles_per_s", "1/s", "higher", _GRID),
    *_kinds("sim.cycles_per_op", "cycles", "lower", _GRID),
    *_kinds("sim.cells_active_per_cycle", "cells", "higher", _GRID),
    *_kinds("sim.stall_ratio", "ratio", "lower", _GRID),
    *_kinds("sim.exchanges_per_op", "count", "lower", _GRID),
    ("asm.assemble_ms.sharded", "ms", "lower"),
    ("asm.encode_ms.sharded", "ms", "lower"),
    ("asm.decode_ms.sharded", "ms", "lower"),
    *_kinds("asm.instructions", "count", "lower", _GRID),
    *_kinds("bitvec.vectors_per_row", "count", "lower", _GRID),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_SIM_SETUP = ("sim.Grid.__init__", "sim.Grid.load_program", "sim.Grid.set_table",
              "sim.Grid.set_register", "sim.builtin_query_program")


def import_lamp():
    """Import lamp from this checkout's ``src``; None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import lamp
    except ImportError:
        return None
    if not Path(lamp.__file__).resolve().is_relative_to(SRC):
        return None
    return lamp


def environment(args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "lamp_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Op:
    """One timed op; ``scale`` turns its wall time into host-normalised time."""

    __slots__ = ("i", "kind", "ns", "rows", "ok", "stats", "scale")

    def __init__(self, i, kind, ns, rows, ok, stats):
        self.i, self.kind, self.ns, self.rows, self.ok, self.stats = i, kind, ns, rows, ok, stats
        self.scale = 1.0

    @property
    def norm_ns(self) -> float:
        return self.ns * self.scale


def measure(wl, seconds: float, failures: list, tracer=None, setup_times=None) -> list[Op]:
    """Closed loop for ``seconds``, and at least one pass over the pool.

    With ``setup_times``, set-up is also repeated between ops until there
    are SETUP_REPS of them, evenly over the run; those are not op time.
    Every op is bracketed by reference samples, which set its scale.
    """
    ops = []
    refs = [hostspeed.sample()]
    first_pass = len(wl.kinds) * wl.pool
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < first_pass or time.perf_counter() < deadline:
        if setup_times is not None and len(setup_times) < SETUP_REPS and (
            time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPS
        ):
            setup_times += timed_setup(wl, 1)
        kind = wl.probe(i)[0]
        out, ok, stats = None, False, {}
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        try:
            out = tracer.call("bench.op", wl.run, i) if tracer else wl.run(i)
        except Exception:  # a failing op is counted and reported, the run goes on
            failures.append(f"op {i} ({kind}) raised:\n{traceback.format_exc()}")
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.op = None
        if out is not None:
            try:
                ok = wl.check(i, out)
                if ok:
                    stats = wl.stats(i, out)
                else:
                    failures.append(f"op {i} ({kind}): output failed the oracle")
            except Exception:
                failures.append(f"op {i} ({kind}) check raised:\n{traceback.format_exc()}")
        ops.append(Op(i, kind, ns, wl.rows(i), ok, stats))
        refs.append(hostspeed.sample())
        i += 1
    for op, scale in zip(ops, hostspeed.scales(refs)):
        op.scale = scale
    return ops


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, ops, setup_times) -> tuple[dict, dict]:
    """(metrics for the JSON line, the fuller report)."""
    by_kind = {k: [op.norm_ns / 1e6 for op in ops if op.kind == k] for k in wl.kinds}
    wall = {k: [op.ns / 1e6 for op in ops if op.kind == k] for k in wl.kinds}
    p50 = {k: statistics.median(v) for k, v in by_kind.items()}
    p90 = {k: _p90(v) for k, v in by_kind.items()}
    metrics = {
        "setup_s": statistics.median(raw * scale for raw, scale in setup_times),
        "rows_per_s": sum(op.rows for op in ops) * 1e9 / sum(op.norm_ns for op in ops),
        # mean over op kinds of each kind's percentile: ops alternate kinds,
        # and a percentile of the mixed samples would fall between clusters
        "op_p50_ms": statistics.fmean(p50.values()),
        "op_p90_ms": statistics.fmean(p90.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(not op.ok for op in ops)
    report = {
        "error_ratio": failed / len(ops),
        "samples": {k: len(v) for k, v in by_kind.items()},
        "op_p50_ms_by_kind": p50,
        "op_p90_ms_by_kind": p90,
        "wall_op_p50_ms_by_kind": {k: statistics.median(v) for k, v in wall.items()},
        "wall_op_p90_ms_by_kind": {k: _p90(v) for k, v in wall.items()},
        "wall_setup_s": statistics.median(raw for raw, _scale in setup_times),
        "setup_s_reps": setup_times,
        "ops": [[op.kind, op.ns, round(op.scale, 5)] for op in ops],
    }
    if wl.name == "grid":
        first = [op for op in ops[: len(wl.kinds) * wl.pool] if op.ok]
        report["sim_cycles_per_op"] = {
            k: _mean([op.stats["cycles"] for op in first if op.kind == k]) for k in wl.kinds
        }
        report["sim_cell_cycles_per_s"] = _cell_cycles_per_s(wl, ops)
    return metrics, report


def _mean(values) -> float:
    """Mean, or 0 when every op it would cover failed."""
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _cell_cycles_per_s(wl, ops) -> dict:
    out = {}
    for k in wl.kinds:
        done = [op for op in ops if op.ok and op.kind == k]
        out[k] = _ratio(sum(op.stats["cell_cycles"] for op in done) * 1e9,
                        sum(op.stats["run_ns"] * op.scale for op in done))
    return out


def per_layer(wl, untraced, traced, spans_by_op, setup_spans, extra) -> dict:
    """Every PER_LAYER metric; those this workload does not exercise read 0.

    Times are host-normalised: span times by their op's scale, set-up
    spans by ``setup_spans["scale"]``.
    """
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    first_pass = len(wl.kinds) * wl.pool
    n = min(len(untraced), len(traced))
    values["trace.overhead_ratio"] = (
        sum(op.norm_ns for op in traced[:n]) / sum(op.norm_ns for op in untraced[:n])
    )

    def rec(op):
        return spans_by_op.get(op.i) or {"self": {}, "incl": {}, "calls": {}, "counts": {}}

    def med(kind, fn):
        """Median over the traced ops of a kind of a time, host-normalised."""
        vals = [fn(rec(op)) * op.scale for op in traced if op.kind == kind and op.ok]
        return statistics.median(vals) if vals else 0.0

    def first(kind, fn):
        return _mean([fn(rec(op), op) for op in traced[:first_pass] if op.kind == kind and op.ok])

    def self_ms(r, layer):
        return tr.by_layer(r["self"]).get(layer, 0) / 1e6

    def calls(r, layer):
        return sum(c for name, c in r["calls"].items() if tr.layer(name) == layer)

    def setup_ms(name):
        vals = setup_spans.get(name, [])
        return statistics.median(vals) * setup_spans["scale"] / 1e6 if vals else 0.0

    if wl.name == "lib_binary":
        k = "query"
        values.update({
            "assoc.load_table_ms": setup_ms("assoc.load_table"),
            "assoc.query.self_ms": med(k, lambda r: r["self"].get("assoc.query", 0) / 1e6),
            "assoc.winners_per_op": first(k, lambda r, op: op.stats.get("winners", 0)),
            "ternary.self_ms": med(k, lambda r: self_ms(r, "ternary")),
            "ternary.calls_per_row": first(k, lambda r, op: calls(r, "ternary") / op.rows),
            "quality.self_ms": med(k, lambda r: self_ms(r, "quality")),
            "quality.calls_per_row": first(k, lambda r, op: calls(r, "quality") / op.rows),
            "quality.index_rows_per_s": extra["index_rows_per_s"],
            "bitvec.vectors_per_row": first(
                k, lambda r, op: r["counts"].get("bitvec.BitVector.__init__", 0) / op.rows),
        })
    elif wl.name == "cli_oneshot":
        for k in wl.kinds:
            values.update({
                f"cli.self_ms.{k}": med(k, lambda r: self_ms(r, "cli")),
                f"cli.out_bytes.{k}": first(k, lambda r, op: op.stats.get("out_bytes", 0)),
                f"assoc.load_table.self_ms.{k}": med(
                    k, lambda r: r["self"].get("assoc.load_table", 0) / 1e6),
                f"ternary.self_ms.{k}": med(k, lambda r: self_ms(r, "ternary")),
                f"ternary.calls_per_row.{k}": first(
                    k, lambda r, op: calls(r, "ternary") / op.rows),
            })
        values["assoc.rank_ms.diag"] = med(
            "diag", lambda r: r["incl"].get("assoc.rank", 0) / 1e6)
        values["quality.arith_ms.query"] = med(
            "query", lambda r: r["incl"].get("quality.quality_arith", 0) / 1e6)
    elif wl.name == "grid":
        done = [op for op in traced if op.ok]
        cell_rate = _cell_cycles_per_s(wl, untraced)
        for k in wl.kinds:
            run_ns = sum(op.stats["run_ns"] * op.scale for op in done if op.kind == k)
            cell_cycles = sum(op.stats["cell_cycles"] for op in done if op.kind == k)
            values.update({
                f"sim.setup_ms.{k}": med(
                    k, lambda r: sum(r["incl"].get(s, 0) for s in _SIM_SETUP) / 1e6),
                f"sim.run_ms.{k}": med(k, lambda r: r["incl"].get("sim.Grid.run", 0) / 1e6),
                f"sim.host_us_per_cell_cycle.{k}": _ratio(run_ns / 1e3, cell_cycles),
                f"sim.cell_cycles_per_s.{k}": cell_rate[k],
                f"sim.cycles_per_op.{k}": first(k, lambda r, op: op.stats["cycles"]),
                f"sim.cells_active_per_cycle.{k}": first(
                    k, lambda r, op: op.stats["cell_cycles"] / op.stats["cycles"]),
                f"sim.stall_ratio.{k}": first(
                    k, lambda r, op: op.stats["stalls"] / op.stats["cell_cycles"]),
                f"sim.exchanges_per_op.{k}": first(k, lambda r, op: op.stats["exchanges"]),
                f"asm.instructions.{k}": wl.instructions[k],
                f"bitvec.vectors_per_row.{k}": first(
                    k, lambda r, op: r["counts"].get("bitvec.BitVector.__init__", 0) / op.rows),
            })
        values["asm.assemble_ms.sharded"] = setup_ms("asm.assemble")
        values["asm.encode_ms.sharded"] = setup_ms("asm.program_to_bytes")
        values["asm.decode_ms.sharded"] = med(
            "sharded", lambda r: r["incl"].get("asm.program_from_bytes", 0) / 1e6)
    return values


def timed_setup(wl, reps: int) -> list[tuple[float, float]]:
    """(wall seconds, host scale) of each set-up."""
    times = []
    for _ in range(reps):
        gc.collect()
        _, ns, scale = hostspeed.timed(wl.setup)
        times.append((ns / 1e9, scale))
    return times


def index_rows_per_s(wl, reps: int = 7) -> float:
    """The ``lamp bench`` figure on this table, host-normalised."""
    rates = []
    for _ in range(reps):
        rows, ns, scale = hostspeed.timed(wl.index_pass)
        rates.append(rows * 1e9 / (ns * scale))
    return statistics.median(rates)


def run(args, workdir: Path) -> tuple[dict, dict]:
    """(the result line, the full report)."""
    failures: list[str] = []
    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny", str(workdir))
    report = {"workload": {"name": wl.name, "why": wl.why, "sizes": wl.sizes}}
    setup_times = timed_setup(wl, 1)
    wl.prepare()

    if not args.trace:
        ops = measure(wl, args.seconds, failures, setup_times=setup_times)
        report["hooks_installed"] = tr.installed()
        metrics, extra = end_to_end(wl, ops, setup_times)
        report.update(extra)
    else:
        extra = {}
        if wl.name == "lib_binary":
            extra["index_rows_per_s"] = index_rows_per_s(wl)
        t0 = time.perf_counter()
        untraced = measure(wl, args.seconds * UNTRACED_SHARE, failures)
        tracer = tr.Tracer()
        tracer.install()
        wl.tracing = True
        try:
            if wl.traced_setup:
                tracer.op = "setup"
                _, _, setup_scale = hostspeed.timed(
                    lambda: [wl.setup() for _ in range(TRACED_SETUP_REPS)])
                tracer.op = None
            rest = max(0.0, args.seconds - (time.perf_counter() - t0))
            traced = measure(wl, rest, failures, tracer)
        finally:
            tracer.uninstall()
            wl.tracing = False
        spans_by_op = tr.per_op(tracer.spans, tracer.counts)
        setup_spans: dict = {"scale": setup_scale if wl.traced_setup else 1.0}
        for name, start, end, _parent, op in tracer.spans:
            if op == "setup":
                setup_spans.setdefault(name, []).append(end - start)
        metrics = per_layer(wl, untraced, traced, spans_by_op, setup_spans, extra)
        report["hooks_missing"] = tracer.missing
        report["self_time_check"] = _self_time_check(tracer.spans, spans_by_op)
        report["spans_file"] = _write_spans(args, tracer.spans, len(wl.kinds) * wl.pool)
        ops = untraced + traced
    failed = sum(not op.ok for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    report["failures"] = failures[:MAX_REPORTED_FAILURES]
    return result, report


def _self_time_check(spans, spans_by_op) -> dict:
    """Largest gap between an op's root span and the sum of its self times."""
    roots = {op: end - start for name, start, end, _p, op in spans
             if name == "bench.op" and isinstance(op, int)}
    worst = 0
    for op, dur in roots.items():
        worst = max(worst, abs(sum(spans_by_op[op]["self"].values()) - dur))
    return {"ops": len(roots), "max_abs_gap_ns": worst}


def _write_spans(args, spans, first_pass: int) -> str:
    """Write the spans of set-up and of the first pass, gzipped TSV."""
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    out.parent.mkdir(exist_ok=True)
    with gzip.open(out, "wt", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op == "setup" or isinstance(op, int) and op < first_pass:
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
    return str(out.relative_to(ROOT))


def units() -> dict:
    table = dict(END_TO_END)
    table.update({name: unit for name, unit, _better in PER_LAYER})
    return table


def print_report(result, report, env) -> None:
    unit = units()
    print(f"# lamp benchmark: {report['workload']['name']}  "
          f"(seed {env['seed']}, {env['seconds']} s, trace {env['trace']}, size {env['size']})")
    print(f"# why: {report['workload']['why']}")
    print(f"# sizes: {json.dumps(report['workload']['sizes'])}")
    print(f"# env: nproc={env['nproc']} python={env['python']} platform={env['platform']} "
          f"lamp={env['lamp_commit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    if "error_ratio" in report:
        print(f"error_ratio {report['error_ratio']:.6g} ratio")
        print(f"samples {json.dumps(report['samples'])}")
        for kind, value in report["op_p50_ms_by_kind"].items():
            print(f"op_p50_ms.{kind} {value:.6g} ms   op_p90_ms.{kind} "
                  f"{report['op_p90_ms_by_kind'][kind]:.6g} ms   (wall: "
                  f"{report['wall_op_p50_ms_by_kind'][kind]:.6g} ms, "
                  f"{report['wall_op_p90_ms_by_kind'][kind]:.6g} ms)")
        print(f"wall setup_s {report['wall_setup_s']:.6g} s")
        for key, u in (("sim_cycles_per_op", "cycles"), ("sim_cell_cycles_per_s", "1/s")):
            for kind, value in report.get(key, {}).items():
                print(f"{key}.{kind} {value:.6g} {u}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {unit[name]}")
    for line in report["failures"]:
        print("# failure: " + line.splitlines()[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke run")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if import_lamp() is None:
        print(f"error: lamp not found under {SRC}; run from the root of a lamp checkout",
              file=sys.stderr)
        return 2
    env = environment(args)
    # relative, so that the table paths the CLI echoes do not depend on
    # where the checkout is
    workdir = Path(os.path.relpath(HERE / "work" / f"{args.workload}-{args.seed}"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = env
    report["result"] = result
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(result, report, env)
    for line in report["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": {name: {"value": value, "unit": units()[name]}
                                    for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
