"""Smoke run of the benchmark at a tiny size; it checks no speed.

    python3 bench/smoke.py

Checks that every workload runs traced and untraced, that every op
passes its oracle, that every metric of BENCHMARK.json is printed with
its unit, that untraced runs install no hooks, that traced self times
add up to each op's duration, that exact counts repeat for a seed, that
a hook whose target is gone reads as zero calls, and that the benchmark
fails without printing a result where there is no lamp source.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402

SECONDS = "0.5"
GROUPS = {  # suffix of the per-layer metrics each workload exercises
    "lib_binary": (),
    "cli_oneshot": (".diag", ".query"),
    "grid": (".builtin", ".sharded"),
}
ZERO_BY_DESIGN = {"sim.stall_ratio.builtin", "sim.exchanges_per_op.builtin"}
EXACT = ("calls_per_row", "vectors_per_row", "cycles_per_op", "exchanges_per_op",
         "instructions", "winners_per_op", "out_bytes", "cells_active_per_cycle",
         "stall_ratio")

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)
        print("FAIL " + what)


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def owner(name: str) -> str:
    for workload, suffixes in GROUPS.items():
        if suffixes and name.endswith(suffixes):
            return workload
    return "lib_binary"


def check_workload(workload: str, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    counts = []
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
        proc = bench(workload, trace)
        tag = f"{workload} trace {trace}"
        expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}\n{proc.stderr}")
        if proc.returncode:
            return
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{tag}: {result['failed']} of {result['attempted']} ops failed")
        metrics = result["metrics"]
        if listed is None:  # the repeat of the traced run
            counts.append({k: v["value"] for k, v in metrics.items() if k.split(".")[1] in EXACT})
            continue
        expect(set(metrics) == {m["name"] for m in listed}, f"{tag}: metric names")
        for name, m in metrics.items():
            expect(m["unit"] == units[name], f"{tag}: unit of {name}")
            if trace == 0 or (owner(name) == workload and name not in ZERO_BY_DESIGN):
                expect(m["value"] > 0, f"{tag}: {name} is {m['value']}")
        report = json.loads((HERE / "results" / f"{workload}-seed5-trace{trace}.json").read_text())
        if trace == 0:
            expect(report["hooks_installed"] == [], f"{tag}: hooks installed untraced")
        else:
            counts.append({k: v["value"] for k, v in metrics.items() if k.split(".")[1] in EXACT})
            expect(report["hooks_missing"] == [], f"{tag}: hooks missing {report['hooks_missing']}")
            check = report["self_time_check"]
            expect(check["ops"] > 0 and check["max_abs_gap_ns"] == 0,
                   f"{tag}: self times do not add up to op durations: {check}")
    expect(len(counts) == 2 and counts[0] == counts[1], f"{workload}: exact counts differ")


def check_missing_hook() -> None:
    t = tr.Tracer()
    t.install([("lamp.assoc", "no_such_function", "assoc.gone", "span"),
               ("lamp.ternary", "NoSuchClass.method", "ternary.gone", "span")])
    expect(len(t.missing) == 2 and not t._undo, "missing hooks not skipped")
    ops = tr.per_op(t.spans, t.counts)
    expect(ops.get(0, {"calls": {}})["calls"].get("assoc.gone", 0) == 0, "missing hook calls")
    t.uninstall()


def check_spec(spec: dict) -> None:
    expect(spec["command"] == ["python3", "bench/run.py"], "BENCHMARK.json command")
    expect([w["name"] for w in spec["workloads"]] == list(GROUPS), "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")


def check_without_source(spec: dict) -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = HERE / "work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            for f in (ROOT / path).glob("*.py"):
                shutil.copy(f, bare / path)
        proc = bench("lib_binary", 0, cwd=bare)
        expect(proc.returncode != 0, "runs without lamp source")
        expect('"metrics"' not in proc.stdout, "prints a result without lamp source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_missing_hook()
    check_without_source(spec)
    for workload in GROUPS:
        check_workload(workload, spec)
        print(f"ok   {workload}")
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
