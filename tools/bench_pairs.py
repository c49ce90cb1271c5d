"""Alternating parent/change pairs of the benchmark, summarised as one file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two lamp checkouts with the same ``bench/``
and ``BENCHMARK.json``. For each seed 1..10 and each workload of
BENCHMARK.json, runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` in both, T being the benchmark's ``run_seconds``,
one after the other: the parent first on odd seeds, the change first on
even ones. Runs are sequential, so they never compete for a CPU.

The output holds, per workload and end-to-end metric: each side's median,
quartiles and IQR/median spread, the number of pairs in which the change
is better, the metric's bound from BENCHMARK.json and the change of the
median relative to the parent's; and the failed/attempted ops of each
side. It also records the machine and, per side, the git commit and a
SHA-256 of the files under ``src/``, which names the code measured even
when it was not yet committed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD, and whether ``src/`` differs from it."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return "unknown"
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes under src/" if dirty else "")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarise(spec: dict, runs: dict) -> dict:
    out = {}
    for workload, pairs in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            better = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            ps, cs = summary(parent), summary(change)
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": ps, "change": cs,
                "relative_change": cs["median"] / ps["median"] - 1,
                "pairs_change_better": better,
                "parent_runs": parent, "change_runs": change,
            }
        out[workload] = {
            "pairs": len(pairs),
            "ops": {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                           "failed": sum(p[side]["failed"] for p in pairs)}
                    for side in ("parent", "change")},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if spec != json.loads((args.parent / "BENCHMARK.json").read_text()):
        ap.error("the two checkouts have different BENCHMARK.json files")
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict = {w: [] for w in workloads}
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in workloads:
            pair = {side: run_once(roots[side], workload, seed, seconds) for side in order}
            runs[workload].append(pair)
            print(f"seed {seed} {workload}: " + "  ".join(
                f"{side} rows_per_s={pair[side]['metrics']['rows_per_s']:.6g}"
                for side in order), flush=True)
    doc = {
        "command": f"python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out {args.out.name}",
        "protocol": (f"seeds 1..{PAIRS}, one pair per seed and workload, parent first "
                     f"on odd seeds; bench/run.py --trace 0 --seconds {seconds:g}; "
                     "spread = IQR/median (inclusive quartiles)"),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform(), "processor": _cpu_model()},
        "sides": {side: {"commit": git_commit(root), "src_sha256": src_digest(root)}
                  for side, root in roots.items()},
        "workloads": summarise(spec, runs),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
