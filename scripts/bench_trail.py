#!/usr/bin/env python3
"""Benchmark every workload once and write ``BENCH_<LABEL>.json`` at the repo root.

    python3 scripts/bench_trail.py LABEL

For each workload in ``BENCHMARK.json`` it runs, one after another and from
the root of this checkout,

    python3 perfbench/run.py --workload W --seed 1 --seconds <run_seconds> --trace T

with ``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer
metrics).  The final stdout line of each run is a JSON object; the output
file collects those values per workload together with the commit and the
environment the harness reported, so the ``BENCH_*.json`` files at the root
form a trend across commits.  The two traces take about 6 × (run_seconds +
set-up) seconds in all; run nothing else on the machine meanwhile.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUN_TIMEOUT_S = 900


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_workload(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """The run's final JSON line and the environment from its result file."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    print("running " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    final = json.loads(lines[-1])
    result = ROOT / ".perfbench-out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return final, json.loads(result.read_text())["environment"]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0] or "/" in argv[0]:
        print("usage: bench_trail.py LABEL", file=sys.stderr)
        return 2
    label = argv[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads, environment = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end, environment = run_workload(workload, seconds, trace=0)
        per_layer, _ = run_workload(workload, seconds, trace=1)
        workloads[workload] = {
            "correct": end_to_end["correct"] and per_layer["correct"],
            "attempted": end_to_end["attempted"],
            "failed": end_to_end["failed"],
            "end_to_end": end_to_end["metrics"],
            "per_layer": per_layer["metrics"],
        }
    trail = {
        "label": label,
        "commit": _git("rev-parse", "HEAD"),
        "tracked_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": seconds,
        "environment": environment,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(trail, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
