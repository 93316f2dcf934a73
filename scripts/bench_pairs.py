#!/usr/bin/env python3
"""Compare two commits on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B [--trace T]

It makes a local ``git clone`` of each commit of this repository in a
temporary directory.  For each seed N from A to B (one pair per seed) it runs

    python3 perfbench/run.py --workload W --seed N --seconds <run_seconds> --trace T

once in each clone, with ``run_seconds`` from ``BENCHMARK.json``: the parent
first in odd pairs (the first, third, ...) and the change first in even
ones, so a drift in host speed falls on both sides.  T is 0 unless given.

With ``--trace 0``, for each end-to-end metric of ``BENCHMARK.json`` it then
prints the per-pair values (parent/change), both medians, the parent's
quartiles, in how many pairs the change read better, and whether the medians
differ by more than the parent's quartile distance; then whether ``r10`` was
equal in every pair.  With ``--trace 1`` it prints, for each per-layer
metric of ``BENCHMARK.json``, the parent's and the change's median.  Last it
prints whether both runs of every pair wrote the same output digest
(``output_digest`` of each clone's
``.perfbench-out/result-<workload>-seed<N>-trace<T>.json``), and whether
every run was correct.  The clones are removed and no run is left behind,
also when the script is interrupted.  A pair takes
about 2 × (run_seconds + set-up) seconds; run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _seeds(text: str) -> range:
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"expected A-B with integers A <= B, got {text!r}")
    return range(int(first), int(last) + 1)


def _clone(commit: str, into: Path) -> Path:
    """A checkout of ``commit`` at ``into``, sharing this repository's objects."""
    _git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(into))
    _git("checkout", "--quiet", "--detach", commit, cwd=into)
    return into


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run in ``checkout``, with the
    run's ``output_digest`` from its result file added."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout.name} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    final = json.loads(lines[-1])
    result = checkout / ".perfbench-out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    final["output_digest"] = json.loads(result.read_text())["output_digest"]
    return final


def _summary(name: str, unit: str, better: str, parent: list[float],
             change: list[float]) -> list[str]:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    moved = (c_med - p_med) / p_med * 100 if p_med else float("nan")
    resolved = abs(c_med - p_med) > q3 - q1
    return [
        f"{name} ({unit}, {better} is better)",
        "  pairs parent/change: " + " ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(parent, change)),
        f"  median {p_med:.4g} [parent quartiles {q1:.4g}, {q3:.4g}] -> {c_med:.4g} "
        f"({moved:+.1f} %); the change read better in {wins}/{len(parent)} pairs",
        f"  medians differ by {abs(c_med - p_med):.4g} against a parent quartile distance of "
        f"{q3 - q1:.4g}: {'more' if resolved else 'not more'}",
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B: one pair per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of BENCHMARK.json's workloads, "
                     f"got {args.workload!r}")
    seconds = spec["run_seconds"]
    commits = {}
    for side in ("parent", "change"):
        rev = getattr(args, side)
        try:
            commits[side] = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"{side} {rev!r} is not a commit of {ROOT}")

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        clones = {side: _clone(commit, Path(tmp) / side) for side, commit in commits.items()}
        for number, seed in enumerate(args.seeds, start=1):
            order = ("parent", "change") if number % 2 else ("change", "parent")
            for side in order:
                final = _run(clones[side], args.workload, seed, seconds, args.trace)
                results[side].append(final)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in final["metrics"].items())
                print(f"pair {number}/{len(args.seeds)} seed {seed} {side}: {shown}",
                      file=sys.stderr, flush=True)

    print(f"{args.workload}: parent {commits['parent'][:7]}, change {commits['change'][:7]}, "
          f"seeds {args.seeds.start}-{args.seeds.stop - 1}, {seconds:g} s per run")
    equal = {"output digest": lambda run: run["output_digest"]}
    if args.trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            p_med, c_med = (statistics.median(r["metrics"][name]["value"] for r in results[side])
                            for side in ("parent", "change"))
            print(f"{name} ({metric['unit']}, {metric['better']} is better): "
                  f"median {p_med:.4g} -> {c_med:.4g}")
    else:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs]
                      for side, runs in results.items()}
            print("\n".join(_summary(name, metric["unit"], metric["better"],
                                     values["parent"], values["change"])))
        equal = {"r10": lambda run: run["metrics"]["r10"]["value"], **equal}
    for name, value in equal.items():
        unequal = [i for i, (p, c) in enumerate(zip(results["parent"], results["change"]),
                                                start=1) if value(p) != value(c)]
        print(f"{name} equal in every pair: " + ("yes" if not unequal else
                                                  f"no (pairs {', '.join(map(str, unequal))})"))
    runs = results["parent"] + results["change"]
    print(f"runs: {sum(r['correct'] for r in runs)} of {len(runs)} correct, "
          f"{sum(r['failed'] for r in runs)} failed operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
