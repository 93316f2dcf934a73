"""negclap benchmark entry point.

Run from the root of a negclap checkout:

    python3 perfbench/run.py --workload train_baseline --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the current directory, builds the
workload's inputs from ``--seed``, repeats the workload for ``--seconds``
seconds in this one process, checks the outputs, and prints a table of
metrics followed by one JSON line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run that
alternates untraced and traced repetitions.  Scratch files, the full results
and the span log go under ``.perfbench-out/`` in the current directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single closed-loop caller on one core,
# and a fixed thread count keeps runs comparable across machines.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from tracer import MODULES, Instrumentation, Tracer, write_spans  # noqa: E402
from workloads import DESK, TOY, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = Path(".perfbench-out")

# (name, unit); the metrics BENCHMARK.json bounds, defined on every workload
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("r10", "1"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy corpus instead of the desk corpus (smoke test)")
    return parser.parse_args(argv)


def _import_package(root: Path):
    """negclap from ``root/src``; None when the checkout does not hold it."""
    src = (root / "src").resolve()
    if not (src / "negclap" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    package = importlib.import_module("negclap")
    for module in MODULES:
        importlib.import_module(f"negclap.{module}")
    if not Path(package.__file__).resolve().is_relative_to(src):
        return None
    return package


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the directory."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "machine": platform.machine(),
    }


@contextlib.contextmanager
def _traced(tracer: Tracer, package):
    """Package wrapped and the tracer recording, for the duration of the block."""
    inst = Instrumentation(tracer, package)
    layers.instrument(inst)
    tracer.reset()
    tracer.active = True
    try:
        yield inst
    finally:
        tracer.active = False
        inst.remove()


def _hash_cache_info(package):
    info = getattr(getattr(package.model, "hash_bucket", None), "cache_info", None)
    return info() if info else None


def _mark_digest_mismatches(outcomes) -> None:
    """Operations whose output differs from the first repetition's count as failed."""
    reference = outcomes[0].digests
    for out in outcomes[1:]:
        for i, (ref, got) in enumerate(zip(reference, out.digests)):
            if ref and got and ref != got:
                out.failed += 1
                out.problems.append(f"operation {i}: output digest {got[:12]} != {ref[:12]}")


def _run_untraced(wl, seconds: float) -> dict:
    cal = calibrate.Calibration()
    setup_times, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup_corpus()
        setup_times.append(time.perf_counter() - start)
        setup_ref.append(cal.at_reference(setup_times[-1]))
    start = time.perf_counter()
    wl.setup_extra()
    extra_s = time.perf_counter() - start
    extra_ref = cal.at_reference(extra_s)

    outcomes, rep_ref = [], []
    start = time.perf_counter()
    while True:
        wl.clear_caches()
        outcomes.append(wl.rep())
        rep_ref.append(cal.at_reference(outcomes[-1].wall_s))
        # start no repetition that would end past the measuring time
        if time.perf_counter() - start + outcomes[-1].wall_s > seconds:
            break
    return {"setup_times_s": setup_times, "setup_extra_s": extra_s, "outcomes": outcomes,
            "setup_ref_s": statistics.median(setup_ref) + extra_ref,
            "rep_ref_s": rep_ref, "calibration": cal}


def _run_traced(wl, package, seconds: float) -> dict:
    tracer = Tracer()
    sections = []
    with _traced(tracer, package) as inst:
        start = time.perf_counter()
        wl.setup_corpus()
        wl.setup_extra(untraced=tracer.paused)
        setup_wall = time.perf_counter() - start
        missing = inst.missing
    setup_summary = tracer.summary()
    sections.append(("setup", tracer.spans))

    outcomes, summaries = [], []
    walls = {False: [], True: []}
    start = time.perf_counter()
    while True:
        trace_this = len(outcomes) % 2 == 1  # untraced first, then alternate
        wl.clear_caches()
        if trace_this:
            with _traced(tracer, package):
                before = _hash_cache_info(package)
                out = wl.rep()
                after = _hash_cache_info(package)
            if before and after:
                tracer.counts["model.hash_bucket.hits"] += after.hits - before.hits
                tracer.counts["model.hash_bucket.misses"] += after.misses - before.misses
            summaries.append(tracer.summary())
            sections.append((f"rep{len(outcomes)}", tracer.spans))
        else:
            out = wl.rep()
        walls[trace_this].append(out.wall_s)
        outcomes.append(out)
        if len(outcomes) >= 2 and time.perf_counter() - start + out.wall_s > seconds:
            break

    problems = []
    if any(layers.counts_signature(s) != layers.counts_signature(summaries[0])
           for s in summaries[1:]):
        problems.append("per-layer counts differ between traced repetitions")
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics = layers.layer_metrics(setup_summary, summaries, setup_wall, walls[True], overhead)
    return {"outcomes": outcomes, "metrics": metrics, "sections": sections,
            "missing": missing, "problems": problems,
            "traced_walls_s": walls[True], "untraced_walls_s": walls[False]}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    package = _import_package(root)
    if package is None:
        print(f"error: no negclap package under {root / 'src'}", file=sys.stderr)
        return 2
    size = TOY if args.toy else DESK
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{label}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](package, size, args.seed, work)
    try:
        if args.trace:
            run = _run_traced(wl, package, args.seconds)
        else:
            run = _run_untraced(wl, args.seconds)
        outcomes = run["outcomes"]
        _mark_digest_mismatches(outcomes)
        problems = run.get("problems", []) + [p for o in outcomes for p in o.problems]
        failed_ops = sum(o.failed for o in outcomes)
        if not outcomes[-1].failed:
            problems += wl.check(outcomes[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes[0].digests).encode()).hexdigest()
    walls = [o.wall_s for o in outcomes]
    report = {  # name -> (value, unit); every figure the run measured
        "failed_frac": (failed_ops / attempted, "1"),
        "repetitions": (len(outcomes), "count"),
    }
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, value in run["metrics"].items():
            report[name] = (value, units[name])
        reported = [name for name, _, _ in layers.PER_LAYER]
    else:
        report["setup_s"] = (run["setup_ref_s"], "s")
        report["wall_ref_s"] = (statistics.median(run["rep_ref_s"]), "s")
        report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                 "MiB")
        # a failed repetition has no score; correct is false then anyway
        last = outcomes[-1]
        report["r10"] = (0.0 if last.failed else last.r10, "1")
        report["map10"] = (0.0 if last.failed else last.map10, "1")
        report["setup_wall_s"] = (statistics.median(run["setup_times_s"])
                                  + run["setup_extra_s"], "s")
        report["wall_s"] = (statistics.median(walls), "s")
        report["host_speed"] = (run["calibration"].host_speed(), "1")
        if args.workload.startswith("train_"):
            pairs = size.epochs * size.n_train
            report["train_pairs_per_s"] = (pairs / report["wall_s"][0], "pairs/s")
        eval_s = [t for o in outcomes for t in o.op_s]
        if eval_s:
            report["eval_s_p50"] = (statistics.median(eval_s), "s")
            report["eval_s_max"] = (max(eval_s), "s")
            report["eval_calls"] = (len(eval_s), "count")
        reported = [name for name, _ in END_TO_END]
    correct = failed_ops == 0 and not problems

    env = _environment(root)
    print(f"negclap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={'toy' if args.toy else 'desk'}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations: {attempted} attempted, {failed_ops} failed; output digest {digest}")
    for name, (value, unit) in report.items():
        exact = "  (exact count)" if name in layers.EXACT else ""
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<46} {shown} {unit}{exact}")
    if args.trace and run["missing"]:
        print("not found in the package, reported as 0: " + ", ".join(run["missing"]))
    for problem in problems:
        print("problem: " + problem.strip())

    results = {
        "args": vars(args), "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed_ops, "output_digest": digest,
        "operation_digests": outcomes[0].digests, "repetition_walls_s": walls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "exact_counts": [n for n in layers.EXACT if n in report],
        "problems": problems,
    }
    if args.trace:
        results["missing"] = run["missing"]
        results["traced_walls_s"] = run["traced_walls_s"]
        results["untraced_walls_s"] = run["untraced_walls_s"]
        write_spans(OUT_DIR / f"spans-{label}.jsonl", run["sections"])
    else:
        results["setup_times_s"] = run["setup_times_s"]
        results["setup_extra_s"] = run["setup_extra_s"]
        results["repetition_ref_s"] = run["rep_ref_s"]
        results["calibration_kernel_s"] = run["calibration"].samples
    (OUT_DIR / f"result-{label}.json").write_text(json.dumps(results, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed_ops,
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
