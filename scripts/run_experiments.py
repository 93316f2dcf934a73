#!/usr/bin/env python3
"""End-to-end experiment driver: corpus generation, full sweep, report files.

Produces, under the chosen output directory:

    data/train.jsonl, data/test.jsonl    the synthetic corpus
    reports/report.csv                   all conditions x variants x directions
    reports/fig_retrieval_<run>.csv      per-run retrieval curves
    reports/fig_triplet.csv              triplet accuracies across conditions

Everything is seeded; rerunning with the same flags reproduces the outputs
byte for byte.  Use --quick for a reduced grid that finishes in about a
minute.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from negclap.cli import main as cli  # noqa: E402


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=Path("experiments"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--eval-seed", type=int, default=777)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    data = args.out / "data"
    reports = args.out / "reports"

    code = cli(["gen-data", "--n-tags", "50", "--n-clips", "5512",
                "--n-test", "512", "--d-a", "64", "--seed", str(args.seed),
                "--out", str(data)])
    if code:
        return code

    sweep_flags = ["sweep", "--data", str(data), "--seed", str(args.seed),
                   "--eval-seed", str(args.eval_seed), "--out", str(reports)]
    if args.quick:
        sweep_flags.append("--quick")
    return cli(sweep_flags)


if __name__ == "__main__":
    sys.exit(run())
