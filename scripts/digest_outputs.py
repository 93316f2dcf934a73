#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed end-to-end run.

Runs, in a temporary directory and against the package in this checkout:

    negclap gen-data --seed 42                       (desk corpus, 5000/512)
    negclap train baseline and combo (--p-aug 0.6 --k 1e-2), 2 epochs, --seed 1
    negclap eval --eval-seed 777                     (each checkpoint)
    negclap sweep --quick --seed 1 --eval-seed 777

then prints one ``<sha256>  <relative path>`` line per file written, sorted
by path.  Two checkouts produce byte-identical outputs exactly when the two
listings are equal:

    python3 scripts/digest_outputs.py > digests.txt

``scripts/output_digests.txt`` is the listing the outputs must keep:

    python3 scripts/digest_outputs.py | diff - scripts/output_digests.txt
"""

import contextlib
import hashlib
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from negclap.cli import main as cli  # noqa: E402

RUNS = (
    ("baseline", []),
    ("combo", ["--p-aug", "0.6", "--k", "1e-2"]),
)


def run(root: Path) -> None:
    data = root / "data"
    steps = [["gen-data", "--seed", "42", "--out", str(data)]]
    for condition, flags in RUNS:
        out = root / condition
        steps.append(["train", "--data", str(data), "--condition", condition, *flags,
                      "--epochs", "2", "--seed", "1", "--out", str(out)])
        steps.append(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                      "--data", str(data), "--eval-seed", "777", "--label", condition,
                      "--out", str(out / "eval")])
    steps.append(["sweep", "--data", str(data), "--quick", "--seed", "1",
                  "--eval-seed", "777", "--out", str(root / "sweep")])
    for argv in steps:
        code = cli(argv)
        if code != 0:
            raise SystemExit(f"negclap {' '.join(argv)} exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        started = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):  # keep progress lines off the listing
            run(root)
        elapsed = time.perf_counter() - started
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
    print(f"# {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
