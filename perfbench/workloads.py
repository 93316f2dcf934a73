"""The three benchmark workloads: set-up, one timed repetition, and output checks.

Every workload generates the desk corpus from the workload seed, writes it to
JSONL and loads it back, so the program only ever sees the generated files.
A repetition calls the package's public entry points (``training.train`` or
``cli.main``) from this single process, one call after another (a closed loop
with one caller).  Output checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COMBO = dict(p_aug=0.6, k=1e-2)


@dataclass(frozen=True)
class Size:
    n_tags: int
    n_train: int
    n_test: int
    d_a: int
    epochs: int  # per train call on the train_* workloads and for the eval checkpoints


DESK = Size(n_tags=50, n_train=5000, n_test=512, d_a=64, epochs=1)
TOY = Size(n_tags=12, n_train=236, n_test=64, d_a=16, epochs=1)


@dataclass
class RepOutcome:
    """What one repetition did: operations attempted and failed, and its outputs."""
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)  # one per operation
    map10: float = math.nan
    r10: float = math.nan  # original-caption R@10, mean over both directions
    op_s: list[float] = field(default_factory=list)  # eval_protocols: per eval call
    problems: list[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_report(report: Path) -> tuple[list[float], list[float], list[str]]:
    """A report.csv's summary-row mAP@10s, original-caption R@10s and out-of-range values."""
    maps, recalls, problems = [], [], []
    with open(report, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            for key in ("r_at_10", "map_at_10", "acc_orig_fully", "acc_orig_half",
                        "acc_half_fully"):
                if row[key] != "" and not 0.0 <= float(row[key]) <= 1.0:
                    problems.append(f"{report.name}: {key}={row[key]} outside [0, 1]")
            if row["variant"] == "summary":
                maps.append(float(row["map_at_10"]))
            elif row["variant"] == "original":
                recalls.append(float(row["r_at_10"]))
    if not maps or not recalls:
        problems.append(f"{report.name}: no summary or no original-caption rows")
    return maps, recalls, problems


def brute_force_retrieval(sim: np.ndarray) -> tuple[float, float]:
    """mAP@10 and R@10, each the mean over both directions, counting each match's rank directly.

    Rank = 1 + (strictly greater scores) + (equal scores at a lower index),
    the package's tie rule, computed without sorting so it checks the
    package's ranking independently.
    """
    n = sim.shape[0]
    lower = np.arange(n)[None, :] < np.arange(n)[:, None]
    maps, recalls = [], []
    for m in (sim.T, sim):  # text_to_audio, audio_to_text
        diag = np.diag(m)[:, None]
        ranks = 1 + np.sum(m > diag, axis=1) + np.sum((m == diag) & lower, axis=1)
        maps.append(float(np.where(ranks <= 10, 1.0 / ranks, 0.0).mean()))
        recalls.append(float(np.mean(ranks <= 10)))
    return 0.5 * (maps[0] + maps[1]), 0.5 * (recalls[0] + recalls[1])


def _checked_retrieval(model, params, test_ds) -> tuple[float, float]:
    """brute_force_retrieval of a checkpoint on the test split, encoded by the package."""
    feats = np.stack([clip.features for clip, _ in test_ds.pairs])
    audio, _ = model.encode_audio_batch(params, feats)
    text, _ = model.encode_text_batch(params, [c for _, c in test_ds.pairs], test_ds.vocabulary)
    return brute_force_retrieval(audio @ text.T)


def _cli(negclap, argv: list[str]) -> int:
    """``negclap.cli.main(argv)`` with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return negclap.cli.main(argv)


class Workload:
    """Base: corpus set-up shared by all workloads."""

    name = ""

    def __init__(self, negclap, size: Size, seed: int, work: Path):
        self.nc = negclap
        self.size = size
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.train_ds = self.test_ds = None

    def setup_corpus(self) -> None:
        corpus = self.nc.corpus
        size = self.size
        vocab = corpus.generate_vocabulary(size.n_tags, self.seed)
        full = corpus.generate_dataset(vocab, size.n_train + size.n_test, d_a=size.d_a,
                                       rng_seed=self.seed)
        train_ds, test_ds = corpus.split_dataset(full, size.n_test)
        self.data.mkdir(parents=True, exist_ok=True)
        corpus.save_dataset(train_ds, self.data / "train.jsonl")
        corpus.save_dataset(test_ds, self.data / "test.jsonl")
        self.train_ds = corpus.load_dataset(self.data / "train.jsonl")
        self.test_ds = corpus.load_dataset(self.data / "test.jsonl")

    def setup_extra(self, untraced=contextlib.nullcontext) -> None:
        """Set-up beyond the corpus; runs once, after the last corpus set-up."""

    def rep(self) -> RepOutcome:
        raise NotImplementedError

    def check(self, outcome: RepOutcome) -> list[str]:
        """Independent checks on the last repetition's outputs; returns problems.

        Also sets ``outcome.r10`` where the program does not report it.
        """
        return []

    def clear_caches(self) -> None:
        """Start each repetition as a fresh process would: empty token-hash cache."""
        hash_bucket = getattr(self.nc.model, "hash_bucket", None)
        if hasattr(hash_bucket, "cache_clear"):
            hash_bucket.cache_clear()


class TrainWorkload(Workload):
    """One ``training.train`` call per repetition on the desk corpus."""

    condition = ""
    hyper: dict = {}

    def rep(self) -> RepOutcome:
        training = self.nc.training
        config = training.TrainConfig(condition=self.condition, seed=self.seed,
                                      epochs=self.size.epochs, **self.hyper)
        out = RepOutcome(attempted=1)
        start = time.perf_counter()
        try:
            record, logs = training.train(self.train_ds, self.test_ds, config)
        except Exception:
            out.wall_s = time.perf_counter() - start
            out.failed = 1
            out.problems.append(traceback.format_exc())
            return out
        out.wall_s = time.perf_counter() - start
        self.record = record
        losses = [v for log in logs for v in (log.l_clap, log.l_diss, log.l_total)]
        if not all(math.isfinite(v) for v in losses):
            out.failed = 1
            out.problems.append("non-finite logged loss")
        digest = hashlib.sha256(str(record.epoch).encode())
        for _, arr in record.params.items():
            digest.update(np.ascontiguousarray(arr).tobytes())
        out.digests.append(digest.hexdigest())
        out.map10 = float(record.selection_score)
        return out

    def check(self, outcome: RepOutcome) -> list[str]:
        if outcome.failed:
            return []
        # training reports no R@10, so the benchmark ranks the returned checkpoint itself
        expected, outcome.r10 = _checked_retrieval(self.nc.model, self.record.params,
                                                   self.test_ds)
        if expected != outcome.map10:
            return [f"selection score {outcome.map10!r} != brute-force mAP@10 {expected!r}"]
        return []


class TrainBaseline(TrainWorkload):
    name = "train_baseline"
    condition = "baseline"


class TrainCombo(TrainWorkload):
    name = "train_combo"
    condition = "combo"
    hyper = COMBO


class EvalProtocols(Workload):
    """``negclap eval`` over (checkpoint, eval seed) pairs; checkpoints made in set-up."""

    name = "eval_protocols"
    CHECKPOINTS = (("baseline", {}), ("combo", COMBO))
    EVAL_SEEDS = 2

    def setup_extra(self, untraced=contextlib.nullcontext) -> None:
        training, model = self.nc.training, self.nc.model
        self.checkpoints = []
        for condition, hyper in self.CHECKPOINTS:
            config = training.TrainConfig(condition=condition, seed=self.seed,
                                          epochs=self.size.epochs, **hyper)
            with untraced():
                record, _ = training.train(self.train_ds, self.test_ds, config)
            path = self.work / f"{condition}.ckpt"
            model.save_checkpoint(path, record.params)
            self.checkpoints.append(path)

    def calls(self):
        for ckpt in self.checkpoints:
            for i in range(self.EVAL_SEEDS):
                yield ckpt, 1000 * self.seed + i

    def rep(self) -> RepOutcome:
        out = RepOutcome()
        maps, recalls = [], []
        for n, (ckpt, eval_seed) in enumerate(self.calls()):
            dest = self.work / f"eval{n}"
            shutil.rmtree(dest, ignore_errors=True)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(self.data),
                    "--eval-seed", str(eval_seed), "--label", ckpt.stem, "--out", str(dest)]
            out.attempted += 1
            start = time.perf_counter()
            try:
                code = _cli(self.nc, argv)
            except Exception:
                code = None
                out.problems.append(traceback.format_exc())
            elapsed = time.perf_counter() - start
            out.op_s.append(elapsed)
            out.wall_s += elapsed
            if code != 0:
                out.failed += 1
                out.digests.append("")
                out.problems.append(f"eval exit code {code}")
                continue
            report = dest / "report.csv"
            out.digests.append(_sha(report.read_bytes()))
            summary_maps, original_recalls, problems = _read_report(report)
            if problems:
                out.failed += 1
                out.problems += problems
            maps += summary_maps
            recalls.append(float(np.mean(original_recalls)) if original_recalls else math.nan)
        self.maps, self.recalls = maps, recalls
        out.map10 = float(np.mean(maps)) if maps else math.nan
        out.r10 = float(np.mean(recalls)) if recalls else math.nan
        return out

    def check(self, outcome: RepOutcome) -> list[str]:
        if outcome.failed:
            return []
        model = self.nc.model
        problems = []
        for (ckpt, _), got_map, got_r10 in zip(self.calls(), self.maps, self.recalls):
            expected = _checked_retrieval(model, model.load_checkpoint(ckpt), self.test_ds)
            if expected != (got_map, got_r10):
                problems.append(f"{ckpt.name}: report mAP@10, R@10 {(got_map, got_r10)!r}"
                                f" != brute force {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (TrainBaseline, TrainCombo, EvalProtocols)}
