"""Command-line entry point for reproducible experiment runs.

Subcommands: gen-data, augment, train, eval, sweep.  Every command is a
deterministic function of its flags and input files; seeds are mandatory so
no run ever depends on the wall clock.  Exit codes: 0 success, 1 runtime or
I/O error, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import corpus, evaluation, model, negation, training
from .seeding import seeded_rng

TRAIN_FILE = "train.jsonl"
TEST_FILE = "test.jsonl"
CHECKPOINT_FILE = "checkpoint.ckpt"
TRAIN_LOG_FILE = "train_log.csv"

_QUICK_TRAIN_PAIRS = 1000
_QUICK_EPOCHS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negclap",
        description="Synthetic-corpus laboratory for negation handling in "
                    "joint audio-text contrastive embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus and write train/test JSONL")
    p.add_argument("--n-tags", type=int, default=50)
    p.add_argument("--n-clips", type=int, default=5512)
    p.add_argument("--n-test", type=int, default=512)
    p.add_argument("--d-a", type=int, default=64)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--tags-min", type=int, default=2)
    p.add_argument("--tags-max", type=int, default=4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("augment", help="apply a negation transform to a dataset (debugging aid)")
    p.add_argument("--data", type=Path, required=True, help="input dataset JSONL")
    p.add_argument("--op", choices=["insert", "half", "fully"], required=True)
    p.add_argument("--p-aug", type=float, default=1.0, help="insert probability (op=insert)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="output dataset JSONL")

    p = sub.add_parser("train", help="train one condition and write checkpoint + log CSV")
    p.add_argument("--data", type=Path, required=True,
                   help=f"directory holding {TRAIN_FILE} and {TEST_FILE}")
    p.add_argument("--condition", choices=["baseline", "text-aug", "loss-term", "combo"],
                   required=True)
    p.add_argument("--p-aug", type=float, default=0.0)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("eval", help="run both negation protocols on a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True,
                   help=f"directory holding {TEST_FILE} (or a dataset file)")
    p.add_argument("--eval-seed", type=int, required=True)
    p.add_argument("--label", default="model", help="condition label used in output files")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("sweep", help="train and evaluate the full condition grid")
    p.add_argument("--data", type=Path, required=True,
                   help=f"directory holding {TRAIN_FILE} and {TEST_FILE}")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eval-seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--quick", action="store_true",
                   help="small grids, <= 1000 train pairs, 3 epochs (CI budget)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _cmd_gen_data(args) -> int:
    if args.n_test >= args.n_clips:
        raise ValueError("--n-test must be smaller than --n-clips")
    _check_out_dir(args.out)
    vocab = corpus.generate_vocabulary(args.n_tags, args.seed)
    dataset = corpus.generate_dataset(
        vocab, args.n_clips, tags_per_clip=(args.tags_min, args.tags_max),
        d_a=args.d_a, noise_sigma=args.noise_sigma, rng_seed=args.seed,
    )
    train_ds, test_ds = corpus.split_dataset(dataset, args.n_test)
    args.out.mkdir(parents=True, exist_ok=True)
    corpus.save_dataset(train_ds, args.out / TRAIN_FILE)
    corpus.save_dataset(test_ds, args.out / TEST_FILE)
    print(f"wrote {len(train_ds)} train pairs to {args.out / TRAIN_FILE}")
    print(f"wrote {len(test_ds)} test pairs to {args.out / TEST_FILE}")
    return 0


def _cmd_augment(args) -> int:
    if not 0.0 <= args.p_aug <= 1.0:
        raise ValueError("--p-aug must lie in [0, 1]")
    if args.out.is_dir():
        raise ValueError(f"--out {args.out} is a directory, not a dataset file")
    _check_out_dir(args.out.parent)
    # half and fully outputs break the caption-tags == clip-tags rule on
    # purpose; no command reads them back, only
    # load_dataset(..., check_tag_consistency=False) does
    dataset = corpus.load_dataset(args.data)
    captions, skipped = negation.edit_ids(
        args.op, dataset.captions, model.TokenTable(dataset.vocabulary, dataset.words),
        args.p_aug, seeded_rng(args.seed, 0))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    corpus.save_dataset(dataclasses.replace(dataset, captions=captions), args.out)
    print(f"wrote {len(dataset)} pairs to {args.out}" +
          (f" ({skipped} items had no unused tag)" if skipped else ""))
    return 0


def _load_split_dir(data: Path) -> tuple[corpus.Dataset, corpus.Dataset]:
    """The splits in ``data``, refused naming both files unless ``check_splits`` passes."""
    paths = (data / TRAIN_FILE, data / TEST_FILE)
    train_ds, test_ds = map(corpus.load_dataset, paths)
    try:
        corpus.check_splits(train_ds, test_ds)
    except ValueError as e:
        raise ValueError(f"{paths[0]} and {paths[1]}: {e}") from e
    return train_ds, test_ds


def _check_out_dir(out: Path) -> None:
    """Refuse, before any work and creating nothing, an --out that cannot be a directory."""
    nearest = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not nearest.is_dir():
        raise ValueError(f"--out {out}: {nearest} exists and is not a directory")


def _cmd_train(args) -> int:
    config = training.TrainConfig(
        condition=args.condition.replace("-", "_"), seed=args.seed, p_aug=args.p_aug,
        k=args.k, batch_size=args.batch_size, epochs=args.epochs, learning_rate=args.lr,
    )
    _check_out_dir(args.out)
    train_ds, test_ds = _load_split_dir(args.data)
    record, logs = training.train(train_ds, test_ds, config)
    args.out.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(args.out / CHECKPOINT_FILE, record.params)
    training.write_train_log_csv(args.out / TRAIN_LOG_FILE, logs)
    print(f"best epoch {record.epoch} (avg mAP@10 {record.selection_score:.4f}); "
          f"checkpoint at {args.out / CHECKPOINT_FILE}")
    return 0


def _cmd_eval(args) -> int:
    # the label is part of an output file name and fills the reports' condition
    # column, so it must be nonempty and must not name a directory
    if not args.label:
        raise ValueError("--label must not be empty")
    if "/" in args.label or "\0" in args.label:
        raise ValueError(f"--label must not contain '/' or NUL, got {args.label!r}")
    _check_out_dir(args.out)
    test_path = args.data / TEST_FILE if args.data.is_dir() else args.data
    test_ds = corpus.load_dataset(test_path)
    params = model.load_checkpoint(args.checkpoint)
    if params.dims.d_a != test_ds.features.shape[1]:
        raise ValueError(f"checkpoint {args.checkpoint} has d_a {params.dims.d_a}, but the "
                         f"features of {test_path} have width {test_ds.features.shape[1]}")
    variants = evaluation.build_eval_variants(test_ds, args.eval_seed)
    embeddings = evaluation.embed_eval_variants(params, test_ds, variants)
    retrieval = evaluation.retrieval_protocol(embeddings)
    triplet = evaluation.triplet_protocol(embeddings)
    args.out.mkdir(parents=True, exist_ok=True)
    # a single-checkpoint eval has no training hyperparameters
    rows = evaluation.report_rows(args.label, "", "", retrieval, triplet)
    evaluation.write_report_csv(args.out / "report.csv", rows)
    evaluation.write_fig_retrieval_csv(args.out / f"fig_retrieval_{args.label}.csv", retrieval)
    evaluation.write_fig_triplet_csv(args.out / "fig_triplet.csv", [(args.label, "", triplet)])
    print(f"wrote report to {args.out / 'report.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    _check_out_dir(args.out)
    train_ds, test_ds = _load_split_dir(args.data)
    epochs = args.epochs
    p_aug_grid = training.DEFAULT_P_AUG_GRID
    k_grid = training.DEFAULT_K_GRID
    if args.quick:
        epochs = min(epochs, _QUICK_EPOCHS)
        p_aug_grid = training.QUICK_P_AUG_GRID
        k_grid = training.QUICK_K_GRID
        if len(train_ds) > _QUICK_TRAIN_PAIRS:
            train_ds = train_ds.slice(0, _QUICK_TRAIN_PAIRS)
    configs = training.sweep_configs(args.seed, p_aug_grid, k_grid, args.batch_size,
                                     epochs, args.lr)
    rows = training.sweep(train_ds, test_ds, configs, eval_seed=args.eval_seed)
    training.write_sweep_outputs(rows, args.out)
    print(f"swept {len(rows)} configurations; report at {args.out / 'report.csv'}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "augment": _cmd_augment,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (corpus.DatasetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
