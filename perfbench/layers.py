"""Which package functions the traced run wraps, and the per-layer metrics it derives.

Layers are the package modules.  Times are per run unit: the traced set-up
plus the mean over traced repetitions.  Counts come from the set-up plus the
first traced repetition and must repeat exactly in every later one.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import MODULES, Instrumentation, SpanSummary, Tracer

PROTOCOLS = ("evaluation.retrieval_protocol", "evaluation.triplet_protocol")

# (name, unit, better); "count" and "ratio" units are exact counts or ratios of
# exact counts: they repeat bit for bit for a given seed and code.
PER_LAYER = [
    ("corpus.generate_dataset.s", "s", "lower"),
    ("corpus.save_dataset.s", "s", "lower"),
    ("corpus.load_dataset.s", "s", "lower"),
    ("corpus.jsonl_bytes", "count", "lower"),
    ("corpus.render_caption.calls", "count", "lower"),
    ("corpus.render_caption.self_s", "s", "lower"),
    ("negation.apply_augmentation.calls", "count", "lower"),
    ("negation.apply_augmentation.self_s", "s", "lower"),
    ("negation.fully_negate.calls", "count", "lower"),
    ("negation.fully_negate.self_s", "s", "lower"),
    ("negation.half_negate.calls", "count", "lower"),
    ("negation.half_negate.self_s", "s", "lower"),
    ("negation.augmented", "count", "higher"),
    ("negation.exhausted", "count", "lower"),
    ("negation.aug_useful_ratio", "ratio", "higher"),
    ("model.encode_text_batch.calls", "count", "lower"),
    ("model.encode_text_batch.rows", "count", "lower"),
    ("model.encode_text_batch.self_s", "s", "lower"),
    ("model.encode_token_lists.self_s", "s", "lower"),
    ("model.hash_bucket.hit_ratio", "ratio", "higher"),
    ("model.encode_audio_batch.calls", "count", "lower"),
    ("model.encode_audio_batch.rows", "count", "lower"),
    ("model.encode_audio_batch.self_s", "s", "lower"),
    ("model.model_backward.calls", "count", "lower"),
    ("model.model_backward.self_s", "s", "lower"),
    ("model.ParamGrads.zeros_like.self_s", "s", "lower"),
    ("model.table_rows_touched_ratio", "ratio", "lower"),
    ("model.save_checkpoint.s", "s", "lower"),
    ("model.load_checkpoint.s", "s", "lower"),
    ("objective.total_loss.calls", "count", "lower"),
    ("objective.total_loss.self_s", "s", "lower"),
    ("objective.total_loss_through_encoders.self_s", "s", "lower"),
    ("training.train_step.calls", "count", "lower"),
    ("training.train_step.self_s", "s", "lower"),
    ("training.step_ms_p50", "ms", "lower"),
    ("training.step_ms_p99", "ms", "lower"),
    ("training.AdamOptimizer.step.self_s", "s", "lower"),
    ("training.selection.s", "s", "lower"),
    ("evaluation.build_eval_variants.s", "s", "lower"),
    ("evaluation.retrieval_protocol.self_s", "s", "lower"),
    ("evaluation.triplet_protocol.self_s", "s", "lower"),
    ("evaluation.rank.self_s", "s", "lower"),
    ("evaluation.write_reports.s", "s", "lower"),
    ("evaluation.audio_encodes_per_eval", "count", "lower"),
    ("evaluation.text_rows_per_eval", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.nonzero_exits", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in MODULES] + [
    ("tracing.spans", "count", "lower"),
    ("tracing.wall_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]

EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")]


def _count(key, measure):
    def hook(tracer: Tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return hook


def _in_protocol(key, measure):
    """Count only calls made from inside a negation protocol."""
    def hook(tracer: Tracer, args, result):
        if tracer.inside(PROTOCOLS):
            tracer.counts[key] += measure(args, result)
    return hook


def _both(*hooks):
    def hook(tracer, args, result):
        for h in hooks:
            h(tracer, args, result)
    return hook


def _touched(tracer: Tracer, args, grads):
    rows = [getattr(grads, a, None) for a in ("touched_unigram_rows", "touched_bigram_rows")]
    if any(r is None for r in rows):
        return
    tracer.counts["model.touched_rows"] += sum(len(r) for r in rows)
    tracer.counts["model.table_rows"] += 2 * args[0].dims.hash_buckets


def _epoch_logs(tracer: Tracer, args, result):
    for log in result[1]:
        tracer.counts["negation.augmented"] += getattr(log, "n_augmented", 0)
        tracer.counts["negation.exhausted"] += getattr(log, "n_aug_exhausted", 0)


def instrument(inst: Instrumentation) -> None:
    """Wrap every traced function; missing ones are listed in ``inst.missing``."""
    f = inst.function
    f("corpus", "generate_dataset")
    f("corpus", "save_dataset",
      hook=_count("corpus.jsonl_bytes", lambda args, _: os.path.getsize(args[1])))
    f("corpus", "load_dataset")
    inst.lookup("model", "render_caption", "corpus.render_caption")
    for name in ("apply_augmentation", "fully_negate", "half_negate"):
        f("negation", name)
    f("model", "encode_text_batch", hook=_both(
        _count("model.encode_text_batch.rows", lambda _, result: len(result[0])),
        _in_protocol("protocol_text_rows", lambda _, result: len(result[0]))))
    f("model", "encode_token_lists")
    f("model", "encode_audio_batch", hook=_both(
        _count("model.encode_audio_batch.rows", lambda _, result: len(result[0])),
        _in_protocol("protocol_audio_encodes", lambda _, result: 1)))
    f("model", "model_backward", hook=_touched)
    inst.method("model", "ParamGrads", "zeros_like")
    f("model", "save_checkpoint")
    f("model", "load_checkpoint")
    f("objective", "total_loss")
    f("objective", "total_loss_through_encoders")
    f("training", "train", hook=_epoch_logs)
    f("training", "train_step")
    inst.method("training", "AdamOptimizer", "step")
    for name in ("build_eval_variants", "retrieval_protocol", "triplet_protocol"):
        f("evaluation", name)
    f("evaluation", "recall_at_k", "evaluation.rank")
    f("evaluation", "map_at_10", "evaluation.rank")
    for name in ("write_report_csv", "write_fig_retrieval_csv", "write_fig_triplet_csv"):
        f("evaluation", name, "evaluation.write_reports")
    f("cli", "main", hook=_count("cli.main.nonzero_exits", lambda _, code: int(code != 0)))
    # per-epoch checkpoint selection, wrapped where training looks the names up;
    # done last so these spans enclose the model and evaluation spans
    for name in ("encode_audio_batch", "encode_text_batch", "map_at_10"):
        inst.lookup("training", name, "training.selection")
    inst.method("model", "ModelParams", "copy", name="training.selection")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: SpanSummary, reps: list[SpanSummary], setup_wall_s: float,
                  rep_walls_s: list[float], overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the traced set-up and the traced repetitions."""
    first = reps[0]

    def time_of(table: str, name: str) -> float:
        per_rep = [getattr(r, table)[name] for r in reps]
        return getattr(setup, table)[name] + float(np.mean(per_rep))

    def calls(name: str) -> int:
        return setup.calls[name] + first.calls[name]

    def count(key: str) -> int:
        return setup.counts[key] + first.counts[key]

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls(base)
        elif kind == "self_s" and base in MODULES:
            names = set(setup.self_s) | {n for r in reps for n in r.self_s}
            out[name] = sum(time_of("self_s", n) for n in names if n.startswith(base + "."))
        elif kind == "self_s":
            out[name] = time_of("self_s", base)
        elif kind == "s":
            out[name] = time_of("total_s", base)
        elif name in setup.counts or name in first.counts:
            out[name] = count(name)
    steps = [1e3 * d for r in reps for d in r.durations["training.train_step"]]
    protocol_runs = calls("evaluation.retrieval_protocol")
    out.update({
        "negation.aug_useful_ratio": _ratio(count("negation.augmented"),
                                            calls("negation.apply_augmentation")),
        "model.hash_bucket.hit_ratio": _ratio(
            count("model.hash_bucket.hits"),
            count("model.hash_bucket.hits") + count("model.hash_bucket.misses")),
        "model.table_rows_touched_ratio": _ratio(count("model.touched_rows"),
                                                 count("model.table_rows")),
        "training.step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "training.step_ms_p99": float(np.percentile(steps, 99)) if steps else 0.0,
        "evaluation.audio_encodes_per_eval": _ratio(count("protocol_audio_encodes"),
                                                    protocol_runs),
        "evaluation.text_rows_per_eval": _ratio(count("protocol_text_rows"), protocol_runs),
        "tracing.spans": setup.spans + first.spans,
        "tracing.wall_s": setup_wall_s + float(np.mean(rep_walls_s)),
        "tracing.overhead_s": overhead_s,
    })
    return {name: out.get(name, 0) for name, _, _ in PER_LAYER}


def counts_signature(summary: SpanSummary) -> tuple:
    """Everything in a repetition's summary that must repeat exactly."""
    return (sorted(summary.calls.items()), sorted(summary.counts.items()), summary.spans)
