"""Training loop, checkpoint selection, and hyperparameter sweeps.

Four experimental conditions share one loop:

* ``baseline``   plain contrastive training (p_aug = 0, k = 0)
* ``text_aug``   captions pass through the insert augmentation with p_aug
* ``loss_term``  adds the dissimilarity term with weight k (no augmentation)
* ``combo``      both at once; the dissimilarity anchors stay on the
                 original captions, not the augmented ones

Fully negated counterparts for the dissimilarity term are regenerated every
epoch from the epoch stream, so the term sees fresh negator draws.  The best
checkpoint is the epoch with the highest average mAP@10 over both retrieval
directions on the test split (ties go to the earlier epoch).  Runs are
bitwise deterministic given the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Caption, Dataset, Vocabulary
from .evaluation import (
    RetrievalReport,
    TripletReport,
    build_eval_variants,
    embed_eval_variants,
    map_at_10,
    report_rows,
    retrieval_protocol,
    triplet_protocol,
    write_fig_retrieval_csv,
    write_fig_triplet_csv,
    write_report_csv,
)
from .model import (
    LOG_TEMPERATURE_MAX,
    LOG_TEMPERATURE_MIN,
    DENSE_FIELDS,
    TABLE_FIELDS,
    CaptionIds,
    ModelDims,
    ModelParams,
    ParamGrads,
    TokenIndex,
    encode_audio_batch,
    encode_token_lists,
    init_params,
)
from .negation import AugmentationConfig, AugmentationExhausted, apply_augmentation, fully_negate
from .objective import LossBreakdown, total_loss_through_encoders
from .seeding import seeded_rng, spawn_seed

CONDITIONS = ("baseline", "text_aug", "loss_term", "combo")

DEFAULT_P_AUG_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_K_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_COMBO_P_AUG = 0.6

QUICK_P_AUG_GRID = (0.6, 1.0)
QUICK_K_GRID = (1e-2, 1e-3)

_INIT_STREAM = 11
_EPOCH_STREAM = 12
_SHUFFLE_STREAM = 13

LOG_COLUMNS = ("epoch", "l_clap", "l_diss", "l_total", "k", "p_aug",
               "map10_t2a", "map10_a2t", "map10_avg")


@dataclass(frozen=True)
class TrainConfig:
    condition: str
    seed: int
    p_aug: float = 0.0
    k: float = 0.0
    batch_size: int = 8
    epochs: int = 10
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if not 0.0 <= self.p_aug <= 1.0:
            raise ValueError(f"p_aug must lie in [0, 1], got {self.p_aug}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.condition == "baseline" and (self.p_aug != 0.0 or self.k != 0.0):
            raise ValueError("baseline requires p_aug = 0 and k = 0")
        if self.condition == "text_aug" and self.k != 0.0:
            raise ValueError("text_aug requires k = 0")
        if self.condition == "loss_term" and self.p_aug != 0.0:
            raise ValueError("loss_term requires p_aug = 0")
        if self.condition == "combo" and not (self.p_aug > 0.0 and self.k > 0.0):
            raise ValueError("combo requires p_aug > 0 and k > 0")


@dataclass
class CheckpointRecord:
    epoch: int
    params: ModelParams
    selection_score: float  # average mAP@10 over both directions


@dataclass
class EpochLog:
    epoch: int
    l_clap: float
    l_diss: float
    l_total: float
    k: float
    p_aug: float
    map10_t2a: float
    map10_a2t: float
    map10_avg: float
    n_augmented: int = 0
    n_aug_exhausted: int = 0


@dataclass
class EpochCounters:
    augmented: int = 0
    exhausted: int = 0


@dataclass
class AdamOptimizer:
    """Adam for the dense parameters, momentum-free Adam for the hash tables.

    Plain fixed-rate SGD cannot realize the dissimilarity term at desk
    scale: its gradients carry no temperature factor and stay orders of
    magnitude below the contrastive ones, so no weight in the sweep grid
    moves the model (and raising the rate only accelerates the contrastive
    term).  Adam's per-parameter normalization lets small coherent
    gradients, exactly what the term produces on negator-related rows,
    advance at full step size.

    The tables run with beta1 = 0 so rows without gradient stay exactly
    frozen; their second moments decay lazily (per-row last-touch
    bookkeeping), which makes the sparse row update identical to the dense
    computation while touching only the rows a batch used.
    """

    m: np.ndarray  # dense parameters' moments, flat in DENSE_FIELDS order
    v: np.ndarray
    table_v: dict
    table_last: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamOptimizer":
        size = sum(getattr(params, n).size for n in DENSE_FIELDS)
        return cls(
            m=np.zeros(size),
            v=np.zeros(size),
            table_v={n: np.zeros_like(getattr(params, n)) for n in TABLE_FIELDS},
            table_last={n: np.zeros(getattr(params, n).shape[0], dtype=np.int64)
                        for n in TABLE_FIELDS},
        )

    def step(self, params: ModelParams, grads: ParamGrads, learning_rate: float) -> None:
        self.t += 1
        m_corr = 1.0 - self.beta1 ** self.t
        v_corr = 1.0 - self.beta2 ** self.t
        # one pass over all dense entries: the same elementwise operations as
        # a per-parameter update, so the result is bit-identical to it
        g = np.concatenate([getattr(grads, n).ravel() for n in DENSE_FIELDS])
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        update = learning_rate * (self.m / m_corr) / (np.sqrt(self.v / v_corr) + self.eps)
        start = 0
        for name in DENSE_FIELDS:
            p = getattr(params, name)
            p -= update[start:start + p.size].reshape(p.shape)
            start += p.size
        for name in TABLE_FIELDS:
            rows, g = getattr(grads, name).rows, getattr(grads, name).values
            table = getattr(params, name)
            decay = self.beta2 ** (self.t - self.table_last[name][rows])
            v = self.table_v[name][rows] * decay[:, None]
            v += (1.0 - self.beta2) * g * g
            self.table_v[name][rows] = v
            self.table_last[name][rows] = self.t
            table[rows] -= learning_rate * g / (np.sqrt(v / v_corr) + self.eps)
        np.clip(params.log_temperature, LOG_TEMPERATURE_MIN, LOG_TEMPERATURE_MAX,
                out=params.log_temperature)


def make_batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Index batches from a seeded shuffle; the final partial batch is dropped.

    The shuffle is exactly np.random.default_rng(epoch_seed).permutation(n).
    """
    n = len(dataset.pairs)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch_size}")
    perm = np.random.default_rng(epoch_seed).permutation(n)
    n_batches = n // batch_size
    return [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)]


def train_step(
    params: ModelParams,
    batch: Sequence[tuple],
    config: TrainConfig,
    vocab: Vocabulary,
    rng: np.random.Generator,
    optimizer: AdamOptimizer,
    counters: EpochCounters | None = None,
    index: TokenIndex | None = None,
) -> tuple[ModelParams, LossBreakdown]:
    """One optimizer update on a batch of (clip, caption) pairs; params update in place.

    Per item: the caption entering the contrastive term passes through the
    insert augmentation with p_aug (falling back to the original when the
    vocabulary is exhausted), and with k > 0 a fully negated counterpart of
    the original caption feeds the dissimilarity term.  ``index`` is the
    calling run's token index over ``vocab``; without one the step builds
    its own.
    """
    if not batch:
        raise ValueError("empty batch")
    clips = [clip for clip, _ in batch]
    originals = [caption for _, caption in batch]
    aug_config = AugmentationConfig(p_aug=config.p_aug)

    clap_captions: list[Caption] = []
    for caption in originals:
        try:
            out = apply_augmentation(caption, vocab, aug_config, rng)
        except AugmentationExhausted:
            out = caption
            if counters is not None:
                counters.exhausted += 1
        if counters is not None and len(out.tokens) != len(caption.tokens):
            counters.augmented += 1
        clap_captions.append(out)

    anchors = negated = None
    if config.k > 0:
        anchors = originals
        negated = [fully_negate(c, vocab, rng) for c in originals]

    features = np.stack([clip.features for clip in clips])
    breakdown, grads = total_loss_through_encoders(
        params, vocab, features, clap_captions, k=config.k,
        anchor_captions=anchors, negated_captions=negated, index=index,
    )
    optimizer.step(params, grads, config.learning_rate)
    return params, breakdown


def _test_map_scores(params: ModelParams, test_token_lists: Sequence[CaptionIds],
                     audio_features: np.ndarray) -> tuple[float, float]:
    audio_embs, _ = encode_audio_batch(params, audio_features)
    text_embs, _ = encode_token_lists(params, test_token_lists)
    sim = audio_embs @ text_embs.T
    return map_at_10(sim, "text_to_audio"), map_at_10(sim, "audio_to_text")


def train(
    dataset_train: Dataset,
    dataset_test: Dataset,
    config: TrainConfig,
    dims: ModelDims | None = None,
) -> tuple[CheckpointRecord, list[EpochLog]]:
    """Run the full loop and return the best checkpoint plus the per-epoch log."""
    train_ids = {clip.id for clip, _ in dataset_train.pairs}
    test_ids = {clip.id for clip, _ in dataset_test.pairs}
    if train_ids & test_ids:
        raise ValueError("train and test splits share clip ids")
    if dims is None:
        d_a = int(dataset_train.pairs[0][0].features.shape[0])
        dims = ModelDims(d_a=d_a)

    vocab = dataset_train.vocabulary
    params = init_params(dims, spawn_seed(config.seed, _INIT_STREAM))
    optimizer = AdamOptimizer.for_params(params)
    test_features = np.stack([clip.features for clip, _ in dataset_test.pairs])
    # bucket ids of the original captions, computed once for the whole run
    index = TokenIndex(vocab, dims.hash_buckets)
    index.keep(caption for _, caption in dataset_train.pairs)
    test_token_lists = TokenIndex(dataset_test.vocabulary, dims.hash_buckets).ids(
        caption for _, caption in dataset_test.pairs)

    best: CheckpointRecord | None = None
    logs: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        epoch_rng = seeded_rng(config.seed, _EPOCH_STREAM, epoch)
        batches = make_batches(dataset_train, config.batch_size,
                               spawn_seed(config.seed, _SHUFFLE_STREAM, epoch))
        counters = EpochCounters()
        sums = np.zeros(3)
        for idx in batches:
            batch = [dataset_train.pairs[i] for i in idx]
            _, breakdown = train_step(params, batch, config, vocab, epoch_rng,
                                      optimizer, counters, index)
            sums += (breakdown.l_clap, breakdown.l_diss, breakdown.l_total)
        means = sums / len(batches)

        map_t2a, map_a2t = _test_map_scores(params, test_token_lists, test_features)
        map_avg = 0.5 * (map_t2a + map_a2t)
        logs.append(EpochLog(
            epoch=epoch, l_clap=float(means[0]), l_diss=float(means[1]),
            l_total=float(means[2]), k=config.k, p_aug=config.p_aug,
            map10_t2a=map_t2a, map10_a2t=map_a2t, map10_avg=map_avg,
            n_augmented=counters.augmented, n_aug_exhausted=counters.exhausted,
        ))
        if best is None or map_avg > best.selection_score:
            best = CheckpointRecord(epoch=epoch, params=params.copy(), selection_score=map_avg)
    assert best is not None
    return best, logs


def write_train_log_csv(path: str | Path, logs: Sequence[EpochLog]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(LOG_COLUMNS)
        for log in logs:
            writer.writerow([getattr(log, c) for c in LOG_COLUMNS])


@dataclass
class SweepRow:
    config: TrainConfig
    best_epoch: int
    selection_score: float
    retrieval: RetrievalReport
    triplet: TripletReport

    @property
    def label(self) -> str:
        cfg = self.config
        if cfg.condition == "baseline":
            return "baseline"
        if cfg.condition == "text_aug":
            return f"text_aug_p{cfg.p_aug:g}"
        if cfg.condition == "loss_term":
            return f"loss_term_k{cfg.k:g}"
        return f"combo_p{cfg.p_aug:g}_k{cfg.k:g}"


def sweep_configs(
    seed: int,
    p_aug_grid: Sequence[float] = DEFAULT_P_AUG_GRID,
    k_grid: Sequence[float] = DEFAULT_K_GRID,
    combo_k_grid: Sequence[float] | None = None,
    combo_p_aug: float = DEFAULT_COMBO_P_AUG,
    batch_size: int = 8,
    epochs: int = 10,
    learning_rate: float = 0.01,
) -> list[TrainConfig]:
    """Baseline plus one config per grid point, in report order."""
    if combo_k_grid is None:
        combo_k_grid = tuple(k_grid)
    common = dict(seed=seed, batch_size=batch_size, epochs=epochs, learning_rate=learning_rate)
    configs = [TrainConfig(condition="baseline", **common)]
    configs += [TrainConfig(condition="text_aug", p_aug=p, **common) for p in p_aug_grid]
    configs += [TrainConfig(condition="loss_term", k=k, **common) for k in k_grid]
    configs += [TrainConfig(condition="combo", p_aug=combo_p_aug, k=k, **common)
                for k in combo_k_grid]
    return configs


def sweep(
    dataset_train: Dataset,
    dataset_test: Dataset,
    *,
    seed: int,
    eval_seed: int,
    p_aug_grid: Sequence[float] = DEFAULT_P_AUG_GRID,
    k_grid: Sequence[float] = DEFAULT_K_GRID,
    combo_k_grid: Sequence[float] | None = None,
    combo_p_aug: float = DEFAULT_COMBO_P_AUG,
    batch_size: int = 8,
    epochs: int = 10,
    learning_rate: float = 0.01,
    k_retrieval: int = 10,
    dims: ModelDims | None = None,
    out_dir: str | Path | None = None,
) -> list[SweepRow]:
    """Train and evaluate every grid point against one shared eval variant set.

    Emits report.csv, per-run fig_retrieval_<label>.csv, and fig_triplet.csv
    under out_dir when given.  Row count: 1 baseline + |p_aug_grid| +
    |k_grid| + |combo_k_grid|.
    """
    configs = sweep_configs(seed, p_aug_grid, k_grid, combo_k_grid, combo_p_aug,
                            batch_size, epochs, learning_rate)
    variants = build_eval_variants(dataset_test, eval_seed)
    rows: list[SweepRow] = []
    for config in configs:
        record, _ = train(dataset_train, dataset_test, config, dims=dims)
        embeddings = embed_eval_variants(record.params, dataset_test, variants)
        retrieval = retrieval_protocol(embeddings, k_retrieval)
        triplet = triplet_protocol(embeddings)
        rows.append(SweepRow(config=config, best_epoch=record.epoch,
                             selection_score=record.selection_score,
                             retrieval=retrieval, triplet=triplet))
    if out_dir is not None:
        write_sweep_outputs(rows, out_dir, combo_p_aug=combo_p_aug)
    return rows


def write_sweep_outputs(rows: Sequence[SweepRow], out_dir: str | Path,
                        combo_p_aug: float = DEFAULT_COMBO_P_AUG) -> None:
    """report.csv with all rows, one fig_retrieval per run, one shared fig_triplet.

    fig_triplet.csv mirrors the headline comparison: baseline, the text_aug
    run at the combo augmentation probability (when present), and every
    loss_term and combo run across k.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: list[dict[str, object]] = []
    for row in rows:
        cfg = row.config
        report.extend(report_rows(cfg.condition, cfg.p_aug, cfg.k, row.retrieval, row.triplet))
        write_fig_retrieval_csv(out / f"fig_retrieval_{row.label}.csv", row.retrieval)
    write_report_csv(out / "report.csv", report)

    triplet_entries = []
    for row in rows:
        cfg = row.config
        include = (
            cfg.condition in ("baseline", "loss_term", "combo")
            or (cfg.condition == "text_aug" and math.isclose(cfg.p_aug, combo_p_aug))
        )
        if include:
            triplet_entries.append((cfg.condition, cfg.k, row.triplet))
    write_fig_triplet_csv(out / "fig_triplet.csv", triplet_entries)
