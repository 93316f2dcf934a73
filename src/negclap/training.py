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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import Dataset, check_splits
from .evaluation import (
    RetrievalReport,
    TripletReport,
    build_eval_variants,
    check_test_size,
    embed_eval_variants,
    map10_from_ranks,
    match_ranks,
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
    CaptionIds,
    ModelDims,
    ModelParams,
    ParamGrads,
    TokenIds,
    TokenTable,
    encode_audio_batch,
    encode_token_lists,
    init_params,
)
from .negation import (
    draw_inserts,
    draw_negators,
    edit_counts,
    insert_ids,
    negate_ids,
)
from .objective import LossBreakdown, total_loss_through_encoders
from .seeding import seeded_rng, spawn_seed

CONDITIONS = ("baseline", "text_aug", "loss_term", "combo")

DEFAULT_P_AUG_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_K_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_COMBO_P_AUG = 0.6

QUICK_P_AUG_GRID = (0.6, 1.0)
QUICK_K_GRID = (1e-2, 1e-3)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"k must be finite and nonnegative, got {self.k}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
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

    m: np.ndarray  # dense moments, laid out like ModelParams.dense
    v: np.ndarray
    table_v: np.ndarray  # second moments of ModelParams.tables
    table_last: np.ndarray  # per table row, the step that last touched it
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamOptimizer":
        return cls(
            m=np.zeros_like(params.dense),
            v=np.zeros_like(params.dense),
            table_v=np.zeros_like(params.tables),
            table_last=np.zeros(len(params.tables), dtype=np.int64),
        )

    def step(self, params: ModelParams, grads: ParamGrads, learning_rate: float) -> None:
        self.t += 1
        m_corr = 1.0 - ADAM_BETA1 ** self.t
        v_corr = 1.0 - ADAM_BETA2 ** self.t
        # one pass over the flat dense vector: the same elementwise operations
        # as a per-parameter update, so the result is bit-identical to it
        g = grads.dense
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        params.dense -= learning_rate * (self.m / m_corr) / (np.sqrt(self.v / v_corr) + ADAM_EPS)
        # the table rows the batch hit, taken once and updated in place with
        # the ufuncs, in the order, of
        #   v = table_v[rows] * beta2 ** (t - last[rows]) + (1 - beta2) * g * g
        #   tables[rows] -= lr * g / (sqrt(v / v_corr) + eps)
        rows, g = grads.table.rows, grads.table.values
        decay = self.table_last.take(rows)
        np.subtract(self.t, decay, out=decay)
        v = self.table_v.take(rows, axis=0)
        v *= np.power(ADAM_BETA2, decay)[:, None]
        gg = np.multiply(1.0 - ADAM_BETA2, g)
        gg *= g
        v += gg
        self.table_v[rows] = v
        self.table_last[rows] = self.t
        np.divide(v, v_corr, out=gg)
        np.sqrt(gg, out=gg)
        gg += ADAM_EPS
        step = np.multiply(learning_rate, g)
        step /= gg
        p = params.tables.take(rows, axis=0)
        p -= step
        params.tables[rows] = p
        np.clip(params.log_temperature, LOG_TEMPERATURE_MIN, LOG_TEMPERATURE_MAX,
                out=params.log_temperature)


def make_batches(dataset: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Index batches from a seeded shuffle; the final partial batch is dropped.

    The shuffle is exactly np.random.default_rng(epoch_seed).permutation(n).
    """
    n = len(dataset)
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch_size}")
    perm = np.random.default_rng(epoch_seed).permutation(n)
    n_batches = n // batch_size
    return [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)]


@dataclass
class EpochPlan:
    """One epoch's inputs, built before its first step.

    Step s trains on items [s * batch_size, (s + 1) * batch_size).
    ``order`` holds each item's pair index.  ``ids`` holds the bucket ids of
    every step's captions, step after step, in ``n_blocks`` blocks of B:
    the captions its contrastive term sees (augmented or original), then
    with k > 0 its original captions as anchors and their fully negated
    counterparts.
    """
    batch_size: int
    order: np.ndarray
    n_blocks: int
    ids: CaptionIds
    n_augmented: int
    n_exhausted: int

    def steps(self) -> Iterator[tuple[slice, CaptionIds]]:
        """Each step's item slice and captions, whose pooling layouts are built
        a chunk of steps at a time as the steps are reached (``CaptionIds.batches``)."""
        B = self.batch_size
        return zip((slice(a, a + B) for a in range(0, len(self.order), B)),
                   self.ids.batches(B * self.n_blocks))


def plan_epoch(slots: TokenIds, order: np.ndarray, config: TrainConfig, table: TokenTable,
               n_buckets: int, rng: np.random.Generator) -> EpochPlan:
    """Draw one epoch's caption edits and apply them to the captions' kinds.

    ``slots`` holds the run's original captions as kinds of ``table``
    (``Dataset.captions``).  ``order`` lists the pair
    index of every item, whole batches in step order; ``ValueError`` is
    raised before any draw when it does not.  The draws come from ``rng`` in
    the order a step makes them.  Per step, the B items pass through the
    insert augmentation (``draw_inserts``; the original caption when no
    insert is drawn or the vocabulary is exhausted, and at p_aug == 0 the
    contrastive captions are the originals).  Then, when k > 0, the B items
    are fully negated, their negator draws one ``draw_negators`` call.  The
    edits are applied to kinds (see ``negation.insert_ids``), so no caption
    object is built.  The blocks' kinds are laid out in step order, as
    ``EpochPlan.ids`` holds them, and go to bucket ids in one ``table.ids``
    call.
    """
    B = config.batch_size
    if len(order) % B:
        raise ValueError(f"{len(order)} items are not whole batches of {B}")
    items = slots.take(order)
    n_negators = len(table.vocab.negators)
    if config.p_aug > 0 or config.k > 0:
        n_slots = items.lens.tolist()
        n_plain, n_unused = (counts.tolist() for counts in edit_counts(items, table))
    else:  # the baseline edits no caption; its Bernoulli draws need only the item count
        n_slots = n_unused = [0] * len(order)
    inserts: list[tuple[int, int, int, int]] = []  # item, gap, unused tag, negator
    negators: list[np.ndarray] = []
    n_exhausted = 0
    for start in range(0, len(order), B):
        drawn, exhausted = draw_inserts(n_slots[start:start + B], n_unused[start:start + B],
                                        n_negators, config.p_aug, rng)
        inserts += [(start + i, *draws) for i, *draws in drawn]
        n_exhausted += exhausted
        if config.k > 0:
            negators.append(draw_negators(n_plain[start:start + B], n_negators, rng))

    blocks = [items]
    if config.p_aug > 0:
        rows, gaps, unused, negator = np.array(inserts, dtype=np.intp).reshape(-1, 4).T
        blocks[0] = insert_ids(items, rows, gaps, unused, negator, table)
    if config.k > 0:
        drawn = np.concatenate(negators or [np.empty(0, np.int64)])
        blocks += [items, negate_ids(items, np.arange(len(drawn)), drawn, table)]
    n_blocks = len(blocks)
    # caption c of step s in block p, in (s, p, c) order
    step_order = (np.arange(0, len(order), B)[:, None, None]
                  + np.arange(n_blocks)[:, None] * len(order) + np.arange(B)).ravel()
    stepwise = TokenIds.concat(blocks).take(step_order)
    del items, blocks  # only the step-ordered kinds are held while they hash
    return EpochPlan(B, order, n_blocks, table.ids(stepwise, n_buckets),
                     n_augmented=len(inserts), n_exhausted=n_exhausted)


def train_step(params: ModelParams, features: np.ndarray, text_ids: CaptionIds,
               config: TrainConfig, optimizer: AdamOptimizer) -> LossBreakdown:
    """One optimizer update on one planned batch; params update in place.

    ``features`` are the batch's clip features and ``text_ids`` the step's
    captions as ``EpochPlan.steps`` yields them.
    """
    breakdown, grads = total_loss_through_encoders(params, features, text_ids, k=config.k)
    optimizer.step(params, grads, config.learning_rate)
    return breakdown


def _run_epoch(params: ModelParams, optimizer: AdamOptimizer, features: np.ndarray,
               config: TrainConfig, epoch: int, plan: EpochPlan) -> tuple[np.ndarray, int, int]:
    """Train on every step of ``plan``; the mean losses and the plan's edit counts.

    Raises ``ValueError`` naming the condition, epoch and step at the first
    step whose loss, or an embedding norm, is not finite.
    """
    sums = np.zeros(3)
    for step, (items, text_ids) in enumerate(plan.steps(), 1):
        try:
            breakdown = train_step(params, features[plan.order[items]], text_ids, config,
                                   optimizer)
            if not math.isfinite(breakdown.l_total):
                raise FloatingPointError(f"l_total is {breakdown.l_total}")
        except FloatingPointError as e:
            raise ValueError(f"{config.condition} training diverged at epoch {epoch}, "
                             f"step {step}: {e}") from e
        sums += (breakdown.l_clap, breakdown.l_diss, breakdown.l_total)
    return sums / (len(plan.order) // config.batch_size), plan.n_augmented, plan.n_exhausted


def _test_map_scores(params: ModelParams, test_ids: CaptionIds,
                     audio_features: np.ndarray) -> tuple[float, float]:
    audio_embs, _ = encode_audio_batch(params, audio_features)
    text_embs, _ = encode_token_lists(params, test_ids)
    return tuple(map(map10_from_ranks, match_ranks(audio_embs @ text_embs.T)))


def train(
    dataset_train: Dataset,
    dataset_test: Dataset,
    config: TrainConfig,
    dims: ModelDims | None = None,
) -> tuple[CheckpointRecord, list[EpochLog]]:
    """Run the full loop and return the best checkpoint plus the per-epoch log.

    Each epoch's inputs are planned before its first step (see
    ``plan_epoch``).  Raises ``ValueError`` before the first step when the
    splits do not go together (``check_splits``), and naming the condition,
    epoch and step at the first step whose loss, or an embedding norm, is
    not finite.
    """
    check_splits(dataset_train, dataset_test)
    features, test_features = dataset_train.features, dataset_test.features
    if dims is None:
        dims = ModelDims(d_a=features.shape[1])

    params = init_params(dims, spawn_seed(config.seed, _INIT_STREAM))
    optimizer = AdamOptimizer.for_params(params)
    table = TokenTable(dataset_train.vocabulary, dataset_train.words)
    test_caption_ids = TokenTable(dataset_test.vocabulary, dataset_test.words).ids(
        dataset_test.captions, dims.hash_buckets)

    best: CheckpointRecord | None = None
    logs: list[EpochLog] = []
    # a diverging run overflows on its way to the non-finite norm or loss that
    # is reported below, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = np.concatenate(make_batches(dataset_train, config.batch_size,
                                                spawn_seed(config.seed, _SHUFFLE_STREAM, epoch)))
            # the plan and its last step's layouts are let go before selection
            means, n_augmented, n_exhausted = _run_epoch(
                params, optimizer, features, config, epoch,
                plan_epoch(dataset_train.captions, order, config, table, dims.hash_buckets,
                           seeded_rng(config.seed, _EPOCH_STREAM, epoch)))

            map_t2a, map_a2t = _test_map_scores(params, test_caption_ids, test_features)
            map_avg = 0.5 * (map_t2a + map_a2t)
            logs.append(EpochLog(
                epoch=epoch, l_clap=float(means[0]), l_diss=float(means[1]),
                l_total=float(means[2]), k=config.k, p_aug=config.p_aug,
                map10_t2a=map_t2a, map10_a2t=map_a2t, map10_avg=map_avg,
                n_augmented=n_augmented, n_aug_exhausted=n_exhausted,
            ))
            if best is None or map_avg > best.selection_score:
                # later epochs update params in place; the last epoch's are final
                kept = params if epoch == config.epochs else params.copy()
                best = CheckpointRecord(epoch=epoch, params=kept, selection_score=map_avg)
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
    batch_size: int = 8,
    epochs: int = 10,
    learning_rate: float = 0.01,
) -> list[TrainConfig]:
    """Baseline plus one config per grid point, in report order.

    Combo runs pair ``DEFAULT_COMBO_P_AUG`` with every k of ``k_grid``.
    """
    common = dict(seed=seed, batch_size=batch_size, epochs=epochs, learning_rate=learning_rate)
    configs = [TrainConfig(condition="baseline", **common)]
    configs += [TrainConfig(condition="text_aug", p_aug=p, **common) for p in p_aug_grid]
    configs += [TrainConfig(condition="loss_term", k=k, **common) for k in k_grid]
    configs += [TrainConfig(condition="combo", p_aug=DEFAULT_COMBO_P_AUG, k=k, **common)
                for k in k_grid]
    return configs


def sweep(
    dataset_train: Dataset,
    dataset_test: Dataset,
    configs: Sequence[TrainConfig],
    *,
    eval_seed: int,
    dims: ModelDims | None = None,
) -> list[SweepRow]:
    """Train and evaluate each config against one shared eval variant set.

    One row per config, in order; ``write_sweep_outputs`` writes the files.
    A test split too small for R@10 is refused before the first run.
    """
    check_test_size(len(dataset_test))
    variants = build_eval_variants(dataset_test, eval_seed)
    rows: list[SweepRow] = []
    for config in configs:
        record, _ = train(dataset_train, dataset_test, config, dims=dims)
        embeddings = embed_eval_variants(record.params, dataset_test, variants)
        retrieval = retrieval_protocol(embeddings)
        triplet = triplet_protocol(embeddings)
        rows.append(SweepRow(config=config, best_epoch=record.epoch,
                             selection_score=record.selection_score,
                             retrieval=retrieval, triplet=triplet))
    return rows


def write_sweep_outputs(rows: Sequence[SweepRow], out_dir: str | Path) -> None:
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
            or (cfg.condition == "text_aug" and math.isclose(cfg.p_aug, DEFAULT_COMBO_P_AUG))
        )
        if include:
            triplet_entries.append((cfg.condition, cfg.k, row.triplet))
    write_fig_triplet_csv(out / "fig_triplet.csv", triplet_entries)
