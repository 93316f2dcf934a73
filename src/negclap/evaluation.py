"""Negation evaluation protocols: retrieval (R@10, mAP@10) and triplet classification.

Similarity matrices follow the convention S[i, j] = cosine(audio_i,
caption_j), so the diagonal holds matching pairs.  Ranking ties break toward
the lower index and exact triplet ties count as failures; both rules make
results deterministic and conservative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Dataset
from .model import (
    ModelParams,
    TokenIds,
    TokenTable,
    encode_audio_batch,
    encode_token_lists,
)
from .negation import draw_halves, edit_counts, negate_ids
from .seeding import seeded_rng

VARIANTS = ("original", "half", "fully")
TEXT_TO_AUDIO = "text_to_audio"
AUDIO_TO_TEXT = "audio_to_text"
DIRECTIONS = (TEXT_TO_AUDIO, AUDIO_TO_TEXT)

REPORT_COLUMNS = (
    "condition", "p_aug", "k", "variant", "direction", "r_at_10", "map_at_10",
    "acc_orig_fully", "acc_orig_half", "acc_half_fully",
)
FIG_RETRIEVAL_COLUMNS = ("variant", "direction", "r_at_10")
FIG_TRIPLET_COLUMNS = ("condition", "k", "comparison", "accuracy")
# (name, more relevant variant, less relevant variant); TripletReport holds acc_<name>
TRIPLET_COMPARISONS = (
    ("orig_fully", "original", "fully"),
    ("orig_half", "original", "half"),
    ("half_fully", "half", "fully"),
)

_VARIANTS_STREAM = 7


@dataclass(frozen=True, eq=False)
class EvalVariantSet:
    """Per-pair caption variants as kinds, drawn once and shared across models.

    Row i of ``original``, ``half`` and ``fully`` belongs to test pair i, and
    their ids are kinds of ``table`` (see ``Dataset``).  Nothing
    here depends on a model's bucket count; ``embed_eval_variants`` maps the
    kinds to its buckets with ``table.ids``.
    """
    table: TokenTable
    original: TokenIds
    half: TokenIds
    fully: TokenIds

    def __len__(self) -> int:
        return len(self.original)


@dataclass(frozen=True)
class EvalEmbeddings:
    """One model's unit embeddings of the test audio and of each caption variant.

    Row i of every matrix belongs to test pair i.  Both protocols read the
    same embeddings, so each is computed once per (model, variant set).
    """
    audio: np.ndarray
    original: np.ndarray
    half: np.ndarray
    fully: np.ndarray

    def __len__(self) -> int:
        return len(self.audio)


@dataclass
class RetrievalReport:
    r_at_10: dict[tuple[str, str], float]  # (variant, direction) -> recall
    map_at_10: dict[str, float]           # direction -> mAP@10, original captions


@dataclass(frozen=True)
class TripletReport:
    acc_orig_fully: float
    acc_orig_half: float
    acc_half_fully: float
    tie_count: int


def build_eval_variants(test_dataset: Dataset, eval_seed: int) -> EvalVariantSet:
    """Half and fully negated counterparts for every test caption.

    Draws come from a dedicated stream of ``eval_seed`` in pair order (half
    first, then fully, per pair), so the same seed yields the same variants
    for every model being compared.  They are ``draw_halves``' draws with
    the full negation's negators, applied to the captions' kinds.
    """
    table = TokenTable(test_dataset.vocabulary, test_dataset.words)
    source = test_dataset.captions
    rng = seeded_rng(eval_seed, _VARIANTS_STREAM)
    mentions, half_negators, fully_negators = draw_halves(
        edit_counts(source, table)[0], len(table.vocab.negators), rng, with_fully=True)
    half = negate_ids(source, mentions, half_negators, table)
    fully = negate_ids(source, np.arange(len(fully_negators)), fully_negators, table)
    return EvalVariantSet(table, source, half, fully)


def match_ranks(sim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based rank of the matching item for every query (ties: lower index first),
    text_to_audio then audio_to_text.

    Text query j ranks column j of S and audio query i row i; both are
    counted on S as it is laid out, after one shape and finiteness check.
    """
    S = np.asarray(sim, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("similarity matrix holds non-finite values")
    # rank = 1 + (strictly greater scores) + (equal scores at a lower index);
    # the last term is counted only for queries that tie the match elsewhere
    match = np.diag(S)
    out = []
    for axis, query_match in ((0, match[None, :]), (1, match[:, None])):
        # bool sums into int32 run about twice as fast as count_nonzero's into intp
        ranks = 1 + (S > query_match).sum(axis=axis, dtype=np.int32)
        equal = S == query_match
        if np.count_nonzero(equal) > len(S):
            tied = np.flatnonzero(equal.sum(axis=axis, dtype=np.int32) > 1)
            ties = equal[:, tied].T if axis == 0 else equal[tied]  # a tied query's per row
            lower = np.arange(len(S))[None, :] < tied[:, None]
            ranks[tied] += np.count_nonzero(ties & lower, axis=1)
        out.append(ranks)
    return out[0], out[1]


def map10_from_ranks(ranks: np.ndarray) -> float:
    ap = np.where(ranks <= 10, 1.0 / ranks, 0.0)
    return float(ap.mean())


def embed_eval_variants(params: ModelParams, test_dataset: Dataset,
                        variants: EvalVariantSet) -> EvalEmbeddings:
    """Embed the test audio once and all caption variants in one text pass.

    The variants' kinds, original then half then fully, go to the model's
    bucket ids here.  Every caption's embedding depends on its own rows
    alone, so it equals that of a pass per variant, bit for bit.
    """
    if len(variants) != len(test_dataset):
        raise ValueError("variant set does not match the test set")
    audio, _ = encode_audio_batch(params, test_dataset.features)
    joined = TokenIds.concat([getattr(variants, v) for v in VARIANTS])
    text, _ = encode_token_lists(params, variants.table.ids(joined, params.dims.hash_buckets))
    return EvalEmbeddings(audio, *np.split(text, len(VARIANTS)))


def check_test_size(n_pairs: int) -> None:
    """Raise ValueError unless a test split of ``n_pairs`` pairs can be ranked at R@10."""
    if n_pairs < 10:
        raise ValueError(f"the test split has {n_pairs} pairs; R@10 needs at least 10")


def retrieval_protocol(embeddings: EvalEmbeddings) -> RetrievalReport:
    """R@10 for each caption variant in both directions; mAP@10 on originals."""
    check_test_size(len(embeddings))
    r_at_10: dict[tuple[str, str], float] = {}
    map10: dict[str, float] = {}
    for variant in VARIANTS:
        ranked = match_ranks(embeddings.audio @ getattr(embeddings, variant).T)
        for direction, ranks in zip(DIRECTIONS, ranked):
            r_at_10[(variant, direction)] = float(np.mean(ranks <= 10))
            if variant == "original":
                map10[direction] = map10_from_ranks(ranks)
    return RetrievalReport(r_at_10=r_at_10, map_at_10=map10)


def triplet_protocol(embeddings: EvalEmbeddings) -> TripletReport:
    """Pairwise accuracies for (original, fully), (original, half), (half, fully).

    For each pair the first-named caption is the more relevant one; a
    comparison succeeds when the audio is strictly more similar to it.
    Exact ties are failures and are tallied in tie_count.
    """
    sims = {v: np.sum(embeddings.audio * getattr(embeddings, v), axis=1) for v in VARIANTS}

    ties = 0
    accs = {}
    for name, more, less in TRIPLET_COMPARISONS:
        wins = sims[more] > sims[less]
        ties += int(np.sum(sims[more] == sims[less]))
        accs[f"acc_{name}"] = float(np.mean(wins))
    return TripletReport(**accs, tie_count=ties)


def report_rows(condition: str, p_aug: float | str, k: float | str,
                retrieval: RetrievalReport, triplet: TripletReport) -> list[dict[str, object]]:
    """Report-CSV rows for one trained model: six variant rows plus a summary row.

    A checkpoint evaluated on its own passes ``""`` for p_aug and k.  Cells
    a row leaves out are written blank.
    """
    rows: list[dict[str, object]] = []
    for variant in VARIANTS:
        for direction in DIRECTIONS:
            row = {
                "condition": condition,
                "p_aug": p_aug,
                "k": k,
                "variant": variant,
                "direction": direction,
                "r_at_10": retrieval.r_at_10[(variant, direction)],
            }
            if variant == "original":
                row["map_at_10"] = retrieval.map_at_10[direction]
            rows.append(row)
    summary = {
        "condition": condition,
        "p_aug": p_aug,
        "k": k,
        "variant": "summary",
        "map_at_10": float(np.mean(list(retrieval.map_at_10.values()))),
    }
    for name, _, _ in TRIPLET_COMPARISONS:
        summary[f"acc_{name}"] = getattr(triplet, f"acc_{name}")
    rows.append(summary)
    return rows


def _write_csv(path: str | Path, columns: Sequence[str],
               rows: Iterable[Mapping[str, object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})


def write_report_csv(path: str | Path, rows: Iterable[Mapping[str, object]]) -> None:
    _write_csv(path, REPORT_COLUMNS, rows)


def write_fig_retrieval_csv(path: str | Path, retrieval: RetrievalReport) -> None:
    rows = [
        {"variant": v, "direction": d, "r_at_10": retrieval.r_at_10[(v, d)]}
        for v in VARIANTS
        for d in DIRECTIONS
    ]
    _write_csv(path, FIG_RETRIEVAL_COLUMNS, rows)


def write_fig_triplet_csv(path: str | Path,
                          entries: Sequence[tuple[str, object, TripletReport]]) -> None:
    """Entries are (condition, k, triplet report); one row per comparison."""
    rows = [
        {"condition": condition, "k": k, "comparison": name,
         "accuracy": getattr(triplet, f"acc_{name}")}
        for condition, k, triplet in entries
        for name, _, _ in TRIPLET_COMPARISONS
    ]
    _write_csv(path, FIG_TRIPLET_COLUMNS, rows)
