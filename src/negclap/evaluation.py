"""Negation evaluation protocols: retrieval (R@K, mAP@10) and triplet classification.

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

from .corpus import Caption, Dataset
from .model import ModelParams, encode_audio_batch, encode_text_batch
from .negation import fully_negate, half_negate
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
TRIPLET_COMPARISONS = ("orig_fully", "orig_half", "half_fully")

_VARIANTS_STREAM = 7


@dataclass(frozen=True)
class EvalVariantSet:
    """Per-pair caption variants, generated once and shared across models."""
    original: tuple[Caption, ...]
    half: tuple[Caption, ...]
    fully: tuple[Caption, ...]

    def __len__(self) -> int:
        return len(self.original)


@dataclass
class RetrievalReport:
    k: int
    r_at_k: dict[tuple[str, str], float]  # (variant, direction) -> recall
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
    for every model being compared.
    """
    vocab = test_dataset.vocabulary
    rng = seeded_rng(eval_seed, _VARIANTS_STREAM)
    originals, halves, fullies = [], [], []
    for _, caption in test_dataset.pairs:
        originals.append(caption)
        halves.append(half_negate(caption, vocab, rng))
        fullies.append(fully_negate(caption, vocab, rng))
    return EvalVariantSet(tuple(originals), tuple(halves), tuple(fullies))


def _match_ranks(sim: np.ndarray, direction: str) -> np.ndarray:
    """1-based rank of the matching item for every query (ties: lower index first)."""
    S = np.asarray(sim, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {S.shape}")
    if direction == AUDIO_TO_TEXT:
        M = S
    elif direction == TEXT_TO_AUDIO:
        M = S.T
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not np.isfinite(M).all():
        raise ValueError("similarity matrix holds non-finite values")
    # rank = 1 + (strictly greater scores) + (equal scores at a lower index)
    n = S.shape[0]
    match = np.diag(M)[:, None]
    lower = np.arange(n)[None, :] < np.arange(n)[:, None]
    ties_before = np.count_nonzero((M == match) & lower, axis=1)
    return 1 + np.count_nonzero(M > match, axis=1) + ties_before


def recall_at_k(sim: np.ndarray, k: int, direction: str) -> float:
    """Fraction of queries whose matching item ranks within the top k."""
    n = np.asarray(sim).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    ranks = _match_ranks(sim, direction)
    return float(np.mean(ranks <= k))


def map_at_10(sim: np.ndarray, direction: str) -> float:
    """Mean of 1/rank over queries whose match ranks within the top 10, else 0."""
    ranks = _match_ranks(sim, direction)
    ap = np.where(ranks <= 10, 1.0 / ranks, 0.0)
    return float(ap.mean())


def _similarity_matrix(params: ModelParams, dataset: Dataset,
                       captions: Sequence[Caption]) -> np.ndarray:
    feats = np.stack([clip.features for clip, _ in dataset.pairs])
    audio_embs, _ = encode_audio_batch(params, feats)
    text_embs, _ = encode_text_batch(params, captions, dataset.vocabulary)
    return audio_embs @ text_embs.T


def retrieval_protocol(params: ModelParams, test_dataset: Dataset,
                       variants: EvalVariantSet, k_retrieval: int = 10) -> RetrievalReport:
    """R@K for each caption variant in both directions; mAP@10 on originals."""
    n = len(test_dataset.pairs)
    if len(variants) != n:
        raise ValueError("variant set does not match the test set")
    if not 1 <= k_retrieval <= n:
        raise ValueError(f"k_retrieval must lie in [1, {n}], got {k_retrieval}")
    r_at_k: dict[tuple[str, str], float] = {}
    map10: dict[str, float] = {}
    for variant in VARIANTS:
        captions = getattr(variants, variant if variant != "original" else "original")
        sim = _similarity_matrix(params, test_dataset, captions)
        for direction in DIRECTIONS:
            r_at_k[(variant, direction)] = recall_at_k(sim, k_retrieval, direction)
            if variant == "original":
                map10[direction] = map_at_10(sim, direction)
    return RetrievalReport(k=k_retrieval, r_at_k=r_at_k, map_at_10=map10)


def triplet_protocol(params: ModelParams, test_dataset: Dataset,
                     variants: EvalVariantSet) -> TripletReport:
    """Pairwise accuracies for (original, fully), (original, half), (half, fully).

    For each pair the first-named caption is the more relevant one; a
    comparison succeeds when the audio is strictly more similar to it.
    Exact ties are failures and are tallied in tie_count.
    """
    n = len(test_dataset.pairs)
    if len(variants) != n:
        raise ValueError("variant set does not match the test set")
    feats = np.stack([clip.features for clip, _ in test_dataset.pairs])
    audio, _ = encode_audio_batch(params, feats)
    vocab = test_dataset.vocabulary
    emb = {}
    for variant in VARIANTS:
        embs, _ = encode_text_batch(params, getattr(variants, variant), vocab)
        emb[variant] = embs
    sims = {v: np.sum(audio * emb[v], axis=1) for v in VARIANTS}

    ties = 0
    accs = {}
    for name, more, less in (
        ("orig_fully", "original", "fully"),
        ("orig_half", "original", "half"),
        ("half_fully", "half", "fully"),
    ):
        wins = sims[more] > sims[less]
        ties += int(np.sum(sims[more] == sims[less]))
        accs[name] = float(np.mean(wins))
    return TripletReport(
        acc_orig_fully=accs["orig_fully"],
        acc_orig_half=accs["orig_half"],
        acc_half_fully=accs["half_fully"],
        tie_count=ties,
    )


def report_rows(condition: str, p_aug: float, k: float, retrieval: RetrievalReport,
                triplet: TripletReport) -> list[dict[str, object]]:
    """Report-CSV rows for one trained model: six variant rows plus a summary row."""
    rows: list[dict[str, object]] = []
    for variant in VARIANTS:
        for direction in DIRECTIONS:
            rows.append({
                "condition": condition,
                "p_aug": p_aug,
                "k": k,
                "variant": variant,
                "direction": direction,
                "r_at_10": retrieval.r_at_k[(variant, direction)],
                "map_at_10": retrieval.map_at_10[direction] if variant == "original" else "",
                "acc_orig_fully": "",
                "acc_orig_half": "",
                "acc_half_fully": "",
            })
    rows.append({
        "condition": condition,
        "p_aug": p_aug,
        "k": k,
        "variant": "summary",
        "direction": "",
        "r_at_10": "",
        "map_at_10": float(np.mean(list(retrieval.map_at_10.values()))),
        "acc_orig_fully": triplet.acc_orig_fully,
        "acc_orig_half": triplet.acc_orig_half,
        "acc_half_fully": triplet.acc_half_fully,
    })
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
        {"variant": v, "direction": d, "r_at_10": retrieval.r_at_k[(v, d)]}
        for v in VARIANTS
        for d in DIRECTIONS
    ]
    _write_csv(path, FIG_RETRIEVAL_COLUMNS, rows)


def write_fig_triplet_csv(path: str | Path,
                          entries: Sequence[tuple[str, object, TripletReport]]) -> None:
    """Entries are (condition, k, triplet report); one row per comparison."""
    rows = []
    for condition, k, triplet in entries:
        for comparison, acc in (
            ("orig_fully", triplet.acc_orig_fully),
            ("orig_half", triplet.acc_orig_half),
            ("half_fully", triplet.acc_half_fully),
        ):
            rows.append({"condition": condition, "k": k, "comparison": comparison,
                         "accuracy": acc})
    _write_csv(path, FIG_TRIPLET_COLUMNS, rows)
