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
from .model import ModelParams, TokenIndex, encode_audio_batch, encode_token_lists
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


def _recall_from_ranks(ranks: np.ndarray, k: int) -> float:
    return float(np.mean(ranks <= k))


def _map10_from_ranks(ranks: np.ndarray) -> float:
    ap = np.where(ranks <= 10, 1.0 / ranks, 0.0)
    return float(ap.mean())


def recall_at_k(sim: np.ndarray, k: int, direction: str) -> float:
    """Fraction of queries whose matching item ranks within the top k."""
    n = np.asarray(sim).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    return _recall_from_ranks(_match_ranks(sim, direction), k)


def map_at_10(sim: np.ndarray, direction: str) -> float:
    """Mean of 1/rank over queries whose match ranks within the top 10, else 0."""
    return _map10_from_ranks(_match_ranks(sim, direction))


def embed_eval_variants(params: ModelParams, test_dataset: Dataset,
                        variants: EvalVariantSet) -> EvalEmbeddings:
    """Embed the test audio once and each caption variant once.

    The variants' bucket ids come from one token index, so each distinct
    token string of the test captions is hashed once.
    """
    if len(variants) != len(test_dataset.pairs):
        raise ValueError("variant set does not match the test set")
    audio, _ = encode_audio_batch(params, test_dataset.features())
    index = TokenIndex(test_dataset.vocabulary, params.dims.hash_buckets)
    text = {v: encode_token_lists(params, index.ids(getattr(variants, v)))[0]
            for v in VARIANTS}
    return EvalEmbeddings(audio=audio, **text)


def retrieval_protocol(embeddings: EvalEmbeddings, k_retrieval: int = 10) -> RetrievalReport:
    """R@K for each caption variant in both directions; mAP@10 on originals."""
    n = len(embeddings)
    if not 1 <= k_retrieval <= n:
        raise ValueError(
            f"k_retrieval must lie in [1, {n}], the number of test pairs, got {k_retrieval}")
    r_at_k: dict[tuple[str, str], float] = {}
    map10: dict[str, float] = {}
    for variant in VARIANTS:
        sim = embeddings.audio @ getattr(embeddings, variant).T
        for direction in DIRECTIONS:
            ranks = _match_ranks(sim, direction)  # once per variant and direction
            r_at_k[(variant, direction)] = _recall_from_ranks(ranks, k_retrieval)
            if variant == "original":
                map10[direction] = _map10_from_ranks(ranks)
    return RetrievalReport(k=k_retrieval, r_at_k=r_at_k, map_at_10=map10)


def triplet_protocol(embeddings: EvalEmbeddings) -> TripletReport:
    """Pairwise accuracies for (original, fully), (original, half), (half, fully).

    For each pair the first-named caption is the more relevant one; a
    comparison succeeds when the audio is strictly more similar to it.
    Exact ties are failures and are tallied in tie_count.
    """
    sims = {v: np.sum(embeddings.audio * getattr(embeddings, v), axis=1) for v in VARIANTS}

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


def report_rows(condition: str, p_aug: float | str, k: float | str,
                retrieval: RetrievalReport, triplet: TripletReport) -> list[dict[str, object]]:
    """Report-CSV rows for one trained model: six variant rows plus a summary row.

    A checkpoint evaluated on its own passes ``""`` for p_aug and k.
    """
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
