"""Training objectives: symmetric contrastive loss, dissimilarity term, weighted total.

The contrastive term is a symmetric softmax cross-entropy over a
temperature-scaled audio/text similarity matrix.  The dissimilarity term is
1 + mean cosine between each caption embedding and the embedding of its
fully negated counterpart; minimizing it pushes the pair apart, and for
unit-norm inputs its value lies in [0, 2].  Gradients flow into both sides
of every pair (no stop-gradient anywhere).

Embedding-level functions return gradients with respect to the (unit-norm)
embedding matrices; the ``*_through_encoders`` helpers chain those through
``model_backward`` to full parameter gradients.  Everything accumulates in
float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Caption, Vocabulary
from .model import ModelParams, ParamGrads, encode_audio_batch, encode_text_batch, model_backward


@dataclass(frozen=True)
class LossBreakdown:
    l_clap: float
    l_diss: float
    k: float
    l_total: float


@dataclass
class ClapGrads:
    d_audio: np.ndarray
    d_text: np.ndarray
    d_log_temperature: float


@dataclass
class DissGrads:
    d_anchor: np.ndarray
    d_negated: np.ndarray


@dataclass
class TotalGrads:
    d_audio: np.ndarray
    d_text: np.ndarray
    d_anchor: np.ndarray | None
    d_negated: np.ndarray | None
    d_log_temperature: float


def _check_batch(*embs: np.ndarray) -> int:
    first = embs[0]
    if first.ndim != 2 or first.shape[0] == 0:
        raise ValueError(f"expected a nonempty (B, d) embedding matrix, got {first.shape}")
    for e in embs[1:]:
        if e.shape != first.shape:
            raise ValueError(f"embedding shapes differ: {e.shape} vs {first.shape}")
    return first.shape[0]


def _log_softmax(scores: np.ndarray, axis: int) -> np.ndarray:
    shifted = scores - scores.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def clap_loss(audio_embs: np.ndarray, text_embs: np.ndarray,
              log_temperature: float) -> tuple[float, ClapGrads]:
    """Symmetric contrastive cross-entropy over exp(log_temperature)-scaled cosines.

    Entry (i, j) of the logit matrix scores audio i against caption j; the
    diagonal holds the matching pairs.  Rows are the audio-to-text
    direction, columns text-to-audio, and the loss averages both.
    """
    B = _check_batch(audio_embs, text_embs)
    tau = float(np.exp(log_temperature))
    scores = tau * (audio_embs @ text_embs.T)

    log_p_rows = _log_softmax(scores, axis=1)
    log_p_cols = _log_softmax(scores, axis=0)
    diag = np.arange(B)
    loss = -0.5 * (log_p_rows[diag, diag].mean() + log_p_cols[diag, diag].mean())

    eye = np.eye(B)
    g_scores = (np.exp(log_p_rows) - eye + np.exp(log_p_cols) - eye) / (2.0 * B)
    d_audio = tau * (g_scores @ text_embs)
    d_text = tau * (g_scores.T @ audio_embs)
    d_log_temperature = float(np.sum(g_scores * scores))
    return float(loss), ClapGrads(d_audio, d_text, d_log_temperature)


def dissimilarity_loss(caption_embs: np.ndarray,
                       negated_embs: np.ndarray) -> tuple[float, DissGrads]:
    """1 + mean cosine between paired caption / fully-negated embeddings.

    The value is clipped to [0, 2], the range it spans for unit-norm
    inputs; the gradients are those of the unclipped expression.
    """
    B = _check_batch(caption_embs, negated_embs)
    # rounding can land antipodal or identical unit pairs an ulp outside [0, 2]
    loss = min(max(1.0 + float(np.sum(caption_embs * negated_embs)) / B, 0.0), 2.0)
    return loss, DissGrads(d_anchor=negated_embs / B, d_negated=caption_embs / B)


def total_loss(audio_embs: np.ndarray, text_embs: np.ndarray, *, k: float,
               log_temperature: float,
               anchor_embs: np.ndarray | None = None,
               negated_embs: np.ndarray | None = None) -> tuple[LossBreakdown, TotalGrads]:
    """l_clap + k * l_diss with correspondingly weighted gradients.

    The dissimilarity pair is optional; without it l_diss is reported as 0.
    With k = 0 the result reduces exactly to clap_loss (anchor gradients, if
    present, are exact zeros).
    """
    if k < 0:
        raise ValueError(f"term weight k must be nonnegative, got {k}")
    if (anchor_embs is None) != (negated_embs is None):
        raise ValueError("anchor and negated embeddings must be supplied together")
    l_clap, cg = clap_loss(audio_embs, text_embs, log_temperature)
    if anchor_embs is not None:
        l_diss, dg = dissimilarity_loss(anchor_embs, negated_embs)
        d_anchor = k * dg.d_anchor
        d_negated = k * dg.d_negated
    else:
        l_diss, d_anchor, d_negated = 0.0, None, None
    breakdown = LossBreakdown(l_clap=l_clap, l_diss=l_diss, k=k, l_total=l_clap + k * l_diss)
    grads = TotalGrads(d_audio=cg.d_audio, d_text=cg.d_text, d_anchor=d_anchor,
                       d_negated=d_negated, d_log_temperature=cg.d_log_temperature)
    return breakdown, grads


def clap_loss_through_encoders(
    params: ModelParams, vocab: Vocabulary, audio_features: np.ndarray,
    captions: Sequence[Caption], with_grads: bool = True,
) -> tuple[float, ParamGrads | None]:
    """Contrastive loss of a batch, with full parameter gradients."""
    audio_embs, audio_cache = encode_audio_batch(params, audio_features)
    text_embs, text_cache = encode_text_batch(params, captions, vocab)
    loss, g = clap_loss(audio_embs, text_embs, float(params.log_temperature))
    if not with_grads:
        return loss, None
    grads = model_backward(params, [(text_cache, g.d_text)], [(audio_cache, g.d_audio)])
    grads.log_temperature += g.d_log_temperature
    return loss, grads


def dissimilarity_through_encoders(
    params: ModelParams, vocab: Vocabulary, anchor_captions: Sequence[Caption],
    negated_captions: Sequence[Caption], with_grads: bool = True,
) -> tuple[float, ParamGrads | None]:
    """Dissimilarity loss of paired caption batches, with full parameter gradients."""
    if len(anchor_captions) != len(negated_captions):
        raise ValueError("anchor and negated caption batches must have equal length")
    anchor_embs, anchor_cache = encode_text_batch(params, anchor_captions, vocab)
    negated_embs, negated_cache = encode_text_batch(params, negated_captions, vocab)
    loss, g = dissimilarity_loss(anchor_embs, negated_embs)
    if not with_grads:
        return loss, None
    grads = model_backward(
        params, [(anchor_cache, g.d_anchor), (negated_cache, g.d_negated)], []
    )
    return loss, grads


def total_loss_through_encoders(
    params: ModelParams, vocab: Vocabulary, audio_features: np.ndarray,
    clap_captions: Sequence[Caption], *, k: float,
    anchor_captions: Sequence[Caption] | None = None,
    negated_captions: Sequence[Caption] | None = None,
    with_grads: bool = True,
) -> tuple[LossBreakdown, ParamGrads | None]:
    """Full-chain loss for one training step.

    The contrastive term sees (audio, clap_captions); the dissimilarity term,
    when k > 0 and pairs are given, sees (anchor_captions, negated_captions),
    which lets the contrastive side use augmented captions while the
    repulsion anchors stay on the originals.
    """
    if k < 0:
        raise ValueError(f"term weight k must be nonnegative, got {k}")
    if (anchor_captions is None) != (negated_captions is None):
        raise ValueError("anchor and negated captions must be supplied together")
    audio_embs, audio_cache = encode_audio_batch(params, audio_features)
    text_embs, text_cache = encode_text_batch(params, clap_captions, vocab)
    anchor_embs = negated_embs = None
    anchor_cache = negated_cache = None
    if anchor_captions is not None:
        if len(anchor_captions) != len(negated_captions):
            raise ValueError("anchor and negated caption batches must have equal length")
        anchor_embs, anchor_cache = encode_text_batch(params, anchor_captions, vocab)
        negated_embs, negated_cache = encode_text_batch(params, negated_captions, vocab)
    breakdown, g = total_loss(
        audio_embs, text_embs, k=k, log_temperature=float(params.log_temperature),
        anchor_embs=anchor_embs, negated_embs=negated_embs,
    )
    if not with_grads:
        return breakdown, None
    text_passes = [(text_cache, g.d_text)]
    if anchor_cache is not None:
        text_passes += [(anchor_cache, g.d_anchor), (negated_cache, g.d_negated)]
    grads = model_backward(params, text_passes, [(audio_cache, g.d_audio)])
    grads.log_temperature += g.d_log_temperature
    return breakdown, grads
