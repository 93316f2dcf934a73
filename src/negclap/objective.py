"""Training objective: symmetric contrastive loss plus a weighted dissimilarity term.

The contrastive term is a symmetric softmax cross-entropy over a
temperature-scaled audio/text similarity matrix.  The dissimilarity term is
1 + mean cosine between each caption embedding and the embedding of its
fully negated counterpart; minimizing it pushes the pair apart, and for
unit-norm inputs its value lies in [0, 2].  Gradients flow into both sides
of every pair (no stop-gradient anywhere).

``clap_loss`` and ``dissimilarity_loss`` work on (unit-norm) embedding
matrices and return their gradients with respect to them.
``total_loss_through_encoders`` is the one chain from captions, given as
bucket ids, and audio features to full parameter gradients: it encodes,
calls both losses, weights the dissimilarity gradients by ``k`` and runs
``model_backward`` once.  The two ``*_through_encoders`` wrappers evaluate
one term each through that chain, for the gradient oracle.  Everything
accumulates in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .model import (
    CaptionIds,
    ModelParams,
    ParamGrads,
    encode_audio_batch,
    encode_token_lists,
    model_backward,
)


@dataclass(frozen=True)
class LossBreakdown:
    l_clap: float
    l_diss: float
    l_total: float


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
              log_temperature: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Symmetric contrastive cross-entropy over exp(log_temperature)-scaled cosines.

    Entry (i, j) of the logit matrix scores audio i against caption j; the
    diagonal holds the matching pairs.  Rows are the audio-to-text
    direction, columns text-to-audio, and the loss averages both.  Returns
    ``(loss, d_audio, d_text, d_log_temperature)``.
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
    return float(loss), d_audio, d_text, float(np.sum(g_scores * scores))


def dissimilarity_loss(caption_embs: np.ndarray,
                       negated_embs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """1 + mean cosine between paired caption / fully-negated embeddings.

    The value is clipped to [0, 2], the range it spans for unit-norm
    inputs; the gradients are those of the unclipped expression.  Returns
    ``(loss, d_anchor, d_negated)``.
    """
    B = _check_batch(caption_embs, negated_embs)
    # rounding can land antipodal or identical unit pairs an ulp outside [0, 2]
    loss = min(max(1.0 + float(np.sum(caption_embs * negated_embs)) / B, 0.0), 2.0)
    return loss, negated_embs / B, caption_embs / B


def total_loss_through_encoders(
    params: ModelParams, audio_features: np.ndarray | None,
    clap_ids: CaptionIds | None, *, k: float,
    anchor_ids: CaptionIds | None = None,
    negated_ids: CaptionIds | None = None,
    with_grads: bool = True,
) -> tuple[LossBreakdown, ParamGrads | None]:
    """l_clap + k * l_diss of one training step, with full parameter gradients.

    Captions arrive as bucket ids (see ``TokenTable.ids``).  The contrastive
    term sees (audio_features, clap_ids); the dissimilarity term, when pairs
    are given, sees (anchor_ids, negated_ids), which lets the contrastive
    side use augmented captions while the repulsion anchors stay on the
    originals.  A term whose inputs are None is left out and reported as 0.
    """
    if k < 0:
        raise ValueError(f"term weight k must be nonnegative, got {k}")
    if (audio_features is None) != (clap_ids is None):
        raise ValueError("audio features and contrastive captions must be supplied together")
    if (anchor_ids is None) != (negated_ids is None):
        raise ValueError("anchor and negated captions must be supplied together")
    text_passes, audio_passes = [], []
    l_clap = l_diss = d_log_temperature = 0.0
    if clap_ids is not None:
        audio_embs, audio_cache = encode_audio_batch(params, audio_features)
        text_embs, text_cache = encode_token_lists(params, clap_ids)
        l_clap, d_audio, d_text, d_log_temperature = clap_loss(
            audio_embs, text_embs, float(params.log_temperature))
        text_passes.append((text_cache, d_text))
        audio_passes.append((audio_cache, d_audio))
    if anchor_ids is not None:
        anchor_embs, anchor_cache = encode_token_lists(params, anchor_ids)
        negated_embs, negated_cache = encode_token_lists(params, negated_ids)
        l_diss, d_anchor, d_negated = dissimilarity_loss(anchor_embs, negated_embs)
        text_passes += [(anchor_cache, k * d_anchor), (negated_cache, k * d_negated)]
    breakdown = LossBreakdown(l_clap=l_clap, l_diss=l_diss, l_total=l_clap + k * l_diss)
    if not with_grads:
        return breakdown, None
    grads = model_backward(params, text_passes, audio_passes)
    grads.log_temperature += d_log_temperature
    return breakdown, grads


def clap_loss_through_encoders(
    params: ModelParams, audio_features: np.ndarray, clap_ids: CaptionIds,
    with_grads: bool = True,
) -> tuple[float, ParamGrads | None]:
    """Contrastive loss of a batch alone, with full parameter gradients."""
    breakdown, grads = total_loss_through_encoders(
        params, audio_features, clap_ids, k=0.0, with_grads=with_grads)
    return breakdown.l_clap, grads


def dissimilarity_through_encoders(
    params: ModelParams, anchor_ids: CaptionIds,
    negated_ids: CaptionIds, with_grads: bool = True,
) -> tuple[float, ParamGrads | None]:
    """Dissimilarity loss of paired caption batches alone, with full parameter gradients."""
    breakdown, grads = total_loss_through_encoders(
        params, None, None, k=1.0, anchor_ids=anchor_ids, negated_ids=negated_ids,
        with_grads=with_grads)
    return breakdown.l_diss, grads
