"""Training objective: symmetric contrastive loss plus a weighted dissimilarity term.

The contrastive term is a symmetric softmax cross-entropy over a
temperature-scaled audio/text similarity matrix.  The dissimilarity term is
1 + mean cosine between each caption embedding and the embedding of its
fully negated counterpart; minimizing it pushes the pair apart, and for
unit-norm inputs its value lies in [0, 2].  Gradients flow into both sides
of every pair (no stop-gradient anywhere).

``clap_loss`` and ``dissimilarity_loss`` work on (unit-norm) embedding
matrices and return their gradients with respect to them.
``total_loss_through_encoders`` is the one chain from a step's captions,
given as one block of bucket ids, and audio features to full parameter
gradients: it encodes the captions once, calls both losses on slices of
the embeddings, weights the dissimilarity gradients by ``k`` and runs
``model_backward`` once.  Everything accumulates in float64.
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


def _check_batch(first: np.ndarray, second: np.ndarray) -> int:
    if first.ndim != 2 or first.shape[0] == 0:
        raise ValueError(f"expected a nonempty (B, d) embedding matrix, got {first.shape}")
    if second.shape != first.shape:
        raise ValueError(f"embedding shapes differ: {second.shape} vs {first.shape}")
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
    loss = -0.5 * (log_p_rows.diagonal().mean() + log_p_cols.diagonal().mean())

    # softmax rows plus softmax columns, less the identity twice, in that order
    g_scores = np.exp(log_p_rows)
    diag = g_scores.reshape(-1)[::B + 1]  # a view of the diagonal
    diag -= 1.0
    g_scores += np.exp(log_p_cols)
    diag -= 1.0
    g_scores /= 2.0 * B
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
    params: ModelParams, audio_features: np.ndarray | None, text_ids: CaptionIds, *,
    k: float, with_grads: bool = True,
) -> tuple[LossBreakdown, ParamGrads | None]:
    """l_clap + k * l_diss of one training step, with full parameter gradients.

    ``text_ids`` holds the step's captions as bucket ids (see
    ``TokenTable.ids``): the ``len(audio_features)`` contrastive captions
    (none when ``audio_features`` is None), then the dissimilarity anchors,
    then their negated counterparts, two halves of equal length.  So the
    contrastive side may see augmented captions while the anchors stay on
    the originals.  One text pass encodes them all; a term without captions
    is left out and reported as 0.
    """
    if k < 0:
        raise ValueError(f"term weight k must be nonnegative, got {k}")
    n_clap = 0 if audio_features is None else len(audio_features)
    n_pairs, odd = divmod(len(text_ids) - n_clap, 2)
    if n_pairs < 0 or odd:
        raise ValueError(f"expected {n_clap} contrastive captions, then anchors and negated "
                         f"captions in two halves of equal length; got {len(text_ids)} captions")
    text_embs, text_cache = encode_token_lists(params, text_ids)
    d_text = np.empty_like(text_embs)  # every row is written below
    l_clap = l_diss = d_log_temperature = 0.0
    audio = None
    if audio_features is not None:
        audio_embs, audio_cache = encode_audio_batch(params, audio_features)
        l_clap, d_audio, d_text[:n_clap], d_log_temperature = clap_loss(
            audio_embs, text_embs[:n_clap], float(params.log_temperature))
        audio = (audio_cache, d_audio)
    if n_pairs:
        middle = n_clap + n_pairs
        l_diss, d_anchor, d_negated = dissimilarity_loss(text_embs[n_clap:middle],
                                                         text_embs[middle:])
        np.multiply(k, d_anchor, out=d_text[n_clap:middle])
        np.multiply(k, d_negated, out=d_text[middle:])
    breakdown = LossBreakdown(l_clap=l_clap, l_diss=l_diss, l_total=l_clap + k * l_diss)
    if not with_grads:
        return breakdown, None
    grads = model_backward(params, (text_cache, d_text), audio)
    grads.log_temperature += d_log_temperature
    return breakdown, grads
