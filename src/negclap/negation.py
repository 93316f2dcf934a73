"""Caption transformations that introduce negation.

Three operations over structured captions:

* ``negation_insert`` adds one negated mention of a tag that is absent from
  the caption (training-time augmentation).
* ``half_negate`` / ``fully_negate`` negate ceil(T/2) / all of the caption's
  present tags (used to build the evaluation variants and the repulsion
  pairs for the dissimilarity objective).

All three are deterministic functions of (input, RNG state).  Mentions that
are already negated are never touched, so negation never stacks.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import Caption, TagMention, Vocabulary


class AugmentationExhausted(RuntimeError):
    """Raised when every vocabulary tag already occurs in the caption."""


def negation_insert(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Insert one negated, absent tag at a uniformly chosen token gap.

    The gap is uniform over the len(tokens)+1 positions, the tag uniform over
    vocabulary tags not mentioned in the caption, and the negator uniform
    over the vocabulary negators.  All original tokens keep their order.
    """
    present = caption.tag_ids()
    unused = sorted(set(range(len(vocab.tags))) - present)
    if not unused:
        raise AugmentationExhausted(
            f"all {len(vocab.tags)} vocabulary tags already occur in the caption"
        )
    gap = int(rng.integers(0, len(caption.tokens) + 1))
    tag_id = unused[int(rng.integers(0, len(unused)))]
    negator = vocab.negators[int(rng.integers(0, len(vocab.negators)))]
    mention = TagMention(tag_id, negated=True, negator=negator)
    tokens = caption.tokens[:gap] + (mention,) + caption.tokens[gap:]
    return Caption(tokens=tokens)


def _negate_selected(caption: Caption, selected: set[int], vocab: Vocabulary,
                     rng: np.random.Generator) -> Caption:
    # selected holds token positions; each gets an independent negator draw
    tokens = list(caption.tokens)
    for pos in sorted(selected):
        mention = tokens[pos]
        negator = vocab.negators[int(rng.integers(0, len(vocab.negators)))]
        tokens[pos] = TagMention(mention.tag_id, negated=True, negator=negator)
    return Caption(tokens=tuple(tokens))


def _plain_mention_positions(caption: Caption) -> list[int]:
    return [
        i for i, t in enumerate(caption.tokens)
        if isinstance(t, TagMention) and not t.negated
    ]


def half_negate(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Negate ceil(T/2) of the T non-negated mentions, chosen uniformly."""
    positions = _plain_mention_positions(caption)
    if not positions:
        raise ValueError("caption has no non-negated tag mention")
    n_pick = math.ceil(len(positions) / 2)
    picked = rng.choice(len(positions), size=n_pick, replace=False)
    selected = {positions[int(i)] for i in picked}
    return _negate_selected(caption, selected, vocab, rng)


def fully_negate(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Negate every non-negated mention, each with its own negator draw."""
    positions = _plain_mention_positions(caption)
    if not positions:
        raise ValueError("caption has no non-negated tag mention")
    return _negate_selected(caption, set(positions), vocab, rng)


def apply_augmentation(caption: Caption, vocab: Vocabulary, p_aug: float,
                       rng: np.random.Generator) -> Caption:
    """With probability ``p_aug`` return negation_insert(caption), else caption.

    The Bernoulli draw and any inner draws come from ``rng``; the input
    object is returned unchanged when the draw fails.  AugmentationExhausted
    propagates so callers can decide on a fallback.  A ``p_aug`` outside
    [0, 1] raises ValueError before any draw.
    """
    if not 0.0 <= p_aug <= 1.0:
        raise ValueError(f"p_aug must lie in [0, 1], got {p_aug}")
    if rng.random() < p_aug:
        return negation_insert(caption, vocab, rng)
    return caption
