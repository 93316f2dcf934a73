"""Caption transformations that introduce negation.

Three operations over structured captions:

* ``negation_insert`` adds one negated mention of a tag that is absent from
  the caption (training-time augmentation).
* ``half_negate`` / ``fully_negate`` negate ceil(T/2) / all of the caption's
  present tags (used to build the evaluation variants and the repulsion
  pairs for the dissimilarity objective).

All three are deterministic functions of (input, RNG state).  Mentions that
are already negated are never touched, so negation never stacks.

Each operation is a draw followed by an apply.  The draws (``draw_insert``,
``draw_half``, ``draw_negators``) make every generator call.  There are two
applies that read the same draws: the caption apply builds a new
``Caption`` (the three functions above), and the id apply (``insert_ids``,
``negate_ids``) edits captions given as structured-token kinds (see
``TokenTable``).  An insert puts one negated mention's kind into a
caption's row of kinds, and a negation swaps a plain mention's kind for its
negated kind, so the epoch plan and the evaluation variants build no
caption object per edit.

The negator draws of several mentions, or of several captions, are one
``rng.integers(0, n, size=m)`` call.  numpy fills it one value at a time
with the same generator calls as m scalar draws, so the values and the
generator's end state are those of the scalar draws.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .corpus import Caption, TagMention, Vocabulary
from .model import TokenIds, TokenTable


class AugmentationExhausted(RuntimeError):
    """Raised when every vocabulary tag already occurs in the caption."""


_NO_PLAIN_MENTION = "caption has no non-negated tag mention"


# ------------------------------------------------------------------ draws

def draw_insert(n_slots: int, n_unused: int, n_negators: int,
                rng: np.random.Generator) -> tuple[int, int, int]:
    """An insert's draws: the gap, the unused tag and the negator, each uniform.

    The gap is one of the ``n_slots + 1`` positions around a caption's
    structured tokens, and the tag an index into its unused tags in
    ascending order.  Raises AugmentationExhausted before any draw when no
    tag is unused.
    """
    if not n_unused:
        raise AugmentationExhausted("all vocabulary tags already occur in the caption")
    gap = int(rng.integers(0, n_slots + 1))
    unused = int(rng.integers(0, n_unused))
    return gap, unused, int(rng.integers(0, n_negators))


def draw_half(n_plain: int, rng: np.random.Generator) -> np.ndarray:
    """Which ceil(n/2) of a caption's n plain mentions to negate, ascending.

    Raises ValueError before any draw when the caption has no plain mention.
    """
    if not n_plain:
        raise ValueError(_NO_PLAIN_MENTION)
    return np.sort(rng.choice(n_plain, size=math.ceil(n_plain / 2), replace=False))


def draw_negators(counts: Sequence[int], n_negators: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Negator indices for runs of ``counts[i]`` mentions, in one draw.

    A count of zero is a caption with no plain mention to negate: the runs
    before it are drawn, then ValueError is raised, as negating the
    captions one at a time would.
    """
    counts = list(counts)
    if 0 in counts:
        rng.integers(0, n_negators, size=sum(counts[:counts.index(0)]))
        raise ValueError(_NO_PLAIN_MENTION)
    return rng.integers(0, n_negators, size=sum(counts))


# ------------------------------------------------------------ caption apply

def negation_insert(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Insert one negated, absent tag at a uniformly chosen token gap.

    The gap is uniform over the len(tokens)+1 positions, the tag uniform over
    vocabulary tags not mentioned in the caption, and the negator uniform
    over the vocabulary negators.  All original tokens keep their order.
    """
    unused = sorted(set(range(len(vocab.tags))) - caption.tag_ids())
    gap, k, negator = draw_insert(len(caption.tokens), len(unused), len(vocab.negators), rng)
    mention = TagMention(unused[k], vocab.negators[negator])
    return Caption(tokens=caption.tokens[:gap] + (mention,) + caption.tokens[gap:])


def _plain_mention_positions(caption: Caption) -> list[int]:
    return [
        i for i, t in enumerate(caption.tokens)
        if isinstance(t, TagMention) and t.negator is None
    ]


def _negate_at(caption: Caption, positions: Sequence[int], negators: np.ndarray,
               vocab: Vocabulary) -> Caption:
    tokens = list(caption.tokens)
    for pos, negator in zip(positions, negators.tolist()):
        tokens[pos] = TagMention(tokens[pos].tag_id, vocab.negators[negator])
    return Caption(tokens=tuple(tokens))


def half_negate(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Negate ceil(T/2) of the T non-negated mentions, chosen uniformly."""
    positions = _plain_mention_positions(caption)
    picked = draw_half(len(positions), rng)
    negators = draw_negators([len(picked)], len(vocab.negators), rng)
    return _negate_at(caption, [positions[i] for i in picked.tolist()], negators, vocab)


def fully_negate(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Negate every non-negated mention, each with its own negator draw."""
    positions = _plain_mention_positions(caption)
    negators = draw_negators([len(positions)], len(vocab.negators), rng)
    return _negate_at(caption, positions, negators, vocab)


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


# ----------------------------------------------------------------- id apply

def _presence(slots: TokenIds, table: TokenTable) -> np.ndarray:
    """``(captions, n_tags)`` flags: whether caption i mentions tag t, negated or not."""
    tags, _ = table.tags(slots)
    mention = tags >= 0
    out = np.zeros((len(slots), len(table.vocab)), dtype=bool)
    out[slots.rows()[mention], tags[mention]] = True
    return out


def edit_counts(slots: TokenIds, table: TokenTable) -> tuple[np.ndarray, np.ndarray]:
    """Each caption's number of plain mentions, and of vocabulary tags it leaves unused."""
    _, plain = table.tags(slots)
    return (np.bincount(slots.rows()[plain], minlength=len(slots)),
            len(table.vocab) - _presence(slots, table).sum(axis=1))


def insert_ids(slots: TokenIds, rows: np.ndarray, gaps: np.ndarray, unused: np.ndarray,
               negators: np.ndarray, table: TokenTable) -> TokenIds:
    """The id apply of ``negation_insert``, for caption ``rows[j]`` with draws j.

    ``slots`` holds the captions' kinds (see ``TokenTable``), ``gaps``,
    ``unused`` and ``negators`` are ``draw_insert``'s draws, and ``rows`` is
    strictly increasing.  The inserted kind is the ``unused[j]``-th tag
    absent from the caption, read off its presence row, negated by negator
    ``negators[j]``.
    """
    absent = ~_presence(slots, table)[rows]
    tags = np.argmax(np.cumsum(absent, axis=1) > unused[:, None], axis=1)
    return slots.insert(rows, gaps, table.mention[tags, 1 + negators])


def negate_ids(slots: TokenIds, mentions: np.ndarray, negators: np.ndarray,
               table: TokenTable) -> TokenIds:
    """The id apply of negating plain mentions: each one's kind becomes its negated kind.

    ``mentions`` indexes the plain mentions of ``slots``, caption then
    position order, ascending, and ``negators[j]`` is the negator drawn for
    mention j.
    """
    tags, plain = table.tags(slots)
    at = np.flatnonzero(plain)[mentions]
    ids = slots.ids.copy()
    ids[at] = table.mention[tags[at], 1 + negators]
    return TokenIds(ids, slots.lens)
