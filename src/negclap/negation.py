"""Caption edits that introduce negation.

Three edits over structured captions:

* an insert adds one negated mention of a tag that is absent from the
  caption (training-time augmentation, with probability p_aug);
* half and full negation negate ceil(T/2) / all of the caption's T
  non-negated mentions (used to build the evaluation variants and the
  repulsion pairs for the dissimilarity objective).

Each edit is a draw followed by an apply, so it is a deterministic function
of (input, RNG state).  The draws (``draw_inserts``, ``draw_insert``,
``draw_half``, ``draw_halves``, ``draw_negators``) make every generator
call.  The apply (``insert_ids``, ``negate_ids``) edits captions given as
structured-token kinds (see ``TokenTable``): an insert puts one negated
mention's kind into a caption's row of kinds, and a negation swaps a plain
mention's kind for its negated kind, so no caption object is built per
edit.  ``TokenTable.captions`` maps edited kinds back to captions where they
are wanted (``edit_ids``, the edit ``negclap augment`` writes).  Mentions
that are already negated are never touched, so negation never stacks.

The negator draws of several mentions, or of several captions, are one
``rng.integers(0, n, size=m)`` call.  numpy fills it one value at a time
with the same generator calls as m scalar draws, so the values and the
generator's end state are those of the scalar draws.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

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


def draw_inserts(n_slots: Sequence[int], n_unused: Sequence[int], n_negators: int,
                 p_aug: float, rng: np.random.Generator
                 ) -> tuple[list[tuple[int, int, int, int]], int]:
    """The insert augmentation's draws for a run of captions, caption by caption.

    Caption i has ``n_slots[i]`` structured tokens and leaves ``n_unused[i]``
    vocabulary tags unused.  It gets an insert with probability ``p_aug``: a
    Bernoulli draw, then ``draw_insert``'s draws when it succeeds.  Returns
    ``(i, gap, unused tag, negator)`` per insert, and the number of captions
    whose Bernoulli draw succeeded but that leave no tag unused; those get
    no insert.  At ``p_aug == 0`` the Bernoulli draws are one
    ``rng.random(n)``, the same stream as n scalar draws.  A ``p_aug``
    outside [0, 1] raises ValueError before any draw.
    """
    if not 0.0 <= p_aug <= 1.0:
        raise ValueError(f"p_aug must lie in [0, 1], got {p_aug}")
    inserts, n_exhausted = [], 0
    if p_aug == 0:
        rng.random(len(n_slots))
        return inserts, n_exhausted
    for i, (slots, unused) in enumerate(zip(n_slots, n_unused)):
        if rng.random() < p_aug:
            try:
                inserts.append((i, *draw_insert(slots, unused, n_negators, rng)))
            except AugmentationExhausted:
                n_exhausted += 1
    return inserts, n_exhausted


def draw_half(n_plain: int, rng: np.random.Generator) -> np.ndarray:
    """Which ceil(n/2) of a caption's n plain mentions to negate, ascending.

    Raises ValueError before any draw when the caption has no plain mention.
    ``draw_halves`` makes this draw for a run of captions.
    """
    if not n_plain:
        raise ValueError(_NO_PLAIN_MENTION)
    return np.sort(rng.choice(n_plain, size=math.ceil(n_plain / 2), replace=False))


def draw_halves(n_plain: Sequence[int], n_negators: int, rng: np.random.Generator,
                with_fully: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half negations' draws for a run of captions, caption after caption.

    Caption i has ``n_plain[i]`` plain mentions.  Its draws are
    ``draw_half``'s ``choice``, then one ``rng.integers`` call for the
    negators of the picked mentions followed, ``with_fully``, by those of
    all its plain mentions (a full negation of the same caption).  Returns
    the picked mentions as indices among all captions' plain mentions,
    ascending, and the half and the full negation's negators, each in that
    order (the second empty unless ``with_fully``).  A caption with no
    plain mention raises ValueError after the draws of the captions before it.
    """
    counts = np.asarray(n_plain, dtype=np.intp)
    picks, draws = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for n in counts.tolist():
        if not n:
            raise ValueError(_NO_PLAIN_MENTION)
        picks.append(rng.choice(n, size=(n + 1) // 2, replace=False))
        draws.append(rng.integers(0, n_negators, size=(n + 1) // 2 + (n if with_fully else 0)))
    halves = (counts + 1) // 2
    # caption i's picks lie in [first_i, first_i + n_i), so one sort orders every run
    mentions = np.sort(np.concatenate(picks) + np.repeat(np.cumsum(counts) - counts, halves))
    negators = np.concatenate(draws)
    if not with_fully:
        return mentions, negators, negators[:0]
    runs = halves + counts
    # each negator's place in its caption's run: the first halves[i] are the half's
    at = np.arange(len(negators)) - np.repeat(np.cumsum(runs) - runs, runs)
    in_half = at < np.repeat(halves, runs)
    return mentions, negators[in_half], negators[~in_half]


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
    """The id apply of an insert, for caption ``rows[j]`` with draws j.

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


def edit_ids(edit: str, slots: TokenIds, table: TokenTable, p_aug: float,
             rng: np.random.Generator) -> tuple[TokenIds, int]:
    """Every caption with one ``edit`` drawn and applied, and the number it skipped.

    ``slots`` holds the captions as kinds of ``table``, and ``edit`` is
    "insert" (with probability ``p_aug``; see ``draw_inserts``, whose
    exhausted captions keep their kinds and are the count returned),
    "half" or "fully".  The draws come from ``rng`` caption after caption:
    for "half" ``draw_halves``' draws, for "fully" every caption's negators
    in one ``draw_negators`` call.  A caption with no plain mention makes
    "half" and "fully" raise ValueError after the draws of the captions
    before it.
    """
    n_negators = len(table.vocab.negators)
    n_plain, n_unused = (counts.tolist() for counts in edit_counts(slots, table))
    if edit == "insert":
        inserts, n_exhausted = draw_inserts(slots.lens.tolist(), n_unused, n_negators, p_aug, rng)
        rows, gaps, unused, negators = np.array(inserts, dtype=np.intp).reshape(-1, 4).T
        return insert_ids(slots, rows, gaps, unused, negators, table), n_exhausted
    if edit == "half":
        mentions, negators, _ = draw_halves(n_plain, n_negators, rng)
        return negate_ids(slots, mentions, negators, table), 0
    if edit != "fully":
        raise ValueError(f"unknown edit {edit!r}")
    negators = draw_negators(n_plain, n_negators, rng)
    return negate_ids(slots, np.arange(len(negators)), negators, table), 0
