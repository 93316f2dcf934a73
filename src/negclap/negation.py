"""Caption edits that introduce negation.

Three edits over captions:

* an insert adds one negated mention of a tag that is absent from the
  caption (training-time augmentation, with probability p_aug);
* half and full negation negate ceil(T/2) / all of the caption's T
  non-negated mentions (used to build the evaluation variants and the
  repulsion pairs for the dissimilarity objective).

Each edit is a draw followed by an apply, so it is a deterministic function
of (input, RNG state).  The draws (``draw_inserts``, ``draw_insert``,
``draw_halves``, ``draw_negators``) make every generator call.  The apply
(``insert_ids``, ``negate_ids``) edits captions given as kinds (see
``Dataset``): an insert puts one negated mention's kind into a caption's
row of kinds, and a negation swaps a plain mention's kind for its negated
kind, so no caption object is built per edit.  Mentions that are already
negated are never touched, so negation never stacks.

The negator draws of several mentions, or of several captions, are one
``rng.integers(0, n, size=m)`` call.  numpy fills it one value at a time
with the same generator calls as m scalar draws, so the values and the
generator's end state are those of the scalar draws.  ``draw_halves`` goes
further: it replays every caption's ``rng.choice`` and negator draws from
one ``rng.integers`` call with an array of bounds.
"""

from __future__ import annotations

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
    kinds, and the tag an index into its unused tags in
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

    Caption i has ``n_slots[i]`` kinds and leaves ``n_unused[i]``
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


# Generator.choice(n, k, replace=False) runs Floyd's algorithm up to this many
# items and a tail shuffle above it
_FLOYD_MAX_ITEMS = 10_000


def draw_halves(n_plain: Sequence[int], n_negators: int, rng: np.random.Generator,
                with_fully: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half negations' draws for a run of captions, in one generator call.

    Caption i has ``n_plain[i]`` plain mentions.  Its draws are those of
    ``rng.choice(n, ceil(n/2), replace=False)``, which picks the mentions to
    negate, then of ``rng.integers`` for the negators of the picked mentions
    followed, ``with_fully``, by those of all its plain mentions (a full
    negation of the same caption).  Returns the picked mentions as indices
    among all captions' plain mentions, ascending, and the half and the full
    negation's negators, each in that order (the second empty unless
    ``with_fully``).  A caption with no plain mention raises ValueError
    after the draws of the captions before it.

    Every one of these draws is numpy's bounded 32-bit draw, and every bound
    follows from the counts, so one ``rng.integers(0, bounds + 1)`` makes
    them all with the same values and the same end state.  For n plain
    mentions and k = ceil(n/2), ``choice`` makes Floyd's draws with bounds
    n-k ... n-1 and then shuffles its k picks with bounds k-1 ... 1; above
    ``_FLOYD_MAX_ITEMS`` it makes a tail shuffle of range(n) with bounds
    n-1 ... n-k instead.  A bound of 0 consumes nothing.  The picks are
    then rebuilt from the draws without another one; their order does not
    matter, so the shuffle draws are only consumed.
    """
    counts = np.asarray(n_plain, dtype=np.intp)
    if not counts.all():  # draw the captions before the first one without a plain mention
        draw_halves(counts[:np.argmin(counts)], n_negators, rng, with_fully)
        raise ValueError(_NO_PLAIN_MENTION)
    halves = (counts + 1) // 2
    floyd = counts <= _FLOYD_MAX_ITEMS
    # a caption's draws are three runs: choice's picks, its shuffle, the negators;
    # draw d of a run that starts at bound b and steps by s has bound b + s * d
    runs = np.stack([halves, np.where(floyd, halves - 1, 0),
                     halves + counts * with_fully], 1).ravel()
    start = np.stack([np.where(floyd, counts - halves, counts - 1), halves - 1,
                      np.full_like(counts, n_negators - 1)], 1).ravel()
    step = np.stack([np.where(floyd, 1, -1), np.full_like(counts, -1),
                     np.zeros_like(counts)], 1).ravel()
    at = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    bounds = np.repeat(start, runs) + np.repeat(step, runs) * at
    draws = rng.integers(0, bounds + 1)
    run = np.repeat(np.tile(np.arange(3), len(counts)), runs)

    choose = run == 0
    pick, value, bound = at[choose], draws[choose], bounds[choose]
    caption = np.repeat(np.arange(len(counts)), halves)  # of each pick
    offset = np.cumsum(counts) - counts  # each caption's first plain mention
    picked = np.zeros(counts.sum(), dtype=bool)
    # Floyd's rule, pick t of every caption at once: a draw equal to one of the
    # caption's earlier picks becomes the pick's bound
    by_floyd = np.flatnonzero(floyd[caption])
    by_pick = by_floyd[np.argsort(pick[by_floyd], kind="stable")]
    for at_t in np.split(by_pick, np.cumsum(np.bincount(pick[by_floyd]))[:-1]):
        first = offset[caption[at_t]]
        mention = first + value[at_t]
        mention = np.where(picked[mention], first + bound[at_t], mention)
        picked[mention] = True
    # the tail shuffle swaps position j with its draw; the picks are the last k
    for i in np.flatnonzero(~floyd).tolist():
        order, own = list(range(counts[i])), caption == i
        for j, d in zip(bound[own].tolist(), value[own].tolist()):
            order[j], order[d] = order[d], order[j]
        picked[offset[i] + np.array(order[counts[i] - halves[i]:], dtype=np.intp)] = True
    mentions = np.flatnonzero(picked)

    negators = draws[run == 2]
    if not with_fully:
        return mentions, negators, negators[:0]
    in_half = at[run == 2] < np.repeat(halves, runs[2::3])
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
