"""The caption apply of the negation edits: a reference for the id apply.

Each function makes the same draws as the package (``negation.draw_*``) and
applies them to a ``Caption`` directly, building a new caption per edit.
The package applies the draws to kinds instead
(``negation.insert_ids``/``negate_ids``); the tests compare the two over the
same generator stream, reading kinds back as captions with
``kind_captions``.  ``dataset_of`` builds a ``Dataset``'s columns from
``(AudioClip, Caption)`` pairs, ``templated_caption`` is the caption
``generate_dataset`` lays out as kinds, and ``render_caption`` is a
caption's text, the string reference for ``TokenTable.ids``.  The half negation's draws
are also kept here caption by caption, ``draw_half`` (one ``rng.choice``)
then ``draw_negators`` per caption, as the reference for
``negation.draw_halves``, which replays them from one generator call.
``tag_mentions``, ``mentioned_tags`` and ``is_negated`` read a caption's
mentions; only tests need them, so the package's ``Caption`` has none.
"""

import math
from typing import Sequence

import numpy as np

from negclap import corpus, evaluation
from negclap.corpus import Caption, Dataset, TagMention, Vocabulary, Word
from negclap.model import TokenIds, TokenTable, caption_kinds
from negclap.negation import (
    AugmentationExhausted,
    draw_insert,
    draw_negators,
    edit_counts,
    negate_ids,
)
from negclap.seeding import seeded_rng


def tag_mentions(caption: Caption) -> tuple[TagMention, ...]:
    """The caption's tag mentions, in order."""
    return tuple(t for t in caption.tokens if isinstance(t, TagMention))


def mentioned_tags(caption: Caption) -> frozenset[int]:
    """Ids of all tags the caption mentions, negated or not."""
    return frozenset(m.tag_id for m in tag_mentions(caption))


def is_negated(mention: TagMention) -> bool:
    return mention.negator is not None


def render_caption(caption: Caption, vocab: Vocabulary) -> str:
    """The caption's tokens joined by single spaces: a word verbatim, a mention as
    ``[negator] surface``."""
    def text(token):
        if isinstance(token, Word):
            return token.text
        surface = vocab.surfaces[token.tag_id]
        return surface if token.negator is None else f"{token.negator} {surface}"
    return " ".join(map(text, caption.tokens))


def kind_captions(table: TokenTable, slots: TokenIds) -> list[Caption]:
    """Captions given as kinds of ``table``, as ``Caption``s."""
    vocab = table.vocab
    tokens = [TagMention(t, n) for t in range(len(vocab)) for n in (None, *vocab.negators)]
    tokens += [Word(w) for w in table.words]
    kinds, at = slots.ids.tolist(), np.cumsum(slots.lens).tolist()
    return [Caption(tuple(tokens[k] for k in kinds[b - n:b]))
            for b, n in zip(at, slots.lens.tolist())]


def caption_ids(captions: Sequence[Caption], vocab: Vocabulary, n_buckets: int):
    """The captions' bucket ids over ``n_buckets`` buckets, through their kinds."""
    table, slots = caption_kinds(captions, vocab)
    return table.ids(slots, n_buckets)


def dataset_of(vocab: Vocabulary, pairs, split: str = "train",
               features: np.ndarray | None = None) -> Dataset:
    """A dataset of ``(AudioClip, Caption)`` pairs; its feature matrix is ``features``,
    or the clips' features stacked."""
    table, kinds = caption_kinds([caption for _, caption in pairs], vocab)
    tags = [sorted(clip.tag_ids) for clip, _ in pairs]
    if features is None:
        features = np.array([clip.features for clip, _ in pairs])
    return Dataset(vocab, split, np.array([clip.id for clip, _ in pairs], dtype=np.int64),
                   TokenIds(np.array([t for ts in tags for t in ts], np.intp),
                            np.array(list(map(len, tags)), np.intp)),
                   features, table.words, kinds)


def templated_caption(tags: Sequence[int], template_index: int) -> Caption:
    """Template ``template_index`` (cycled) over plain mentions of ``tags``, in order."""
    if not tags:
        raise ValueError("a caption needs at least one tag")
    prefix, mid, suffix = (tuple(map(Word, part)) for part in
                           corpus._TEMPLATES[template_index % len(corpus._TEMPLATES)])
    tokens = [*prefix, TagMention(tags[0])]
    if len(tags) > 1:
        tokens += [*mid, TagMention(tags[1])]
        for t in tags[2:]:
            tokens += [Word("and"), TagMention(t)]
    return Caption(tuple(tokens + list(suffix)))


def draw_half(n_plain: int, rng: np.random.Generator) -> np.ndarray:
    """Which ceil(n/2) of a caption's n plain mentions to negate, ascending.

    Raises ValueError before any draw when the caption has no plain mention.
    """
    if not n_plain:
        raise ValueError("caption has no non-negated tag mention")
    return np.sort(rng.choice(n_plain, size=math.ceil(n_plain / 2), replace=False))


def negation_insert(caption: Caption, vocab: Vocabulary, rng: np.random.Generator) -> Caption:
    """Insert one negated, absent tag at a uniformly chosen token gap.

    The gap is uniform over the len(tokens)+1 positions, the tag uniform over
    vocabulary tags not mentioned in the caption, and the negator uniform
    over the vocabulary negators.  All original tokens keep their order.
    """
    unused = sorted(set(range(len(vocab))) - mentioned_tags(caption))
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
    propagates so callers can decide on a fallback.
    """
    if rng.random() < p_aug:
        return negation_insert(caption, vocab, rng)
    return caption


def augment_captions(edit: str, captions: Sequence[Caption], vocab: Vocabulary, p_aug: float,
                     rng: np.random.Generator) -> tuple[list[Caption], int]:
    """``negation.edit_ids`` caption by caption: the edited captions and the skipped count.

    An insert whose vocabulary is exhausted keeps its caption and is counted;
    a half or full negation of a caption without a plain mention raises.
    """
    skipped, out = 0, []
    for caption in captions:
        if edit == "insert":
            try:
                caption = apply_augmentation(caption, vocab, p_aug, rng)
            except AugmentationExhausted:
                skipped += 1
        elif edit == "half":
            caption = half_negate(caption, vocab, rng)
        else:
            caption = fully_negate(caption, vocab, rng)
        out.append(caption)
    return out, skipped


def variant_captions(dataset: Dataset, eval_seed: int) -> dict[str, list[Caption]]:
    """The eval variants as captions, rebuilt caption by caption from the variants' stream."""
    rng = seeded_rng(eval_seed, evaluation._VARIANTS_STREAM)
    out = {"original": [], "half": [], "fully": []}
    for _, caption in dataset.pairs:
        out["original"].append(caption)
        out["half"].append(half_negate(caption, dataset.vocabulary, rng))
        out["fully"].append(fully_negate(caption, dataset.vocabulary, rng))
    return out


def _flat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, np.intp), *parts])


def halves_per_caption(n_plain: Sequence[int], n_negators: int, rng: np.random.Generator,
                       with_fully: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``negation.draw_halves`` drawn caption by caption: per caption ``draw_half``,
    then one ``rng.integers`` call for the half's negators followed, ``with_fully``,
    by the full negation's."""
    mentions, half, fully, first = [], [], [], 0
    for n in n_plain:
        picked = draw_half(n, rng)
        negators = rng.integers(0, n_negators, size=len(picked) + (n if with_fully else 0))
        mentions.append(first + picked)
        half.append(negators[:len(picked)])
        fully.append(negators[len(picked):])
        first += n
    return _flat(mentions), _flat(half), _flat(fully)


def half_edit_per_caption(slots: TokenIds, table: TokenTable,
                          rng: np.random.Generator) -> TokenIds:
    """``negation.edit_ids("half", ...)``'s kinds, drawn caption by caption:
    per caption ``draw_half``, then ``draw_negators`` for its picks."""
    mentions, negators, first = [], [], 0
    for n in edit_counts(slots, table)[0].tolist():
        picked = draw_half(n, rng)
        mentions.append(first + picked)
        negators.append(draw_negators([len(picked)], len(table.vocab.negators), rng))
        first += n
    return negate_ids(slots, _flat(mentions), _flat(negators), table)


def eval_variants_per_pair(test_dataset: Dataset, eval_seed: int) -> evaluation.EvalVariantSet:
    """``evaluation.build_eval_variants`` drawn pair by pair: per pair ``draw_half``,
    then the half and the full negation's negators in one ``draw_negators`` call."""
    table = TokenTable(test_dataset.vocabulary, test_dataset.words)
    source = test_dataset.captions
    rng = seeded_rng(eval_seed, evaluation._VARIANTS_STREAM)
    n_negators = len(table.vocab.negators)
    picked, half_negators, fully_negators = [], [], []
    first = 0  # index of the pair's first plain mention among all of them
    for n_plain in edit_counts(source, table)[0].tolist():
        half_mentions = draw_half(n_plain, rng)
        negators = draw_negators([len(half_mentions), n_plain], n_negators, rng)
        picked.append(first + half_mentions)
        half_negators.append(negators[:len(half_mentions)])
        fully_negators.append(negators[len(half_mentions):])
        first += n_plain
    half = negate_ids(source, _flat(picked), _flat(half_negators), table)
    fully = negate_ids(source, np.arange(first), _flat(fully_negators), table)
    return evaluation.EvalVariantSet(table, source, half, fully)
