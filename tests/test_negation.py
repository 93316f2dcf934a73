"""The negation edits on the package's path: ``edit_ids`` on kinds, decoded to captions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caption_apply import kind_captions, render_caption
from negclap.corpus import Caption, TagMention, Vocabulary, Word
from negclap.model import caption_kinds
from negclap.negation import AugmentationExhausted, draw_insert, edit_ids
from negclap.seeding import seeded_rng

NEGATORS = ("not", "no", "without")


def big_vocab(n=12):
    return Vocabulary(tuple(f"tag{i:02d}" for i in range(n)), NEGATORS)


def edit(name, captions, vocab, rng, p_aug=1.0):
    """``edit_ids`` over the captions' kinds, decoded: the edited captions and the skipped count."""
    table, slots = caption_kinds(captions, vocab)
    slots, skipped = edit_ids(name, slots, table, p_aug, rng)
    return kind_captions(table, slots), skipped


def edit_one(name, caption, vocab, rng):
    return edit(name, [caption], vocab, rng)[0][0]


def enumerate_insert_candidates(caption, vocab):
    """All captions an insert may produce: gap x unused tag x negator."""
    unused = sorted(set(range(len(vocab))) - caption.tag_ids())
    out = set()
    for gap in range(len(caption.tokens) + 1):
        for tag in unused:
            for neg in vocab.negators:
                mention = TagMention(tag, neg)
                out.add(Caption(caption.tokens[:gap] + (mention,) + caption.tokens[gap:]))
    return out


@st.composite
def captions(draw, n_tags=12):
    plain = draw(st.lists(st.sampled_from(range(n_tags)), min_size=1, max_size=4,
                          unique=True))
    negated_ids = draw(st.lists(st.sampled_from(range(n_tags)), max_size=2))
    words = draw(st.lists(st.sampled_from(["a", "with", "and", "song", "slow"]),
                          max_size=4))
    tokens = [TagMention(t) for t in plain]
    tokens += [TagMention(t, draw(st.sampled_from(NEGATORS))) for t in negated_ids]
    tokens += [Word(w) for w in words]
    tokens = draw(st.permutations(tokens))
    return Caption(tokens=tuple(tokens))


class TestNegationInsert:
    def test_worked_insertion_examples_are_reachable(self, song_vocab, tune_caption):
        rendered = set()
        for seed in range(400):
            out = edit_one("insert", tune_caption, song_vocab, seeded_rng(seed))
            rendered.add(render_caption(out, song_vocab))
        assert "a rock tune not pop with guitar and bass" in rendered
        assert "a rock tune with guitar and bass no drums" in rendered

    def test_output_always_in_enumerated_candidate_set(self, song_vocab, tune_caption):
        candidates = enumerate_insert_candidates(tune_caption, song_vocab)
        assert len(candidates) == (len(tune_caption.tokens) + 1) * 5 * 3
        for seed in range(200):
            out = edit_one("insert", tune_caption, song_vocab, seeded_rng(seed))
            assert out in candidates

    def test_exhausted_vocabulary(self):
        vocab = big_vocab(2)
        caption = Caption(tokens=(TagMention(0), TagMention(1)))
        with pytest.raises(AugmentationExhausted):
            draw_insert(len(caption.tokens), 0, len(vocab.negators), seeded_rng(0))
        # an insert leaves the caption as it is and counts it
        assert edit("insert", [caption], vocab, seeded_rng(0)) == ([caption], 1)

    @settings(max_examples=150, deadline=None)
    @given(captions(), st.integers(0, 2**32 - 1))
    def test_structural_invariants(self, caption, seed):
        vocab = big_vocab()
        rng = seeded_rng(seed)
        out = edit_one("insert", caption, vocab, rng)
        assert len(out.mentions()) == len(caption.mentions()) + 1
        new = set(out.tokens) - set(caption.tokens)
        # exactly one new negated mention of an absent tag
        assert len(new) == 1
        mention = next(iter(new))
        assert isinstance(mention, TagMention) and mention.negated
        assert mention.tag_id not in caption.tag_ids()
        assert mention.negator in NEGATORS
        # removing the inserted token restores the original sequence
        idx = out.tokens.index(mention)
        assert out.tokens[:idx] + out.tokens[idx + 1:] == caption.tokens


class TestHalfNegate:
    def test_three_tags_negates_two(self, song_vocab, tune_caption):
        out = edit_one("half", tune_caption, song_vocab, seeded_rng(1))
        assert sum(m.negated for m in out.mentions()) == 2

    def test_single_tag_negated(self, song_vocab):
        caption = Caption(tokens=(TagMention(3),))
        out = edit_one("half", caption, song_vocab, seeded_rng(0))
        assert [m.negated for m in out.mentions()] == [True]

    def test_no_plain_mentions_rejected(self, song_vocab):
        caption = Caption(tokens=(TagMention(0, "no"),))
        with pytest.raises(ValueError):
            edit_one("half", caption, song_vocab, seeded_rng(0))

    def test_selection_frequency_matches_combinatorics(self, song_vocab, tune_caption):
        # picking 2 of 3 uniformly negates each tag with probability 2/3
        rng = seeded_rng(99)
        counts = {0: 0, 1: 0, 2: 0}
        n = 10_000
        for out in edit("half", [tune_caption] * n, song_vocab, rng)[0]:
            for m in out.mentions():
                if m.negated:
                    counts[m.tag_id] += 1
        for tag_id in counts:
            assert abs(counts[tag_id] / n - 2 / 3) < 0.02

    @settings(max_examples=150, deadline=None)
    @given(captions(), st.integers(0, 2**32 - 1))
    def test_counts_and_structure(self, caption, seed):
        vocab = big_vocab()
        plain_before = [m for m in caption.mentions() if not m.negated]
        already = sum(m.negated for m in caption.mentions())
        out = edit_one("half", caption, vocab, seeded_rng(seed))
        assert len(out.tokens) == len(caption.tokens)
        assert sum(m.negated for m in out.mentions()) == \
            already + math.ceil(len(plain_before) / 2)
        assert sorted(m.tag_id for m in out.mentions()) == \
            sorted(m.tag_id for m in caption.mentions())
        for before, after in zip(caption.tokens, out.tokens):
            if isinstance(before, Word):
                assert before == after
            elif before.negated:
                assert before == after  # no stacking


class TestFullyNegate:
    def test_tune_rendering_for_one_draw(self, song_vocab, tune_caption):
        rendered = {
            render_caption(edit_one("fully", tune_caption, song_vocab, seeded_rng(s)),
                           song_vocab)
            for s in range(600)
        }
        assert "a not rock tune with no guitar and without bass" in rendered

    @settings(max_examples=150, deadline=None)
    @given(captions(), st.integers(0, 2**32 - 1))
    def test_all_mentions_negated(self, caption, seed):
        vocab = big_vocab()
        out = edit_one("fully", caption, vocab, seeded_rng(seed))
        assert all(m.negated for m in out.mentions())
        assert len(out.tokens) == len(caption.tokens)
        assert sorted(m.tag_id for m in out.mentions()) == \
            sorted(m.tag_id for m in caption.mentions())

    def test_flag_pattern_stable_under_renegation(self, song_vocab, tune_caption):
        once = edit_one("fully", tune_caption, song_vocab, seeded_rng(4))
        assert [m.negated for m in once.mentions()] == [True, True, True]
        # a second pass has no plain mentions left to negate
        with pytest.raises(ValueError):
            edit_one("fully", once, song_vocab, seeded_rng(5))


class TestApplyAugmentation:
    def test_probability_zero_is_identity(self, song_vocab, tune_caption):
        out, skipped = edit("insert", [tune_caption] * 50, song_vocab, seeded_rng(0), p_aug=0.0)
        assert out == [tune_caption] * 50 and skipped == 0

    def test_probability_one_always_inserts(self, song_vocab, tune_caption):
        out, _ = edit("insert", [tune_caption] * 50, song_vocab, seeded_rng(0), p_aug=1.0)
        assert all(len(c.mentions()) == len(tune_caption.mentions()) + 1 for c in out)

    def test_application_rate(self, song_vocab, tune_caption):
        n = 10_000
        out, _ = edit("insert", [tune_caption] * n, song_vocab, seeded_rng(7), p_aug=0.6)
        applied = sum(c != tune_caption for c in out)
        assert abs(applied - 0.6 * n) <= 150  # 3 sigma of Binomial(10000, 0.6)

    def test_invalid_probability_rejected(self, song_vocab, tune_caption):
        for p_aug in (1.5, -0.1, math.nan):
            rng = seeded_rng(0)
            with pytest.raises(ValueError, match="p_aug must lie in"):
                edit("insert", [tune_caption], song_vocab, rng, p_aug=p_aug)
            assert rng.random() == seeded_rng(0).random()  # no draw consumed
