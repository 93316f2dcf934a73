import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caption_apply import (
    augment_captions,
    caption_ids,
    dataset_of,
    eval_variants_per_pair,
    half_edit_per_caption,
    halves_per_caption,
    kind_captions,
    render_caption,
)
from fd_utils import (
    clap_loss_through_encoders,
    dense_table,
    finite_difference_grads,
    max_gradient_violation,
    split_table,
)
from ids_utils import assert_same_ids, concat_ids, stepwise, take_ids
from negclap.corpus import (
    AudioClip,
    Caption,
    TagMention,
    Vocabulary,
    Word,
    generate_dataset,
    generate_vocabulary,
)
from negclap.model import (
    DENSE_FIELDS,
    CaptionIds,
    ModelDims,
    TokenTable,
    caption_kinds,
    encode_audio_batch,
    encode_text_batch,
    encode_token_lists,
    hash_bucket,
    init_params,
    load_checkpoint,
    _POOL_CHUNK,
    _hash_states,
    _mlp_backward,
    _pool_rows,
    _utf8_columns,
    model_backward,
    save_checkpoint,
    tokenize,
)
from negclap.evaluation import VARIANTS, build_eval_variants
from negclap.negation import AugmentationExhausted, draw_halves, edit_ids
from negclap.seeding import seeded_rng


def reference_ids(token_lists, n_buckets):
    """Token lists' bucket ids in CSR form, each string hashed on its own: per
    caption its unigram buckets, then its bigram buckets plus ``n_buckets``."""
    rows, lens = [], []
    for tokens in token_lists:
        uni = [hash_bucket(t, n_buckets) for t in tokens]
        bi = [n_buckets + hash_bucket(a + " " + b, n_buckets) for a, b in zip(tokens, tokens[1:])]
        rows += uni + bi
        lens += [len(uni), len(bi)]
    return CaptionIds(np.array(rows, dtype=np.intp), np.array(lens, dtype=np.intp))


class TestTokenize:
    def test_whitespace_split_and_lowercase(self):
        assert tokenize("A rock tune") == ["a", "rock", "tune"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_stripped(self):
        assert tokenize("Rock, guitar!  (bass)") == ["rock", "guitar", "bass"]

    def test_token_count_matches_caption_structure(self):
        vocab = generate_vocabulary(8, 2)
        ds = generate_dataset(vocab, 30, d_a=8, rng_seed=3)
        for _, caption in ds.pairs:
            words = sum(isinstance(t, Word) for t in caption.tokens)
            plain = sum(isinstance(t, TagMention) and not t.negated for t in caption.tokens)
            negated = sum(isinstance(t, TagMention) and t.negated for t in caption.tokens)
            tokens = tokenize(render_caption(caption, vocab))
            assert len(tokens) == words + plain + 2 * negated


class TestHashBucket:
    def test_deterministic_and_in_range(self):
        for token in ("rock", "guitar", "no guitar", "tag042"):
            b = hash_bucket(token, 64)
            assert 0 <= b < 64
            assert hash_bucket(token, 64) == b


class TestEncoders:
    def test_unit_norm_for_many_captions(self, small_params):
        vocab = generate_vocabulary(10, 1)
        ds = generate_dataset(vocab, 1000, d_a=small_params.dims.d_a, rng_seed=0)
        embs, _ = encode_text_batch(small_params, [c for _, c in ds.pairs], vocab)
        np.testing.assert_allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-6)

    def test_negated_mention_changes_embedding(self, small_params, song_vocab):
        plain = Caption(tokens=(TagMention(1),))
        negated = Caption(tokens=(TagMention(1, "no"),))
        e1, e2 = encode_text_batch(small_params, [plain, negated], song_vocab)[0]
        assert np.linalg.norm(e1 - e2) > 1e-3

    def test_word_order_matters(self, small_params):
        n = small_params.dims.hash_buckets
        a = encode_token_lists(small_params,
                               reference_ids([["slow", "rock", "loud", "guitar"]], n))[0][0]
        b = encode_token_lists(small_params,
                               reference_ids([["loud", "rock", "slow", "guitar"]], n))[0][0]
        assert np.linalg.norm(a - b) > 1e-6

    def test_empty_caption_rejected(self, small_params):
        with pytest.raises(ValueError, match="item 1: caption renders to no tokens"):
            encode_token_lists(small_params, reference_ids([["rock"], [], ["a"]], 8))

    def test_audio_unit_norm_and_determinism(self, small_params):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, small_params.dims.d_a))
        embs, _ = encode_audio_batch(small_params, feats)
        np.testing.assert_allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-6)
        again, _ = encode_audio_batch(small_params, feats)
        np.testing.assert_array_equal(embs, again)

    def test_zero_audio_features_use_biases(self, small_params):
        emb = encode_audio_batch(small_params, np.zeros((1, small_params.dims.d_a)))[0][0]
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6

    def test_audio_dimension_checked(self, small_params):
        with pytest.raises(ValueError):
            encode_audio_batch(small_params, np.zeros((1, small_params.dims.d_a + 1)))


class TestModelBackward:
    def test_zero_upstream_gives_zero_grads(self, small_params):
        vocab = generate_vocabulary(8, 4)
        ds = generate_dataset(vocab, 4, d_a=small_params.dims.d_a, rng_seed=4)
        captions = [c for _, c in ds.pairs]
        feats = np.stack([clip.features for clip, _ in ds.pairs])
        t_emb, t_cache = encode_text_batch(small_params, captions, vocab)
        a_emb, a_cache = encode_audio_batch(small_params, feats)
        grads = model_backward(small_params, (t_cache, np.zeros_like(t_emb)),
                               (a_cache, np.zeros_like(a_emb)))
        assert len(grads.table.rows) and not grads.table.values.any()
        assert not grads.dense.any()

    def test_joint_pass_equals_the_single_tower_passes(self, small_params):
        vocab = generate_vocabulary(8, 4)
        ds = generate_dataset(vocab, 4, d_a=small_params.dims.d_a, rng_seed=4)
        rng = np.random.default_rng(5)
        t_emb, t_cache = encode_text_batch(small_params, [c for _, c in ds.pairs], vocab)
        a_emb, a_cache = encode_audio_batch(small_params, ds.features)
        text = (t_cache, rng.normal(size=t_emb.shape))
        audio = (a_cache, rng.normal(size=a_emb.shape))
        joint = model_backward(small_params, text, audio)
        text_only = model_backward(small_params, text)
        audio_only = model_backward(small_params, audio=audio)
        for name in DENSE_FIELDS:
            alone = text_only if name.startswith("text") else audio_only
            assert getattr(joint, name).tobytes() == getattr(alone, name).tobytes(), name
            absent = audio_only if alone is text_only else text_only
            assert not getattr(absent, name).any(), name
        assert joint.dense[-1] == text_only.dense[-1] == audio_only.dense[-1] == 0.0
        assert joint.table.rows.tobytes() == text_only.table.rows.tobytes()
        assert joint.table.values.tobytes() == text_only.table.values.tobytes()
        assert len(audio_only.table.rows) == 0

    def test_shape_mismatch_rejected(self, small_params):
        vocab = generate_vocabulary(8, 4)
        ds = generate_dataset(vocab, 4, d_a=small_params.dims.d_a, rng_seed=4)
        _, cache = encode_text_batch(small_params, [c for _, c in ds.pairs], vocab)
        with pytest.raises(ValueError):
            model_backward(small_params, (cache, np.zeros((2, 2))))

    def test_matches_finite_differences_through_both_encoders(self):
        dims = ModelDims(d_t=8, d_h=8, d=8, d_a=8, hash_buckets=32)
        params = init_params(dims, seed=3, init_scale=0.2)
        params.log_temperature[...] = np.log(5.0)
        vocab = generate_vocabulary(6, 5)
        ds = generate_dataset(vocab, 4, d_a=8, rng_seed=6)
        ids = TokenTable(vocab, ds.words).ids(ds.captions, dims.hash_buckets)
        feats = np.stack([clip.features for clip, _ in ds.pairs])

        _, analytic = clap_loss_through_encoders(params, feats, ids)
        numeric = finite_difference_grads(
            lambda p: clap_loss_through_encoders(p, feats, ids, with_grads=False)[0],
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"gradient mismatch at {where} (ratio {worst:.2f})"


# a few words over eight buckets, so bucket ids repeat within and across captions
SCATTER_WORDS = ("a", "rock", "tune", "with", "not", "guitar", "no", "bass", "and", "drums")
SCATTER_DIMS = ModelDims(d_t=5, d_h=6, d=4, d_a=3, hash_buckets=8)
token_lists = st.lists(st.sampled_from(SCATTER_WORDS), min_size=1, max_size=5)
text_pass = st.lists(token_lists, min_size=1, max_size=4)


def owners(lens):
    return np.repeat(np.arange(len(lens)), lens)


def split_ids(ids, n_buckets):
    """Per table half, unigrams then bigrams: the caption of each id, each id's
    row within the half, and each caption's id count in the half."""
    owner = owners(ids.lens)
    return [(owner[owner % 2 == half] // 2, ids.rows[owner % 2 == half] - half * n_buckets,
             ids.lens[half::2]) for half in (0, 1)]


def pooled_with_add_at(params, ids):
    """The text forward's pooled input, summed per table half with np.add.at (reference)."""
    (uni_owner, uni, uni_len), (bi_owner, bi, bi_len) = split_ids(ids, params.dims.hash_buckets)
    x = np.zeros((len(ids), params.dims.d_t))
    np.add.at(x, uni_owner, params.unigram_table[uni])
    x /= uni_len[:, None]
    if len(bi):
        x_bi = np.zeros_like(x)
        np.add.at(x_bi, bi_owner, params.bigram_table[bi])
        x += x_bi / np.maximum(bi_len, 1)[:, None]
    return x


def table_grads_with_add_at(params, ids, cache, d_emb):
    """Dense gradients of both table halves, accumulated with np.add.at (reference)."""
    (uni_owner, uni, uni_len), (bi_owner, bi, bi_len) = split_ids(ids, params.dims.hash_buckets)
    dense = {n: np.zeros_like(getattr(params, n)) for n in ("unigram_table", "bigram_table")}
    d_pre = _mlp_backward(cache.x, cache.h, cache.norms, cache.emb, d_emb, params.text_out_w)[0]
    d_x = d_pre @ params.text_hidden_w.T
    np.add.at(dense["unigram_table"], uni, (d_x / uni_len[:, None])[uni_owner])
    np.add.at(dense["bigram_table"], bi, (d_x / np.maximum(bi_len, 1)[:, None])[bi_owner])
    return dense


class TestRowSparseScatter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(text_pass, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    @example([[["rock"], ["tune"]]], 0)  # a bigram-free pass
    @example([[["rock"], ["tune"]], [["a", "rock", "a", "rock"]]], 0)  # a bigram-free block
    def test_matches_add_at_bit_for_bit(self, blocks_tokens, seed):
        params = init_params(SCATTER_DIMS, seed=3)
        n = SCATTER_DIMS.hash_buckets
        # a training step's blocks, stacked into one pass
        ids = concat_ids([reference_ids(lists, n) for lists in blocks_tokens])
        emb, cache = encode_token_lists(params, ids)
        assert cache.x.tobytes() == pooled_with_add_at(params, ids).tobytes()
        d_emb = np.random.default_rng(seed).normal(size=emb.shape)
        grads = model_backward(params, (cache, d_emb))
        assert grads.table.values.shape == (len(grads.table.rows), SCATTER_DIMS.d_t)
        halves = split_table(grads.table, n)
        for (name, dense), grad, (_, hit, _) in zip(
                table_grads_with_add_at(params, ids, cache, d_emb).items(), halves,
                split_ids(ids, n)):
            np.testing.assert_array_equal(grad.rows, np.unique(hit))
            assert dense_table(grad, n).tobytes() == dense.tobytes(), name

    @settings(max_examples=150, deadline=None)
    @given(st.lists(text_pass, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    def test_stacked_pass_equals_the_sum_of_block_passes(self, blocks_tokens, seed):
        # one pass over stacked blocks sums the same terms in another order, so
        # only the rounding of the table and dense gradients may differ
        params = init_params(SCATTER_DIMS, seed=3)
        n = SCATTER_DIMS.hash_buckets
        blocks = [reference_ids(lists, n) for lists in blocks_tokens]
        emb, cache = encode_token_lists(params, concat_ids(blocks))
        d_emb = np.random.default_rng(seed).normal(size=emb.shape)
        stacked = model_backward(params, (cache, d_emb))
        dense, table, rows = np.zeros_like(params.dense), np.zeros_like(params.tables), []
        ends = np.cumsum([len(block) for block in blocks])
        for block, d_block in zip(blocks, np.split(d_emb, ends[:-1])):
            grads = model_backward(params, (encode_token_lists(params, block)[1], d_block))
            dense += grads.dense
            table[grads.table.rows] += grads.table.values
            rows.append(grads.table.rows)
        np.testing.assert_array_equal(stacked.table.rows, np.unique(np.concatenate(rows)))
        np.testing.assert_allclose(dense_table(stacked.table, 2 * n), table,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(stacked.dense, dense, rtol=1e-12, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4 * _POOL_CHUNK + 3), st.sampled_from([1, 3, 12]),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, _POOL_CHUNK, 3, False, False, 0)  # one chunk exactly
    @example(1, _POOL_CHUNK + 1, 3, False, True, 0)  # one long row past it, one column
    @example(2, 2 * _POOL_CHUNK + 2, 9, True, False, 1)  # captions, a two-row last chunk
    @example(3, 3 * _POOL_CHUNK, 12, False, True, 2)  # a long row in a chunk of short ones
    # caption 31 has one token, so its empty bigram run ends the first (padded) chunk
    @example(2, 2 * _POOL_CHUNK + 2, 2, True, False, 170)
    def test_pool_rows_matches_add_at_bit_for_bit(self, d, n_out, max_len, captions, long_row,
                                                  seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(7, d)) * 10.0 ** rng.integers(-8, 9, size=(7, d))
        table[rng.random(table.shape) < 0.2] = 0.0
        table[rng.random(table.shape) < 0.2] = -0.0
        table[0] = -0.0  # pooled alone, a row of only -0.0 sums to 0.0, as add.at gives
        if captions:  # the text forward's layout: each caption's unigram run, then its bigrams
            uni = rng.integers(1, max_len + 1, size=max(n_out // 2, 1))
            uni[::3] = 1  # one-token captions: their bigram runs are empty
            lens = np.stack((uni, uni - 1), axis=1).ravel()
        else:
            lens = rng.integers(0, max_len + 1, size=n_out)
        if long_row:
            lens[-1] = 10 * max_len
        owner = np.repeat(np.arange(len(lens)), lens)
        ids = rng.integers(0, len(table), size=len(owner))
        expected = np.zeros((len(lens), d))
        np.add.at(expected, owner, table[ids])
        pooled = _pool_rows(table, ids, lens)
        assert np.array_equal(pooled, expected)
        assert np.array_equal(np.signbit(pooled), np.signbit(expected))

    def test_forward_pooling_across_chunks_matches_add_at(self):
        params = init_params(ModelDims(d_t=8, d_h=8, d=4, d_a=3, hash_buckets=16), seed=4)
        rng = np.random.default_rng(9)
        lists = [[SCATTER_WORDS[i] for i in rng.integers(0, len(SCATTER_WORDS),
                                                         size=rng.integers(1, 9))]
                 for _ in range(200)]
        ids = reference_ids(lists, 16)
        _, cache = encode_token_lists(params, ids)
        assert cache.x.tobytes() == pooled_with_add_at(params, ids).tobytes()


# surfaces and word texts that exercise tokenize: case, punctuation, inner and
# non-ASCII whitespace, a final sigma, and text that strips to nothing
ID_VOCAB = Vocabulary(
    surfaces=("rock", "Hip Hop", "guitar,", "...", "ΟΔΟΣ", "no\u00a0wave"),
    negators=("not", "no", "without"),
)
word_texts = st.text(st.sampled_from(list("abrkAZ.,!'-() \t\n\u00a0\u2003ΣσİΟ")), max_size=7)
caption_tokens = st.one_of(
    st.builds(Word, word_texts),
    st.builds(TagMention, st.integers(0, len(ID_VOCAB) - 1)),
    st.builds(lambda t, n: TagMention(t, n),
              st.integers(0, len(ID_VOCAB) - 1), st.sampled_from(ID_VOCAB.negators)),
)
captions = st.builds(Caption, st.lists(caption_tokens, min_size=1, max_size=8).map(tuple))
# hash_bucket modulo 2**m keeps only the low bits of a multiplicative hash,
# which over eight buckets cannot tell "a b" from "b a"; 61 buckets can
ID_DIMS = ModelDims(d_t=5, d_h=6, d=4, d_a=3, hash_buckets=61)


class TestTokenTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(captions, min_size=1, max_size=6))
    @example([Caption((Word("A"), Word("rock"))), Caption((Word("..."),))])
    def test_id_path_matches_string_reference(self, caps):
        params = init_params(ID_DIMS, seed=5)
        n = ID_DIMS.hash_buckets
        token_lists = [tokenize(render_caption(c, ID_VOCAB)) for c in caps]
        empty = [r for r, tokens in enumerate(token_lists) if not tokens]
        if empty:
            with pytest.raises(ValueError, match=f"item {empty[0]}: caption renders to no tokens"):
                encode_text_batch(params, caps, ID_VOCAB)
            caps = [c for c, tokens in zip(caps, token_lists) if tokens]
            token_lists = [tokens for tokens in token_lists if tokens]
            if not caps:
                return
        uni_idx, uni_rows, bi_idx, bi_rows = [], [], [], []
        layout, lens, owner = [], [], []  # each caption's unigrams, then its bigrams
        for r, tokens in enumerate(token_lists):
            uni = [hash_bucket(t, n) for t in tokens]
            bi = [hash_bucket(a + " " + b, n) for a, b in zip(tokens, tokens[1:])]
            uni_idx += uni
            uni_rows += [r] * len(uni)
            bi_idx += bi
            bi_rows += [r] * len(bi)
            layout += uni + [b + n for b in bi]
            lens += [len(tokens), max(len(tokens) - 1, 0)]
            owner += [2 * r] * len(uni) + [2 * r + 1] * len(bi)
        x = np.zeros((len(caps), params.dims.d_t))
        np.add.at(x, uni_rows, params.unigram_table[uni_idx])
        x /= np.array([len(t) for t in token_lists], dtype=float)[:, None]
        if bi_idx:
            x_bi = np.zeros_like(x)
            np.add.at(x_bi, bi_rows, params.bigram_table[bi_idx])
            x += x_bi / np.array([max(len(t) - 1, 1) for t in token_lists], dtype=float)[:, None]
        o = np.tanh(x @ params.text_hidden_w + params.text_hidden_b) @ params.text_out_w \
            + params.text_out_b
        emb_ref = o / np.linalg.norm(o, axis=1, keepdims=True)

        # one table reused across batches
        table, slots = caption_kinds(caps, ID_VOCAB)
        for ids in (table.ids(slots, n), table.ids(slots, n)):
            assert ids.rows.tolist() == layout
            assert ids.lens.tolist() == lens
        batches = [encode_text_batch(params, caps, ID_VOCAB),
                   encode_token_lists(params, table.ids(slots, n))]
        for emb, cache in batches:
            assert cache.ids.tolist() == layout
            # the pooled row of each id
            assert np.repeat(np.arange(2 * len(caps)), cache.lens).tolist() == owner
            assert cache.x.tobytes() == x.tobytes()
            assert emb.tobytes() == emb_ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.text(), max_size=5), min_size=1, max_size=4),
           st.sampled_from([1, 3, 64, 4096]))
    @example([["é", "日本", "\x00", "a\x00"], ["😀 x", ""], ["ΟΔΟΣ\u00a0b"]], 4096)
    def test_array_hashing_equals_hash_bucket_on_any_text(self, texts, n):
        # every string as it is, multi-byte UTF-8, NUL and empty strings included
        strings = [t for words in texts for t in words]
        columns, n_bytes = _utf8_columns(strings)
        states = _hash_states(np.full(len(strings), 0x811C9DC5, np.uint64), columns, n_bytes)
        assert (states % n).tolist() == [hash_bucket(t, n) for t in strings]
        # through the table: each token's unigram and each adjacent pair's bigram
        caps = [Caption(tuple(map(Word, words))) for words in texts]
        want = reference_ids([tokenize(render_caption(c, ID_VOCAB)) for c in caps], n)
        got = caption_ids(caps, ID_VOCAB, n)
        assert got.rows.tolist() == want.rows.tolist()
        assert got.lens.tolist() == want.lens.tolist()

    def test_chunked_ids_equal_one_caption_at_a_time(self):
        vocab = generate_vocabulary(12, 3)
        ds = generate_dataset(vocab, 2500, d_a=4, rng_seed=3)
        table = TokenTable(vocab, ds.words)
        whole = table.ids(ds.captions, 61)  # looked up in several chunks
        singles = [table.ids(ds.captions.take([i]), 61) for i in range(len(ds))]
        for field in ("rows", "lens"):
            np.testing.assert_array_equal(
                getattr(whole, field), np.concatenate([getattr(one, field) for one in singles]))
        empty = table.ids(ds.captions.take(np.arange(0)), 61)
        assert len(empty) == 0 and empty.rows.size == empty.lens.size == 0


class TestCaptionIds:
    LISTS = [["a", "rock"], ["tune"], ["with", "no", "bass", "x"], ["and", "drums", "y"]]

    def test_take_and_batches_match_per_caption_lists(self):
        # ``take_ids`` and ``concat_ids`` are the tests' own (tests/ids_utils.py)
        ids = reference_ids(self.LISTS, 61)
        rows = [3, 1, 1, 0]
        taken = take_ids(ids, np.array(rows))
        expected = reference_ids([self.LISTS[r] for r in rows], 61)
        for field in ("rows", "lens"):
            np.testing.assert_array_equal(getattr(taken, field), getattr(expected, field))
        parts = list(ids.batches(3))
        assert [len(p) for p in parts] == [3, 1]
        for part, lists in zip(parts, (self.LISTS[:3], self.LISTS[3:])):
            for field in ("rows", "lens"):
                np.testing.assert_array_equal(getattr(part, field),
                                              getattr(reference_ids(lists, 61), field))
        joined = concat_ids(parts)
        for field in ("rows", "lens"):
            np.testing.assert_array_equal(getattr(joined, field), getattr(ids, field))

    def test_step_layout_refuses_partial_runs(self):
        # the plan lays out whole steps only, and refuses before any draw
        from negclap.training import TrainConfig, plan_epoch

        vocab = oracle_vocab(4, 2)
        table, slots = caption_kinds([THREE_PLAIN, Caption((TagMention(1), Word("a")))], vocab)
        for condition, p_aug, k in (("baseline", 0.0, 0.0), ("text_aug", 0.6, 0.0),
                                    ("loss_term", 0.0, 1e-2), ("combo", 0.6, 1e-2)):
            config = TrainConfig(condition=condition, seed=1, p_aug=p_aug, k=k, batch_size=3)
            for n_items in (1, 2, 4, 5):
                rng = seeded_rng(0)
                state = rng.bit_generator.state
                with pytest.raises(ValueError, match=f"{n_items} items are not whole batches"):
                    plan_epoch(slots, np.arange(n_items) % 2, config, table, 61, rng)
                assert rng.bit_generator.state == state


# vocabularies for the negation oracle: multi-word, punctuated and non-ASCII
# surfaces and negators, and a surface that tokenizes to nothing
ORACLE_SURFACES = ("rock", "Hip Hop", "guitar,", "...", "ΟΔΟΣ", "no\u00a0wave", "r&b!")
ORACLE_NEGATORS = ("not", "no", "without", "not at all", "never!", "ΑΣ")
ORACLE_WORDS = ("a", "Tune", "with", "and,", "(slow)", "two words", "--")


@st.composite
def negation_cases(draw):
    """A vocabulary, captions over it (plain and negated mentions, words) and a seed."""
    surfaces = draw(st.lists(st.sampled_from(ORACLE_SURFACES), min_size=1, max_size=5,
                             unique=True))
    negators = draw(st.lists(st.sampled_from(ORACLE_NEGATORS), min_size=1, max_size=3,
                             unique=True))
    vocab = Vocabulary(tuple(surfaces), tuple(negators))
    tag = st.integers(0, len(surfaces) - 1)
    token = st.one_of(st.builds(Word, st.sampled_from(ORACLE_WORDS)), st.builds(TagMention, tag),
                      st.builds(TagMention, tag, st.sampled_from(negators)))
    caps = draw(st.lists(st.builds(Caption, st.lists(token, max_size=6).map(tuple)),
                         min_size=1, max_size=6))
    return vocab, caps, draw(st.integers(0, 2**32 - 1))


def outcome(edit, *args):
    """``edit(*args)``, or the type and message of the error it raises."""
    try:
        return edit(*args)
    except (ValueError, AugmentationExhausted) as e:
        return type(e), str(e)


def oracle_vocab(n_tags, n_negators):
    return Vocabulary(ORACLE_SURFACES[:n_tags], ORACLE_NEGATORS[:n_negators])


# three plain mentions (and a negated one): a half negation negates two of
# them, so with two or more negators each of its two negator draws shows
THREE_PLAIN = Caption((TagMention(0), Word("and,"), TagMention(1), TagMention(2, "not"),
                       Word("a"), TagMention(3)))


class TestNegationIdApply:
    """The id apply of each edit against the caption apply, over the same draws."""

    N_BUCKETS = 61

    @settings(max_examples=200, deadline=None)
    @given(negation_cases(), st.sampled_from(["insert", "half", "fully"]),
           st.sampled_from([0.0, 0.6, 1.0]), st.booleans())
    @example((oracle_vocab(4, 2), [THREE_PLAIN], 0), "half", 0.0, False)
    @example((oracle_vocab(5, 3), [Caption((TagMention(4), Word("a"))), THREE_PLAIN,
                                   Caption((TagMention(1, "no"), TagMention(0)))], 7),
             "half", 0.0, False)
    def test_each_edit_matches_the_caption_apply(self, case, name, p_aug, all_plain):
        vocab, caps, seed = case
        if all_plain:  # else half and fully raise at the first caption without a plain mention
            caps = ([c for c in caps if any(t.negator is None for t in c.mentions())]
                    or [Caption((TagMention(0),))])
        by_caption, by_ids = seeded_rng(seed), seeded_rng(seed)
        want = outcome(augment_captions, name, caps, vocab, p_aug, by_caption)
        table, slots = caption_kinds(caps, vocab)
        got = outcome(edit_ids, name, slots, table, p_aug, by_ids)
        assert by_ids.bit_generator.state == by_caption.bit_generator.state
        if isinstance(want[0], type):
            assert got == want
            return
        (edited, skipped), (captions, n_exhausted) = got, want
        assert skipped == n_exhausted
        assert kind_captions(table, edited) == captions
        assert_same_ids(table.ids(edited, self.N_BUCKETS),
                        caption_ids(captions, vocab, self.N_BUCKETS), name)

    @settings(max_examples=200, deadline=None)
    @given(negation_cases(), st.sampled_from([0.0, 0.6, 1.0]), st.sampled_from([0.0, 1e-2]),
           st.integers(1, 3), st.booleans(), st.data())
    def test_plan_matches_the_caption_apply(self, case, p_aug, k, batch_size, all_plain, data):
        from test_training import per_item_reference
        from negclap.training import TrainConfig, plan_epoch

        vocab, caps, seed = case
        if all_plain:  # else captions without a plain mention make k > 0 raise
            caps = ([c for c in caps if any(t.negator is None for t in c.mentions())]
                    or [Caption((TagMention(0),))])
        order = np.array(data.draw(st.lists(st.integers(0, len(caps) - 1),
                                            min_size=batch_size, max_size=3 * batch_size)))
        order = order[:len(order) // batch_size * batch_size]
        condition = {(False, False): "baseline", (True, False): "text_aug",
                     (False, True): "loss_term", (True, True): "combo"}[(p_aug > 0, k > 0)]
        config = TrainConfig(condition=condition, seed=1, p_aug=p_aug, k=k,
                             batch_size=batch_size)
        (table, slots), n = caption_kinds(caps, vocab), self.N_BUCKETS
        by_plan, by_caption = seeded_rng(seed), seeded_rng(seed)
        plan = outcome(plan_epoch, slots, order, config, table, n, by_plan)
        want = outcome(per_item_reference, caps, order, config, table, n, by_caption)
        assert by_plan.bit_generator.state == by_caption.bit_generator.state
        if isinstance(want[0], type):
            assert plan == want
            return
        # per step: its contrastive captions, then with k > 0 its anchors and negated
        clap, negated = want
        blocks = [clap]
        if k > 0:
            blocks += [caption_ids([caps[i] for i in order], vocab, n), negated]
        assert plan.n_blocks == len(blocks)
        assert_same_ids(plan.ids, stepwise(blocks, batch_size))


def as_test_split(vocab, caps):
    """A test split of ``caps``; the eval variants read only its captions."""
    pairs = tuple((AudioClip(i, np.zeros(1), frozenset(c.tag_ids())), c)
                  for i, c in enumerate(caps))
    return dataset_of(vocab, pairs, "test", np.zeros((len(caps), 1)))


def assert_same_kinds(got, want, what=""):
    for field in ("ids", "lens"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f"{what}.{field}"


# no plain mention in the second caption: the draws of the first are made, then
# ValueError is raised before any draw of the second
NO_PLAIN_SECOND = (oracle_vocab(5, 3), [THREE_PLAIN, Caption((TagMention(1, "no"), Word("a"))),
                                        THREE_PLAIN], 7)
NO_PLAIN_ERROR = (ValueError, "caption has no non-negated tag mention")


class TestHalfDraws:
    """``draw_halves`` against the half negation's draws made caption by caption."""

    @settings(max_examples=200, deadline=None)
    @given(negation_cases(), st.booleans())
    @example(NO_PLAIN_SECOND, False)
    @example((oracle_vocab(4, 2), [THREE_PLAIN] * 3, 0), False)
    def test_eval_variants_equal_the_per_pair_draws(self, case, all_plain):
        vocab, caps, seed = case
        if all_plain:
            caps = ([c for c in caps if any(t.negator is None for t in c.mentions())]
                    or [Caption((TagMention(0),))])
        split = as_test_split(vocab, caps)
        got = outcome(build_eval_variants, split, seed)
        want = outcome(eval_variants_per_pair, split, seed)
        if isinstance(want, tuple):
            assert got == want == NO_PLAIN_ERROR
            return
        for variant in VARIANTS:
            assert_same_kinds(getattr(got, variant), getattr(want, variant), variant)

    @settings(max_examples=200, deadline=None)
    @given(negation_cases(), st.booleans())
    @example(NO_PLAIN_SECOND, False)
    def test_half_edit_equals_the_per_caption_draws(self, case, all_plain):
        vocab, caps, seed = case
        if all_plain:
            caps = ([c for c in caps if any(t.negator is None for t in c.mentions())]
                    or [Caption((TagMention(0),))])
        table, slots = caption_kinds(caps, vocab)
        by_helper, by_caption = seeded_rng(seed), seeded_rng(seed)
        got = outcome(edit_ids, "half", slots, table, 0.0, by_helper)
        want = outcome(half_edit_per_caption, slots, table, by_caption)
        assert by_helper.bit_generator.state == by_caption.bit_generator.state
        if isinstance(want, tuple):
            assert got == want == NO_PLAIN_ERROR
            return
        assert got[1] == 0
        assert_same_kinds(got[0], want, "half")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 40), max_size=12), st.booleans(), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @example([], True, 3, 0)
    @example([1] * 7, True, 3, 1)
    @example([3, 1, 0, 2, 5], True, 3, 2)
    @example([3, 1, 0, 2, 5], False, 1, 2)
    # Generator.choice runs Floyd's algorithm up to 10 000 items, a tail shuffle above
    @example([10_000, 10_001, 20_000], True, 3, 3)
    @example([2, 20_000, 10_001, 1, 10_000], False, 4, 4)
    def test_counts_equal_the_per_caption_choice(self, counts, with_fully, n_negators, seed):
        by_call, by_caption = seeded_rng(seed), seeded_rng(seed)
        got = outcome(draw_halves, counts, n_negators, by_call, with_fully)
        want = outcome(halves_per_caption, counts, n_negators, by_caption, with_fully)
        assert by_call.bit_generator.state == by_caption.bit_generator.state
        if 0 in counts:  # the draws of the captions before the 0, then the error
            assert want == NO_PLAIN_ERROR and got == want
            return
        for name, a, b in zip(("mentions", "half negators", "fully negators"), got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


class TestParameterBuffers:
    def test_named_parameters_are_views_of_the_two_buffers(self, small_params):
        H = small_params.dims.hash_buckets
        assert small_params.tables.shape == (2 * H, small_params.dims.d_t)
        assert small_params.unigram_table.base is small_params.tables
        np.testing.assert_array_equal(small_params.bigram_table, small_params.tables[H:])
        small_params.text_out_b[0] = 7.5
        assert 7.5 in small_params.dense
        small_params.log_temperature += 1.0  # in place through the view
        assert small_params.dense[-1] == float(small_params.log_temperature)

    def test_gradient_names_are_views_of_the_dense_buffer(self, small_params):
        feats = np.ones((2, small_params.dims.d_a))
        emb, cache = encode_audio_batch(small_params, feats)
        grads = model_backward(small_params, audio=(cache, np.ones_like(emb)))
        grads.audio_out_b[0] = 7.5
        assert 7.5 in grads.dense
        grads.log_temperature += 1.0  # in place through the view
        assert grads.dense[-1] == 1.0

    def test_copy_and_loaded_params_own_their_buffers(self, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params)
        for other in (small_params.copy(), load_checkpoint(path)):
            assert other.tables.flags.owndata and other.dense.flags.owndata
            assert other.tables.flags.writeable and other.dense.flags.writeable
            for name, arr in other.items():
                assert arr.base is other.tables or arr.base is other.dense, name
                assert not np.shares_memory(arr, small_params.tables), name
                assert not np.shares_memory(arr, small_params.dense), name
        copied = small_params.copy()
        small_params.tables += 1.0
        small_params.dense += 1.0
        assert not np.array_equal(copied.tables, small_params.tables)
        assert not np.array_equal(copied.dense, small_params.dense)

    def test_init_draws_equal_separate_table_draws(self, small_dims):
        from negclap.seeding import seeded_rng

        params = init_params(small_dims, seed=11)
        rng = seeded_rng(11, 0)
        shape = (small_dims.hash_buckets, small_dims.d_t)
        np.testing.assert_array_equal(params.unigram_table, rng.normal(0.0, 0.1, size=shape))
        np.testing.assert_array_equal(params.bigram_table, rng.normal(0.0, 0.1, size=shape))
        np.testing.assert_array_equal(
            params.text_hidden_w, rng.normal(0.0, 0.1, size=params.text_hidden_w.shape))


class TestCheckpoint:
    def test_round_trip_through_float32(self, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params)
        loaded = load_checkpoint(path)
        assert loaded.dims == small_params.dims
        assert loaded.seed == small_params.seed
        for name, arr in small_params.items():
            expected = np.asarray(arr, dtype=np.float64).astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(getattr(loaded, name), expected)

    def test_resave_is_byte_identical(self, small_params, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, small_params)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_loads_from_a_fifo(self, small_params, tmp_path):
        # a pipe has no size to check a block against, so it is read as it comes
        path, fifo = tmp_path / "model.ckpt", tmp_path / "pipe"
        save_checkpoint(path, small_params)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        loaded = load_checkpoint(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.tables.tobytes() == load_checkpoint(path).tables.tobytes()
        assert loaded.dense.tobytes() == load_checkpoint(path).dense.tobytes()

    def _with_header(self, tmp_path, params, edit):
        """Save ``params``, then rewrite the header line through ``edit``."""
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, params)
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        return path

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.pop("dims"), "'dims'"),
        (lambda h: h.pop("hash_buckets"), "'hash_buckets'"),
        (lambda h: h.pop("seed"), "'seed'"),
        (lambda h: h["dims"].pop("d_a"), "'dims.d_a'"),
        (lambda h: h.update(hash_buckets=7), "'unigram_table' has shape [4096, 64]"),
        (lambda h: h["dims"].update(d_t=16), "'unigram_table' has shape [4096, 64]"),
        (lambda h: h["dims"].update(d_h=0), "'dims.d_h' must be an integer >= 1"),
        (lambda h: h.update(hash_buckets="4096"), "'hash_buckets' must be an integer"),
    ], ids=["no-dims", "no-hash-buckets", "no-seed", "no-d_a", "hash-buckets-7",
            "d_t-16", "zero-d_h", "string-hash-buckets"])
    def test_header_disagreeing_with_payload_rejected(self, tmp_path, edit, field):
        path = self._with_header(tmp_path, init_params(ModelDims(), seed=0), edit)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert field in str(info.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, small_params, tmp_path, value):
        params = small_params.copy()
        params.text_out_w[1, 2] = value
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match="'text_out_w' holds values that are not finite"):
            save_checkpoint(path, params)
        assert not path.exists()
        # a file holding one anyway: a saved finite marker overwritten in place
        marker = np.float32(12345.678)
        params.text_out_w[1, 2] = marker
        save_checkpoint(path, params)
        data = path.read_bytes()
        assert data.count(marker.tobytes()) == 1
        path.write_bytes(data.replace(marker.tobytes(), np.float32(value).tobytes()))
        with pytest.raises(ValueError, match="'text_out_w' holds non-finite values"):
            load_checkpoint(path)

    def test_overflow_in_float32_rejected_before_writing(self, small_params, tmp_path):
        params = small_params.copy()
        params.bigram_table[0, 0] = 1e300  # finite in float64, inf in float32
        path = tmp_path / "diverged.ckpt"
        with pytest.raises(ValueError, match="'bigram_table' holds values that are not finite"):
            save_checkpoint(path, params)
        assert not path.exists()

    def test_trailing_bytes_rejected(self, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
