import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fd_utils import dense_table, finite_difference_grads, max_gradient_violation, split_table
from negclap.corpus import (
    Caption,
    Tag,
    TagMention,
    Vocabulary,
    Word,
    generate_dataset,
    generate_vocabulary,
    render_caption,
)
from negclap.model import (
    CaptionIds,
    ModelDims,
    TokenTable,
    encode_audio,
    encode_audio_batch,
    encode_text,
    encode_text_batch,
    encode_token_lists,
    hash_bucket,
    init_params,
    load_checkpoint,
    _mlp_backward,
    model_backward,
    save_checkpoint,
    similarity,
    tokenize,
)
from negclap.negation import (
    AugmentationExhausted,
    draw_half,
    draw_insert,
    draw_negators,
    edit_counts,
    fully_negate,
    half_negate,
    insert_ids,
    negate_ids,
    negation_insert,
)
from negclap.objective import clap_loss_through_encoders
from negclap.seeding import seeded_rng


def reference_ids(token_lists, n_buckets):
    """Token lists' bucket ids in CSR form, each string hashed on its own."""
    uni = [hash_bucket(t, n_buckets) for tokens in token_lists for t in tokens]
    bi = [hash_bucket(a + " " + b, n_buckets)
          for tokens in token_lists for a, b in zip(tokens, tokens[1:])]
    uni_len = np.array([len(tokens) for tokens in token_lists], dtype=np.intp)
    return CaptionIds(np.array(uni, dtype=np.intp), uni_len,
                      np.array(bi, dtype=np.intp), np.maximum(uni_len - 1, 0))


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
        e1 = encode_text(small_params, plain, song_vocab)
        e2 = encode_text(small_params, negated, song_vocab)
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
        emb = encode_audio(small_params, np.zeros(small_params.dims.d_a))
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6

    def test_audio_dimension_checked(self, small_params):
        with pytest.raises(ValueError):
            encode_audio(small_params, np.zeros(small_params.dims.d_a + 1))


class TestSimilarity:
    def test_identity_and_antipodal(self):
        e = np.zeros(8)
        e[0] = 1.0
        assert similarity(e, e) == pytest.approx(1.0)
        assert similarity(e, -e) == pytest.approx(-1.0)

    def test_matches_independent_cosine(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.normal(size=8), rng.normal(size=8)
            ua, ub = a / np.linalg.norm(a), b / np.linalg.norm(b)
            oracle = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert similarity(ua, ub) == pytest.approx(oracle, abs=1e-12)


class TestModelBackward:
    def test_zero_upstream_gives_zero_grads(self, small_params):
        vocab = generate_vocabulary(8, 4)
        ds = generate_dataset(vocab, 4, d_a=small_params.dims.d_a, rng_seed=4)
        captions = [c for _, c in ds.pairs]
        feats = np.stack([clip.features for clip, _ in ds.pairs])
        t_emb, t_cache = encode_text_batch(small_params, captions, vocab)
        a_emb, a_cache = encode_audio_batch(small_params, feats)
        grads = model_backward(small_params, [(t_cache, np.zeros_like(t_emb))],
                               [(a_cache, np.zeros_like(a_emb))])
        assert len(grads.table.rows) and not grads.table.values.any()
        assert not grads.dense.any()

    def test_shape_mismatch_rejected(self, small_params):
        vocab = generate_vocabulary(8, 4)
        ds = generate_dataset(vocab, 4, d_a=small_params.dims.d_a, rng_seed=4)
        _, cache = encode_text_batch(small_params, [c for _, c in ds.pairs], vocab)
        with pytest.raises(ValueError):
            model_backward(small_params, [(cache, np.zeros((2, 2)))], [])

    def test_matches_finite_differences_through_both_encoders(self):
        dims = ModelDims(d_t=8, d_h=8, d=8, d_a=8, hash_buckets=32)
        params = init_params(dims, seed=3, init_scale=0.2)
        params.log_temperature[...] = np.log(5.0)
        vocab = generate_vocabulary(6, 5)
        ds = generate_dataset(vocab, 4, d_a=8, rng_seed=6)
        table = TokenTable(vocab)
        ids = table.ids(table.slots([c for _, c in ds.pairs]), dims.hash_buckets)
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


def pooled_with_add_at(params, ids):
    """The text forward's pooled input, summed per table half with np.add.at (reference)."""
    x = np.zeros((len(ids), params.dims.d_t))
    np.add.at(x, owners(ids.uni_len), params.unigram_table[ids.uni])
    x /= ids.uni_len[:, None]
    if len(ids.bi):
        x_bi = np.zeros_like(x)
        np.add.at(x_bi, owners(ids.bi_len), params.bigram_table[ids.bi])
        x += x_bi / np.maximum(ids.bi_len, 1)[:, None]
    return x


def table_grads_with_add_at(params, passes):
    """Dense gradients of both table halves, accumulated with np.add.at (reference)."""
    dense = {n: np.zeros_like(getattr(params, n)) for n in ("unigram_table", "bigram_table")}
    for ids, cache, d_emb in passes:
        d_pre = _mlp_backward(cache.x, cache.h, cache.norms, cache.emb, d_emb,
                              params.text_out_w)[0]
        d_x = d_pre @ params.text_hidden_w.T
        np.add.at(dense["unigram_table"], ids.uni,
                  (d_x / ids.uni_len[:, None])[owners(ids.uni_len)])
        np.add.at(dense["bigram_table"], ids.bi,
                  (d_x / np.maximum(ids.bi_len, 1)[:, None])[owners(ids.bi_len)])
    return dense


class TestRowSparseScatter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(text_pass, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    @example([[["rock"], ["tune"]], [["a", "rock", "a", "rock"]]], 0)  # bigram-free pass
    def test_matches_add_at_bit_for_bit(self, passes_tokens, seed):
        params = init_params(SCATTER_DIMS, seed=3)
        rng = np.random.default_rng(seed)
        n = SCATTER_DIMS.hash_buckets
        passes = []
        for lists in passes_tokens:
            ids = reference_ids(lists, n)
            emb, cache = encode_token_lists(params, ids)
            assert cache.x.tobytes() == pooled_with_add_at(params, ids).tobytes()
            passes.append((ids, cache, rng.normal(size=emb.shape)))
        grads = model_backward(params, [(cache, d_emb) for _, cache, d_emb in passes])
        assert grads.table.values.shape == (len(grads.table.rows), SCATTER_DIMS.d_t)
        halves = split_table(grads.table, n)
        for (name, dense), grad, field in zip(table_grads_with_add_at(params, passes).items(),
                                              halves, ("uni", "bi")):
            ids = np.concatenate([getattr(ids, field) for ids, _, _ in passes])
            np.testing.assert_array_equal(grad.rows, np.unique(ids))
            assert dense_table(grad, n).tobytes() == dense.tobytes(), name

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
    tags=tuple(Tag(i, s) for i, s in enumerate(
        ("rock", "Hip Hop", "guitar,", "...", "ΟΔΟΣ", "no\u00a0wave"))),
    negators=("not", "no", "without"),
)
word_texts = st.text(st.sampled_from(list("abrkAZ.,!'-() \t\n\u00a0\u2003ΣσİΟ")), max_size=7)
caption_tokens = st.one_of(
    st.builds(Word, word_texts),
    st.builds(TagMention, st.integers(0, len(ID_VOCAB.tags) - 1)),
    st.builds(lambda t, n: TagMention(t, n),
              st.integers(0, len(ID_VOCAB.tags) - 1), st.sampled_from(ID_VOCAB.negators)),
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
        for r, tokens in enumerate(token_lists):
            for t in tokens:
                uni_idx.append(hash_bucket(t, n))
                uni_rows.append(r)
            for a, b in zip(tokens, tokens[1:]):
                bi_idx.append(hash_bucket(a + " " + b, n))
                bi_rows.append(r)
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
        table = TokenTable(ID_VOCAB)
        lens = [len(tokens) for tokens in token_lists]
        for ids in (table.ids(table.slots(caps), n), table.ids(table.slots(caps), n)):
            assert ids.uni.tolist() == uni_idx
            assert ids.bi.tolist() == bi_idx
            assert ids.uni_len.tolist() == lens
            assert ids.bi_len.tolist() == [max(k - 1, 0) for k in lens]
        batches = [encode_text_batch(params, caps, ID_VOCAB),
                   encode_token_lists(params, table.ids(table.slots(caps), n))]
        for emb, cache in batches:
            assert cache.ids.tolist() == uni_idx + [b + n for b in bi_idx]
            assert cache.owner.tolist() == uni_rows + [r + len(caps) for r in bi_rows]
            assert cache.x.tobytes() == x.tobytes()
            assert emb.tobytes() == emb_ref.tobytes()

    def test_chunked_ids_equal_one_caption_at_a_time(self):
        vocab = generate_vocabulary(12, 3)
        caps = [c for _, c in generate_dataset(vocab, 2500, d_a=4, rng_seed=3).pairs]
        table = TokenTable(vocab)
        whole = table.ids(table.slots(caps), 61)  # looked up in several chunks
        singles = [table.ids(table.slots([c]), 61) for c in caps]
        for field in ("uni", "uni_len", "bi", "bi_len"):
            np.testing.assert_array_equal(
                getattr(whole, field), np.concatenate([getattr(one, field) for one in singles]))
        empty = table.ids(table.slots([]), 61)
        assert len(empty) == 0 and empty.uni.size == empty.bi.size == 0


class TestCaptionIds:
    LISTS = [["a", "rock"], ["tune"], ["with", "no", "bass", "x"], ["and", "drums", "y"]]

    def test_take_and_batches_match_per_caption_lists(self):
        ids = reference_ids(self.LISTS, 61)
        rows = [3, 1, 1, 0]
        taken = ids.take(np.array(rows))
        expected = reference_ids([self.LISTS[r] for r in rows], 61)
        for field in ("uni", "uni_len", "bi", "bi_len"):
            np.testing.assert_array_equal(getattr(taken, field), getattr(expected, field))
        parts = list(ids.batches(3))
        assert [len(p) for p in parts] == [3, 1]
        np.testing.assert_array_equal(np.concatenate([p.bi for p in parts]), ids.bi)


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
    vocab = Vocabulary(tuple(Tag(i, s) for i, s in enumerate(surfaces)), tuple(negators))
    tag = st.integers(0, len(surfaces) - 1)
    token = st.one_of(st.builds(Word, st.sampled_from(ORACLE_WORDS)), st.builds(TagMention, tag),
                      st.builds(TagMention, tag, st.sampled_from(negators)))
    caps = draw(st.lists(st.builds(Caption, st.lists(token, max_size=6).map(tuple)),
                         min_size=1, max_size=6))
    return vocab, caps, draw(st.integers(0, 2**32 - 1))


def assert_same_ids(got, want, what=""):
    for field in ("uni", "uni_len", "bi", "bi_len"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f"{what}.{field}"


def outcome(edit, *args):
    """``edit(*args)``, or the type and message of the error it raises."""
    try:
        return edit(*args)
    except (ValueError, AugmentationExhausted) as e:
        return type(e), str(e)


class TestNegationIdApply:
    """The id apply of each edit against the caption apply, over the same draws."""

    N_BUCKETS = 61

    def caption_apply(self, name, vocab, caps, rng):
        """Each caption's edit by the caption functions, or the error it raises."""
        edit = {"insert": negation_insert, "half": half_negate, "fully": fully_negate}[name]
        return [outcome(edit, c, vocab, rng) for c in caps]

    def id_apply(self, name, table, caps, rng):
        """Each caption's draws and the id apply of them, and the errors the draws raise."""
        source = table.slots(caps)
        n_negators = len(table.vocab.negators)
        n_slots = source.lens.tolist()
        counts, n_unused = (c.tolist() for c in edit_counts(source, table))
        firsts = np.cumsum([0] + counts).tolist()

        def draw(i):
            if name == "insert":
                return draw_insert(n_slots[i], n_unused[i], n_negators, rng)
            picked = draw_half(counts[i], rng) if name == "half" else np.arange(counts[i])
            negators = draw_negators([len(picked)], n_negators, rng)
            return firsts[i] + picked, negators

        draws, errors = {}, {}
        for i in range(len(caps)):
            drawn = outcome(draw, i)
            (errors if isinstance(drawn[0], type) else draws)[i] = drawn
        if name == "insert":
            rows = np.array(list(draws), dtype=np.intp)
            gaps, unused, negators = np.array(list(draws.values()), np.intp).reshape(-1, 3).T
            ids = insert_ids(source, rows, gaps, unused, negators, table)
        else:
            flat = lambda parts: np.concatenate([np.empty(0, np.intp), *parts])
            ids = negate_ids(source, flat(m for m, _ in draws.values()),
                             flat(n for _, n in draws.values()), table)
        return table.ids(ids, self.N_BUCKETS), errors

    @settings(max_examples=200, deadline=None)
    @given(negation_cases(), st.sampled_from(["insert", "half", "fully"]))
    def test_each_edit_matches_the_caption_apply(self, case, name):
        vocab, caps, seed = case
        by_caption, by_ids = seeded_rng(seed), seeded_rng(seed)
        edited = self.caption_apply(name, vocab, caps, by_caption)
        ids, errors = self.id_apply(name, TokenTable(vocab), caps, by_ids)
        assert errors == {i: e for i, e in enumerate(edited) if isinstance(e, tuple)}
        # a caption whose edit raised keeps its ids
        want = [c if isinstance(e, tuple) else e for c, e in zip(caps, edited)]
        table = TokenTable(vocab)
        assert_same_ids(ids, table.ids(table.slots(want), self.N_BUCKETS), name)
        assert by_ids.bit_generator.state == by_caption.bit_generator.state

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
        table, n = TokenTable(vocab), self.N_BUCKETS
        by_plan, by_caption = seeded_rng(seed), seeded_rng(seed)
        slots = table.slots(caps)
        plan = outcome(plan_epoch, slots, table.ids(slots, n), order, config, table, n, by_plan)
        want = outcome(per_item_reference, caps, order, config, TokenTable(vocab), n, by_caption)
        assert by_plan.bit_generator.state == by_caption.bit_generator.state
        if isinstance(want[0], type):
            assert plan == want
            return
        clap, negated = want
        assert_same_ids(plan.clap, clap, "clap")
        if k > 0:
            assert_same_ids(plan.negated, negated, "negated")
            assert_same_ids(plan.anchors, table.ids(table.slots([caps[i] for i in order]), n),
                            "anchors")
        else:
            assert plan.negated is None and plan.anchors is None


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
