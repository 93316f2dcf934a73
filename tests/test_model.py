import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fd_utils import dense_table, finite_difference_grads, max_gradient_violation
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
    TABLE_FIELDS,
    ModelDims,
    TokenIndex,
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
from negclap.objective import clap_loss_through_encoders


def reference_ids(tokens, n_buckets):
    """A token list's unigram and bigram bucket ids, each string hashed on its own."""
    return ([hash_bucket(t, n_buckets) for t in tokens],
            [hash_bucket(a + " " + b, n_buckets) for a, b in zip(tokens, tokens[1:])])


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
        negated = Caption(tokens=(TagMention(1, True, "no"),))
        e1 = encode_text(small_params, plain, song_vocab)
        e2 = encode_text(small_params, negated, song_vocab)
        assert np.linalg.norm(e1 - e2) > 1e-3

    def test_word_order_matters(self, small_params):
        n = small_params.dims.hash_buckets
        a = encode_token_lists(small_params,
                               [reference_ids(["slow", "rock", "loud", "guitar"], n)])[0][0]
        b = encode_token_lists(small_params,
                               [reference_ids(["loud", "rock", "slow", "guitar"], n)])[0][0]
        assert np.linalg.norm(a - b) > 1e-6

    def test_empty_caption_rejected(self, small_params):
        with pytest.raises(ValueError):
            encode_token_lists(small_params, [([], [])])

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
        for name, grad in grads.items():
            assert not np.any(grad.values if name in TABLE_FIELDS else grad)

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
        captions = [c for _, c in ds.pairs]
        feats = np.stack([clip.features for clip, _ in ds.pairs])

        _, analytic = clap_loss_through_encoders(params, vocab, feats, captions)
        numeric = finite_difference_grads(
            lambda p: clap_loss_through_encoders(p, vocab, feats, captions,
                                                 with_grads=False)[0],
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"gradient mismatch at {where} (ratio {worst:.2f})"


# a few words over eight buckets, so bucket ids repeat within and across captions
SCATTER_WORDS = ("a", "rock", "tune", "with", "not", "guitar", "no", "bass", "and", "drums")
SCATTER_DIMS = ModelDims(d_t=5, d_h=6, d=4, d_a=3, hash_buckets=8)
token_lists = st.lists(st.sampled_from(SCATTER_WORDS), min_size=1, max_size=5)
text_pass = st.lists(token_lists, min_size=1, max_size=4)


def pooled_with_add_at(params, cache):
    """The text forward's pooled input, summed with np.add.at (reference)."""
    B = len(cache.uni_counts)
    x = np.zeros((B, params.dims.d_t))
    np.add.at(x, cache.uni_rows, params.unigram_table[cache.uni_idx])
    x /= cache.uni_counts[:, None]
    if len(cache.bi_idx):
        x_bi = np.zeros((B, params.dims.d_t))
        np.add.at(x_bi, cache.bi_rows, params.bigram_table[cache.bi_idx])
        x += x_bi / np.maximum(cache.bi_counts, 1.0)[:, None]
    return x


def table_grads_with_add_at(params, passes):
    """Dense table gradients of text passes, accumulated with np.add.at (reference)."""
    dense = {n: np.zeros_like(getattr(params, n)) for n in TABLE_FIELDS}
    for cache, d_emb in passes:
        d_x = _mlp_backward(cache.x, cache.h, cache.o, cache.norms, cache.emb, d_emb,
                            params.text_hidden_w, params.text_out_w)[0]
        np.add.at(dense["unigram_table"], cache.uni_idx,
                  (d_x / cache.uni_counts[:, None])[cache.uni_rows])
        np.add.at(dense["bigram_table"], cache.bi_idx,
                  (d_x / np.maximum(cache.bi_counts, 1.0)[:, None])[cache.bi_rows])
    return dense


class TestRowSparseScatter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(text_pass, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
    @example([[["rock"], ["tune"]], [["a", "rock", "a", "rock"]]], 0)  # bigram-free pass
    def test_matches_add_at_bit_for_bit(self, passes_tokens, seed):
        params = init_params(SCATTER_DIMS, seed=3)
        rng = np.random.default_rng(seed)
        passes = []
        for lists in passes_tokens:
            emb, cache = encode_token_lists(
                params, [reference_ids(t, SCATTER_DIMS.hash_buckets) for t in lists])
            assert cache.x.tobytes() == pooled_with_add_at(params, cache).tobytes()
            passes.append((cache, rng.normal(size=emb.shape)))
        grads = model_backward(params, passes)
        for name, dense in table_grads_with_add_at(params, passes).items():
            grad = getattr(grads, name)
            ids = np.concatenate([getattr(c, "uni_idx" if name == "unigram_table"
                                          else "bi_idx") for c, _ in passes])
            np.testing.assert_array_equal(grad.rows, np.unique(ids))
            assert grad.values.shape == (len(grad.rows), SCATTER_DIMS.d_t)
            assert dense_table(grad, SCATTER_DIMS.hash_buckets).tobytes() == dense.tobytes()

    def test_forward_pooling_across_chunks_matches_add_at(self):
        params = init_params(ModelDims(d_t=8, d_h=8, d=4, d_a=3, hash_buckets=16), seed=4)
        rng = np.random.default_rng(9)
        lists = [[SCATTER_WORDS[i] for i in rng.integers(0, len(SCATTER_WORDS),
                                                         size=rng.integers(1, 9))]
                 for _ in range(200)]
        _, cache = encode_token_lists(params, [reference_ids(t, 16) for t in lists])
        assert cache.x.tobytes() == pooled_with_add_at(params, cache).tobytes()


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
    st.builds(lambda t, n: TagMention(t, True, n),
              st.integers(0, len(ID_VOCAB.tags) - 1), st.sampled_from(ID_VOCAB.negators)),
)
captions = st.builds(Caption, st.lists(caption_tokens, min_size=1, max_size=8).map(tuple))
# hash_bucket modulo 2**m keeps only the low bits of a multiplicative hash,
# which over eight buckets cannot tell "a b" from "b a"; 61 buckets can
ID_DIMS = ModelDims(d_t=5, d_h=6, d=4, d_a=3, hash_buckets=61)


class TestTokenIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(captions, min_size=1, max_size=6), st.integers(0, 6))
    @example([Caption((Word("A"), Word("rock"))), Caption((Word("..."),))], 0)
    def test_id_path_matches_string_reference(self, caps, n_kept):
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

        # one index reused across batches, some captions held by identity
        index = TokenIndex(ID_VOCAB, n)
        index.keep(caps[:n_kept])
        batches = [encode_text_batch(params, caps, ID_VOCAB),
                   encode_token_lists(params, index.ids(caps)),
                   encode_token_lists(params, index.ids(caps))]
        for emb, cache in batches:
            assert cache.uni_idx.tolist() == uni_idx
            assert cache.uni_rows.tolist() == uni_rows
            assert cache.bi_idx.tolist() == bi_idx
            assert cache.bi_rows.tolist() == bi_rows
            assert cache.x.tobytes() == x.tobytes()
            assert emb.tobytes() == emb_ref.tobytes()


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
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match="'text_out_w' holds non-finite values"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, small_params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, small_params)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
