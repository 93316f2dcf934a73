import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fd_utils import dense_table, finite_difference_grads, max_gradient_violation
from negclap.corpus import Caption, TagMention, Word, generate_dataset, generate_vocabulary, render_caption
from negclap.model import (
    DENSE_FIELDS,
    TABLE_FIELDS,
    ModelDims,
    ParamGrads,
    RowGrad,
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
    sgd_update,
    similarity,
    tokenize,
)
from negclap.objective import clap_loss_through_encoders


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
        a = encode_token_lists(small_params, [["slow", "rock", "loud", "guitar"]])[0][0]
        b = encode_token_lists(small_params, [["loud", "rock", "slow", "guitar"]])[0][0]
        assert np.linalg.norm(a - b) > 1e-6

    def test_empty_caption_rejected(self, small_params):
        with pytest.raises(ValueError):
            encode_token_lists(small_params, [[]])

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
            emb, cache = encode_token_lists(params, lists)
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
        _, cache = encode_token_lists(params, lists)
        assert cache.x.tobytes() == pooled_with_add_at(params, cache).tobytes()


class TestSgdUpdate:
    def test_step_and_temperature_clamp(self, small_params):
        params = small_params.copy()
        grads = ParamGrads.zeros_like(params)
        grads.text_out_b += 1.0
        grads.log_temperature += -100.0
        sgd_update(params, grads, learning_rate=0.5)
        np.testing.assert_allclose(params.text_out_b, small_params.text_out_b - 0.5)
        assert float(params.log_temperature) == pytest.approx(np.log(100.0))

    def test_row_sparse_step_equals_dense_step(self, small_params):
        params = small_params.copy()
        rng = np.random.default_rng(2)
        grads = ParamGrads.zeros_like(params)
        for name in DENSE_FIELDS:
            getattr(grads, name)[...] = rng.normal(size=getattr(params, name).shape)
        n_rows, d_t = params.unigram_table.shape
        grads.unigram_table = RowGrad(np.array([0, 5, 17]), rng.normal(size=(3, d_t)))
        grads.bigram_table = RowGrad.empty(d_t)
        expected = {name: getattr(small_params, name)
                    - 0.3 * (dense_table(grad, n_rows) if name in TABLE_FIELDS else grad)
                    for name, grad in grads.items()}
        sgd_update(params, grads, learning_rate=0.3)
        for name, arr in params.items():
            if name != "log_temperature":
                assert arr.tobytes() == expected[name].tobytes(), name


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
