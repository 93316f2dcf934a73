import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fd_utils import finite_difference_grads, max_gradient_violation
from negclap.corpus import generate_dataset, generate_vocabulary
from negclap.model import ModelDims, init_params
from negclap.negation import fully_negate
from negclap.objective import (
    clap_loss,
    clap_loss_through_encoders,
    dissimilarity_loss,
    dissimilarity_through_encoders,
    total_loss,
    total_loss_through_encoders,
)
from negclap.seeding import seeded_rng


def unit_rows(raw):
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.maximum(norms, 1e-12)


def random_units(n, d, seed):
    return unit_rows(np.random.default_rng(seed).normal(size=(n, d)))


unit_batches = st.integers(1, 6).flatmap(
    lambda b: st.tuples(
        arrays(np.float64, (b, 5), elements=st.floats(-3, 3)),
        arrays(np.float64, (b, 5), elements=st.floats(-3, 3)),
    )
)


class TestClapLoss:
    def test_single_pair_has_zero_loss(self):
        a = random_units(1, 4, 0)
        c = random_units(1, 4, 1)
        loss, grads = clap_loss(a, c, log_temperature=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grads.d_audio, 0.0, atol=1e-12)
        assert grads.d_log_temperature == pytest.approx(0.0, abs=1e-12)

    def test_uniform_similarities_give_log_batch(self):
        e = np.array([[1.0, 0.0]])
        a = np.repeat(e, 2, axis=0)
        loss, _ = clap_loss(a, a, log_temperature=0.7)
        assert loss == pytest.approx(math.log(2.0))

    def test_hand_computed_two_pair_value(self):
        # unit embeddings on separate axes with temperature 2 give scaled
        # logits [[2, 0], [0, 2]] whose symmetric cross entropy is ln(1+e^-2)
        a = np.eye(2)
        loss, _ = clap_loss(a, a, log_temperature=math.log(2.0))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)

    def test_permutation_equivariance(self):
        a = random_units(5, 6, 2)
        c = random_units(5, 6, 3)
        loss, _ = clap_loss(a, c, log_temperature=1.3)
        perm = np.random.default_rng(4).permutation(5)
        loss_p, _ = clap_loss(a[perm], c[perm], log_temperature=1.3)
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_nonnegative_on_random_batches(self):
        for seed in range(20):
            a = random_units(4, 8, seed)
            c = random_units(4, 8, seed + 100)
            loss, _ = clap_loss(a, c, log_temperature=2.0)
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError):
            clap_loss(empty, empty, log_temperature=1.0)

    def test_gradients_match_finite_differences_on_embeddings(self):
        a = random_units(3, 5, 7)
        c = random_units(3, 5, 8)
        lt = 1.1
        _, grads = clap_loss(a, c, lt)

        def num_grad(base, which):
            out = np.zeros_like(base)
            h = 1e-6
            for i in np.ndindex(base.shape):
                for sign in (1, -1):
                    base[i] += sign * h
                    loss, _ = clap_loss(a, c, lt)
                    out[i] += sign * loss / (2 * h)
                    base[i] -= sign * h
            return out

        np.testing.assert_allclose(grads.d_audio, num_grad(a, "a"), atol=1e-7)
        np.testing.assert_allclose(grads.d_text, num_grad(c, "c"), atol=1e-7)
        h = 1e-6
        lo, _ = clap_loss(a, c, lt - h)
        hi, _ = clap_loss(a, c, lt + h)
        assert grads.d_log_temperature == pytest.approx((hi - lo) / (2 * h), abs=1e-7)


class TestDissimilarityLoss:
    def test_equality_cases(self):
        e = random_units(4, 6, 0)
        same, _ = dissimilarity_loss(e, e)
        assert same == pytest.approx(2.0, abs=1e-12)
        opposite, _ = dissimilarity_loss(e, -e)
        assert opposite == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pairs_give_one(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        loss, _ = dissimilarity_loss(a, b)
        assert loss == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(unit_batches)
    def test_bounds_for_unit_inputs(self, pair):
        raw_a, raw_b = pair
        norm_a = np.linalg.norm(raw_a, axis=1)
        norm_b = np.linalg.norm(raw_b, axis=1)
        if (norm_a < 1e-6).any() or (norm_b < 1e-6).any():
            return
        loss, _ = dissimilarity_loss(unit_rows(raw_a), unit_rows(raw_b))
        assert 0.0 <= loss <= 2.0 + 1e-9

    def test_antipodal_rows_of_ones_clip_to_zero(self):
        # unclipped, rounding gives 1 + (-1) = -2.2e-16 here
        a = unit_rows(np.ones((3, 5)))
        loss, grads = dissimilarity_loss(a, -a)
        assert loss == 0.0
        np.testing.assert_array_equal(grads.d_anchor, -a / 3)
        np.testing.assert_array_equal(grads.d_negated, a / 3)

    def test_gradients(self):
        a = random_units(5, 4, 1)
        b = random_units(5, 4, 2)
        _, grads = dissimilarity_loss(a, b)
        np.testing.assert_allclose(grads.d_anchor, b / 5)
        np.testing.assert_allclose(grads.d_negated, a / 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity_loss(random_units(3, 4, 0), random_units(2, 4, 1))

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError):
            dissimilarity_loss(empty, empty)


class TestTotalLoss:
    def test_weighted_sum_and_breakdown(self):
        a = random_units(4, 6, 3)
        c = random_units(4, 6, 4)
        anchors = random_units(4, 6, 5)
        negated = random_units(4, 6, 6)
        k = 1e-2
        breakdown, grads = total_loss(a, c, k=k, log_temperature=1.0,
                                      anchor_embs=anchors, negated_embs=negated)
        l_clap, _ = clap_loss(a, c, 1.0)
        l_diss, dg = dissimilarity_loss(anchors, negated)
        assert breakdown.l_clap == l_clap
        assert breakdown.l_diss == l_diss
        assert breakdown.l_total == l_clap + k * l_diss
        np.testing.assert_allclose(grads.d_anchor, k * dg.d_anchor)

    def test_spec_arithmetic_example(self):
        # l_total composes linearly: 0.5 + 1e-2 * 1.2 = 0.512
        assert 0.5 + 1e-2 * 1.2 == pytest.approx(0.512)

    def test_zero_weight_reduces_to_clap(self):
        a = random_units(3, 5, 7)
        c = random_units(3, 5, 8)
        anchors = random_units(3, 5, 9)
        negated = random_units(3, 5, 10)
        breakdown, grads = total_loss(a, c, k=0.0, log_temperature=0.9,
                                      anchor_embs=anchors, negated_embs=negated)
        l_clap, cg = clap_loss(a, c, 0.9)
        assert breakdown.l_total == l_clap
        np.testing.assert_array_equal(grads.d_audio, cg.d_audio)
        np.testing.assert_array_equal(grads.d_text, cg.d_text)
        assert not np.any(grads.d_anchor)

    def test_negative_weight_rejected(self):
        a = random_units(2, 4, 0)
        with pytest.raises(ValueError):
            total_loss(a, a, k=-0.1, log_temperature=1.0)

    def test_monotone_in_weight(self):
        a = random_units(4, 6, 11)
        c = random_units(4, 6, 12)
        anchors = random_units(4, 6, 13)
        negated = random_units(4, 6, 14)
        totals = [
            total_loss(a, c, k=k, log_temperature=1.0, anchor_embs=anchors,
                       negated_embs=negated)[0].l_total
            for k in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert totals == sorted(totals)


class TestFullChainGradients:
    def _setup(self, seed):
        dims = ModelDims(d_t=8, d_h=8, d=8, d_a=8, hash_buckets=32)
        params = init_params(dims, seed=seed, init_scale=0.2)
        params.log_temperature[...] = np.log(5.0)
        vocab = generate_vocabulary(6, seed)
        ds = generate_dataset(vocab, 4, d_a=8, rng_seed=seed)
        captions = [c for _, c in ds.pairs]
        feats = np.stack([clip.features for clip, _ in ds.pairs])
        rng = seeded_rng(seed, 42)
        negated = [fully_negate(c, vocab, rng) for c in captions]
        return params, vocab, feats, captions, negated

    def test_dissimilarity_chain_matches_finite_differences(self):
        params, vocab, _, captions, negated = self._setup(1)
        _, analytic = dissimilarity_through_encoders(params, vocab, captions, negated)
        numeric = finite_difference_grads(
            lambda p: dissimilarity_through_encoders(p, vocab, captions, negated,
                                                     with_grads=False)[0],
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"gradient mismatch at {where} (ratio {worst:.2f})"
        # the dissimilarity term never touches the similarity-matrix scaling
        assert float(analytic.log_temperature) == 0.0

    @pytest.mark.parametrize("k", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_total_chain_matches_finite_differences(self, k):
        params, vocab, feats, captions, negated = self._setup(2)
        _, analytic = total_loss_through_encoders(
            params, vocab, feats, captions, k=k,
            anchor_captions=captions, negated_captions=negated)
        numeric = finite_difference_grads(
            lambda p: total_loss_through_encoders(
                p, vocab, feats, captions, k=k, anchor_captions=captions,
                negated_captions=negated, with_grads=False)[0].l_total,
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"k={k}: gradient mismatch at {where} (ratio {worst:.2f})"
