import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caption_apply import caption_ids, fully_negate
from fd_utils import (
    clap_loss_through_encoders,
    dissimilarity_through_encoders,
    finite_difference_grads,
    max_gradient_violation,
    named_grads,
)
from ids_utils import concat_ids, take_ids
from negclap.corpus import generate_dataset, generate_vocabulary
from negclap.model import ModelDims, init_params
from negclap.objective import clap_loss, dissimilarity_loss, total_loss_through_encoders
from negclap.seeding import seeded_rng


def unit_rows(raw):
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / np.maximum(norms, 1e-12)


def random_units(n, d, seed):
    return unit_rows(np.random.default_rng(seed).normal(size=(n, d)))


def chain_setup(seed):
    """A small model, four clips' features and the bucket ids of their captions
    and of the fully negated captions."""
    dims = ModelDims(d_t=8, d_h=8, d=8, d_a=8, hash_buckets=32)
    params = init_params(dims, seed=seed, init_scale=0.2)
    params.log_temperature[...] = np.log(5.0)
    vocab = generate_vocabulary(6, seed)
    ds = generate_dataset(vocab, 4, d_a=8, rng_seed=seed)
    captions = [c for _, c in ds.pairs]
    feats = np.stack([clip.features for clip, _ in ds.pairs])
    rng = seeded_rng(seed, 42)
    negated = [fully_negate(c, vocab, rng) for c in captions]
    return (params, feats, caption_ids(captions, vocab, dims.hash_buckets),
            caption_ids(negated, vocab, dims.hash_buckets))


def step_ids(ids, neg_ids):
    """A step's captions: the contrastive ones, then the same as anchors, then the negated."""
    return concat_ids([ids, ids, neg_ids])


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
        loss, d_audio, _, d_log_temperature = clap_loss(a, c, log_temperature=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(d_audio, 0.0, atol=1e-12)
        assert d_log_temperature == pytest.approx(0.0, abs=1e-12)

    def test_uniform_similarities_give_log_batch(self):
        e = np.array([[1.0, 0.0]])
        a = np.repeat(e, 2, axis=0)
        loss = clap_loss(a, a, log_temperature=0.7)[0]
        assert loss == pytest.approx(math.log(2.0))

    def test_hand_computed_two_pair_value(self):
        # unit embeddings on separate axes with temperature 2 give scaled
        # logits [[2, 0], [0, 2]] whose symmetric cross entropy is ln(1+e^-2)
        a = np.eye(2)
        loss = clap_loss(a, a, log_temperature=math.log(2.0))[0]
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)

    def test_permutation_equivariance(self):
        a = random_units(5, 6, 2)
        c = random_units(5, 6, 3)
        loss = clap_loss(a, c, log_temperature=1.3)[0]
        perm = np.random.default_rng(4).permutation(5)
        loss_p = clap_loss(a[perm], c[perm], log_temperature=1.3)[0]
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_nonnegative_on_random_batches(self):
        for seed in range(20):
            a = random_units(4, 8, seed)
            c = random_units(4, 8, seed + 100)
            loss = clap_loss(a, c, log_temperature=2.0)[0]
            assert loss >= 0.0

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError):
            clap_loss(empty, empty, log_temperature=1.0)

    def test_gradients_match_finite_differences_on_embeddings(self):
        a = random_units(3, 5, 7)
        c = random_units(3, 5, 8)
        lt = 1.1
        _, d_audio, d_text, d_log_temperature = clap_loss(a, c, lt)

        def num_grad(base, which):
            out = np.zeros_like(base)
            h = 1e-6
            for i in np.ndindex(base.shape):
                for sign in (1, -1):
                    base[i] += sign * h
                    loss = clap_loss(a, c, lt)[0]
                    out[i] += sign * loss / (2 * h)
                    base[i] -= sign * h
            return out

        np.testing.assert_allclose(d_audio, num_grad(a, "a"), atol=1e-7)
        np.testing.assert_allclose(d_text, num_grad(c, "c"), atol=1e-7)
        h = 1e-6
        lo = clap_loss(a, c, lt - h)[0]
        hi = clap_loss(a, c, lt + h)[0]
        assert d_log_temperature == pytest.approx((hi - lo) / (2 * h), abs=1e-7)


class TestDissimilarityLoss:
    def test_equality_cases(self):
        e = random_units(4, 6, 0)
        same = dissimilarity_loss(e, e)[0]
        assert same == pytest.approx(2.0, abs=1e-12)
        opposite = dissimilarity_loss(e, -e)[0]
        assert opposite == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pairs_give_one(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        loss = dissimilarity_loss(a, b)[0]
        assert loss == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(unit_batches)
    def test_bounds_for_unit_inputs(self, pair):
        raw_a, raw_b = pair
        norm_a = np.linalg.norm(raw_a, axis=1)
        norm_b = np.linalg.norm(raw_b, axis=1)
        if (norm_a < 1e-6).any() or (norm_b < 1e-6).any():
            return
        loss = dissimilarity_loss(unit_rows(raw_a), unit_rows(raw_b))[0]
        assert 0.0 <= loss <= 2.0 + 1e-9

    def test_antipodal_rows_of_ones_clip_to_zero(self):
        # unclipped, rounding gives 1 + (-1) = -2.2e-16 here
        a = unit_rows(np.ones((3, 5)))
        loss, d_anchor, d_negated = dissimilarity_loss(a, -a)
        assert loss == 0.0
        np.testing.assert_array_equal(d_anchor, -a / 3)
        np.testing.assert_array_equal(d_negated, a / 3)

    def test_gradients(self):
        a = random_units(5, 4, 1)
        b = random_units(5, 4, 2)
        _, d_anchor, d_negated = dissimilarity_loss(a, b)
        np.testing.assert_allclose(d_anchor, b / 5)
        np.testing.assert_allclose(d_negated, a / 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity_loss(random_units(3, 4, 0), random_units(2, 4, 1))

    def test_empty_batch_rejected(self):
        empty = np.zeros((0, 4))
        with pytest.raises(ValueError):
            dissimilarity_loss(empty, empty)


class TestTotalLoss:
    """The weighted total through the one chain that training runs."""

    def test_weighted_sum_and_breakdown(self):
        params, feats, ids, neg_ids = chain_setup(3)
        k = 1e-2
        breakdown, grads = total_loss_through_encoders(
            params, feats, step_ids(ids, neg_ids), k=k)
        l_clap, clap_grads = clap_loss_through_encoders(params, feats, ids)
        l_diss, diss_grads = dissimilarity_through_encoders(params, ids, neg_ids)
        assert breakdown.l_clap == l_clap
        assert breakdown.l_diss == l_diss
        assert breakdown.l_total == l_clap + k * l_diss
        total = named_grads(grads)
        clap = named_grads(clap_grads)
        diss = named_grads(diss_grads)
        for name in total:
            np.testing.assert_allclose(total[name], clap[name] + k * diss[name],
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    def test_spec_arithmetic_example(self):
        # l_total composes linearly: 0.5 + 1e-2 * 1.2 = 0.512
        assert 0.5 + 1e-2 * 1.2 == pytest.approx(0.512)

    def test_zero_weight_reduces_to_clap(self):
        params, feats, ids, neg_ids = chain_setup(7)
        breakdown, grads = total_loss_through_encoders(
            params, feats, step_ids(ids, neg_ids), k=0.0)
        l_clap, clap_grads = clap_loss_through_encoders(params, feats, ids)
        assert breakdown.l_clap == l_clap
        assert breakdown.l_total == l_clap
        # the pair's passes carry exact zeros, so every gradient equals the clap term's
        total = named_grads(grads)
        for name, grad in named_grads(clap_grads).items():
            np.testing.assert_array_equal(total[name], grad, err_msg=name)

    def test_negative_weight_rejected(self):
        params, feats, ids, _ = chain_setup(0)
        with pytest.raises(ValueError, match="nonnegative"):
            total_loss_through_encoders(params, feats, ids, k=-0.1)

    def test_malformed_layout_rejected(self):
        params, feats, ids, neg_ids = chain_setup(0)
        odd = concat_ids([ids, ids, take_ids(neg_ids, np.arange(len(neg_ids) - 1))])
        for audio, text in ((feats, odd),  # an odd remainder after the contrastive block
                            (feats, take_ids(ids, np.arange(len(ids) - 1))),  # fewer than the audio
                            (None, take_ids(neg_ids, np.arange(3)))):  # an odd pair block alone
            with pytest.raises(ValueError, match=f"expected {0 if audio is None else 4} "
                                                 f"contrastive captions.*got {len(text)}"):
                total_loss_through_encoders(params, audio, text, k=1e-2)
        with pytest.raises(ValueError, match="4 anchors but 3 negated"):
            dissimilarity_through_encoders(params, ids, take_ids(neg_ids, np.arange(3)))

    def test_monotone_in_weight(self):
        params, feats, ids, neg_ids = chain_setup(11)
        totals = [
            total_loss_through_encoders(
                params, feats, step_ids(ids, neg_ids), k=k, with_grads=False)[0].l_total
            for k in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert totals == sorted(totals)


class TestFullChainGradients:
    def test_dissimilarity_chain_matches_finite_differences(self):
        params, _, ids, neg_ids = chain_setup(1)
        _, analytic = dissimilarity_through_encoders(params, ids, neg_ids)
        numeric = finite_difference_grads(
            lambda p: dissimilarity_through_encoders(p, ids, neg_ids, with_grads=False)[0],
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"gradient mismatch at {where} (ratio {worst:.2f})"
        # the dissimilarity term never touches the similarity-matrix scaling
        assert float(analytic.log_temperature) == 0.0

    @pytest.mark.parametrize("k", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_total_chain_matches_finite_differences(self, k):
        params, feats, ids, neg_ids = chain_setup(2)
        _, analytic = total_loss_through_encoders(params, feats, step_ids(ids, neg_ids), k=k)
        numeric = finite_difference_grads(
            lambda p: total_loss_through_encoders(
                p, feats, step_ids(ids, neg_ids), k=k, with_grads=False)[0].l_total,
            params)
        worst, where = max_gradient_violation(analytic, numeric)
        assert worst <= 1.0, f"k={k}: gradient mismatch at {where} (ratio {worst:.2f})"
