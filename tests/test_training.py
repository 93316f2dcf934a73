import csv
import math

import numpy as np
import pytest

from caption_apply import apply_augmentation, caption_ids, fully_negate
from ids_utils import assert_same_ids, concat_ids, stepwise, take_ids
from negclap.corpus import generate_dataset, generate_vocabulary, split_dataset
from negclap.model import ModelDims, ParamGrads, RowGrad
from negclap.seeding import seeded_rng
from negclap import training
from negclap.negation import AugmentationExhausted
from negclap.training import (
    ADAM_BETA2,
    ADAM_EPS,
    AdamOptimizer,
    LOG_COLUMNS,
    SweepRow,
    TrainConfig,
    make_batches,
    plan_epoch,
    sweep,
    sweep_configs,
    train,
    train_step,
    write_sweep_outputs,
    write_train_log_csv,
)

TINY_DIMS = ModelDims(d_t=16, d_h=16, d=8, d_a=12, hash_buckets=128)


def tiny_splits(seed=0, n=140, n_test=20):
    vocab = generate_vocabulary(8, seed)
    ds = generate_dataset(vocab, n, d_a=TINY_DIMS.d_a, rng_seed=seed)
    return split_dataset(ds, n_test)


class TestTrainConfig:
    def test_baseline_forbids_interventions(self):
        with pytest.raises(ValueError):
            TrainConfig(condition="baseline", seed=0, p_aug=0.3)
        with pytest.raises(ValueError):
            TrainConfig(condition="baseline", seed=0, k=1e-2)

    def test_text_aug_forbids_loss_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(condition="text_aug", seed=0, p_aug=0.5, k=1e-2)

    def test_loss_term_forbids_augmentation(self):
        with pytest.raises(ValueError):
            TrainConfig(condition="loss_term", seed=0, p_aug=0.5, k=1e-2)

    def test_combo_requires_both(self):
        with pytest.raises(ValueError):
            TrainConfig(condition="combo", seed=0, p_aug=0.6)
        with pytest.raises(ValueError):
            TrainConfig(condition="combo", seed=0, k=1e-2)
        TrainConfig(condition="combo", seed=0, p_aug=0.6, k=1e-2)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            TrainConfig(condition="baseline", seed=0, p_aug=-0.1)
        with pytest.raises(ValueError, match="p_aug must lie in"):
            TrainConfig(condition="text_aug", seed=0, p_aug=1.5)
        with pytest.raises(ValueError):
            TrainConfig(condition="baseline", seed=0, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(condition="wild", seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_settings(self, value):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(condition="baseline", seed=0, learning_rate=value)
        with pytest.raises(ValueError, match="k must be finite and nonnegative"):
            TrainConfig(condition="loss_term", seed=0, k=value)
        with pytest.raises(ValueError, match="p_aug must lie in"):
            TrainConfig(condition="text_aug", seed=0, p_aug=value)


class TestMakeBatches:
    def test_sizes_and_dropped_remainder(self):
        train_ds, _ = tiny_splits(n=120, n_test=20)  # 100 train pairs
        batches = make_batches(train_ds, 32, epoch_seed=5)
        assert len(batches) == 3
        assert all(len(b) == 32 for b in batches)

    def test_deterministic(self):
        train_ds, _ = tiny_splits()
        a = make_batches(train_ds, 16, epoch_seed=9)
        b = make_batches(train_ds, 16, epoch_seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_union_is_prefix_of_seeded_permutation(self):
        train_ds, _ = tiny_splits(n=120, n_test=20)
        batches = make_batches(train_ds, 32, epoch_seed=13)
        flattened = np.concatenate(batches)
        expected = np.random.default_rng(13).permutation(len(train_ds.pairs))[:96]
        np.testing.assert_array_equal(flattened, expected)

    def test_oversized_batch_rejected(self):
        train_ds, _ = tiny_splits(n=30, n_test=10)
        with pytest.raises(ValueError):
            make_batches(train_ds, 21, epoch_seed=0)


def toy_splits():
    """The toy corpus of ``negclap gen-data --n-tags 12 --n-clips 300 --n-test 64 --seed 5``."""
    vocab = generate_vocabulary(12, 5)
    return split_dataset(generate_dataset(vocab, 300, d_a=64, rng_seed=5), 64)


class TestTrainStep:
    def _step(self, condition, size=8, train_ds=None, **config):
        """Plan one step of ``condition`` on the first ``size`` pairs of ``train_ds``
        (by default the tiny train split) and run it; returns the breakdown and the plan."""
        from negclap.model import TokenTable, init_params

        if train_ds is None:
            train_ds, _ = tiny_splits()
        table, n_buckets = TokenTable(train_ds.vocabulary, train_ds.words), TINY_DIMS.hash_buckets
        slots = train_ds.captions.take(np.arange(size))
        config = TrainConfig(condition=condition, seed=1, batch_size=8, epochs=1, **config)
        plan = plan_epoch(slots, np.arange(size), config, table, n_buckets, seeded_rng(0))
        params = init_params(TINY_DIMS, 3)
        # (size, d_a) even at size 0, so an empty batch reaches train_step
        features = np.array([clip.features for clip, _ in train_ds.pairs[:size]],
                            dtype=np.float64).reshape(size, TINY_DIMS.d_a)
        # the plan's ids are its one step's (none at size 0)
        breakdown = train_step(params, features, plan.ids, config,
                               AdamOptimizer.for_params(params))
        return breakdown, plan

    def test_baseline_reports_zero_dissimilarity(self):
        breakdown, plan = self._step("baseline")
        assert breakdown.l_diss == 0.0
        assert breakdown.l_total == breakdown.l_clap
        assert (plan.n_augmented, plan.n_exhausted) == (0, 0)
        assert plan.n_blocks == 1 and len(plan.ids) == 8

    def test_loss_term_keeps_contrastive_captions_unaugmented(self):
        breakdown, plan = self._step("loss_term", k=1e-2)
        assert plan.n_augmented == 0
        clap, anchors, _ = plan.ids.batches(8)
        for field in ("rows", "lens"):
            np.testing.assert_array_equal(getattr(clap, field), getattr(anchors, field))
        assert 0.0 <= breakdown.l_diss <= 2.0 + 1e-9
        assert breakdown.l_total == breakdown.l_clap + 1e-2 * breakdown.l_diss

    def test_full_augmentation_touches_every_caption(self):
        _, plan = self._step("text_aug", p_aug=1.0)
        assert (plan.n_augmented, plan.n_exhausted) == (8, 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            self._step("baseline", size=0)

    def test_exhausted_items_keep_their_original_captions(self):
        # every caption mentions both vocabulary tags, so no insert is possible
        vocab = generate_vocabulary(2, 0)
        train_ds = generate_dataset(vocab, 8, tags_per_clip=(2, 2), d_a=TINY_DIMS.d_a,
                                    rng_seed=0)
        breakdown, plan = self._step("text_aug", train_ds=train_ds, p_aug=1.0)
        assert (plan.n_augmented, plan.n_exhausted) == (0, 8)
        assert breakdown.l_clap == self._step("baseline", train_ds=train_ds)[0].l_clap

    @pytest.mark.parametrize("condition, hyper", [
        ("baseline", {}), ("text_aug", {"p_aug": 0.6}), ("loss_term", {"k": 1e-2}),
        ("combo", {"p_aug": 0.6, "k": 1e-2})])
    def test_one_text_pass_one_audio_pass_one_backward(self, monkeypatch, condition, hyper):
        from negclap import objective

        calls = []
        for name in ("encode_token_lists", "encode_audio_batch", "model_backward"):
            def counted(*args, _name=name, _fn=getattr(objective, name), **kwargs):
                calls.append((_name, len(args[1]) if _name == "encode_token_lists" else None))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(objective, name, counted)
        self._step(condition, **hyper)
        text_rows = 24 if "k" in hyper else 8  # contrastive, anchors, negated
        assert sorted(calls) == [("encode_audio_batch", None), ("encode_token_lists", text_rows),
                                 ("model_backward", None)]


def per_item_reference(captions, order, config, table, n_buckets, rng):
    """Each step's contrastive and negated captions' ids, drawn caption by caption."""
    vocab = table.vocab
    clap, negated = [], []
    B = config.batch_size
    for start in range(0, len(order), B):
        batch = [captions[i] for i in order[start:start + B]]
        for caption in batch:
            try:
                clap.append(apply_augmentation(caption, vocab, config.p_aug, rng))
            except AugmentationExhausted:
                clap.append(caption)
        if config.k > 0:
            negated += [fully_negate(caption, vocab, rng) for caption in batch]
    return (caption_ids(clap, vocab, n_buckets),
            caption_ids(negated, vocab, n_buckets) if negated else None)


def reference_blocks(captions, order, config, table, n_buckets, rng):
    """Every item's captions by ``per_item_reference``, as blocks of the plan's step
    layout: the contrastive captions, then with k > 0 the originals (the anchors)
    and the negated captions."""
    clap, negated = per_item_reference(captions, order, config, table, n_buckets, rng)
    if negated is None:
        return [clap]
    return [clap, caption_ids([captions[i] for i in order], table.vocab, n_buckets), negated]


class TestEpochPlan:
    @pytest.mark.parametrize("condition, hyper", [
        ("baseline", {}), ("loss_term", {"k": 1e-2}), ("text_aug", {"p_aug": 0.6}),
        ("combo", {"p_aug": 0.6, "k": 1e-2})])
    def test_matches_per_item_draws(self, condition, hyper):
        from negclap.model import TokenTable

        train_ds, _ = tiny_splits(n=140, n_test=20)
        captions = [c for _, c in train_ds.pairs]
        config = TrainConfig(condition=condition, seed=1, batch_size=8, **hyper)
        order = np.concatenate(make_batches(train_ds, 8, epoch_seed=4))
        table, n_buckets = TokenTable(train_ds.vocabulary, train_ds.words), TINY_DIMS.hash_buckets
        plan = plan_epoch(train_ds.captions, order, config, table, n_buckets, seeded_rng(3))
        blocks = reference_blocks(captions, order, config, table, n_buckets, seeded_rng(3))
        assert plan.n_blocks == len(blocks) == (3 if "k" in hyper else 1)
        assert_same_ids(plan.ids, stepwise(blocks, 8), "ids")
        steps = list(plan.steps())
        assert len(steps) == len(order) // 8
        # each step's captions: its contrastive block, then its anchors and negated
        for s, (items, text_ids) in enumerate(steps):
            assert items == slice(8 * s, 8 * s + 8)
            want = concat_ids([take_ids(block, np.arange(8 * s, 8 * s + 8)) for block in blocks])
            assert_same_ids(text_ids, want, f"step {s}")

    @pytest.mark.parametrize("condition, hyper", [
        ("baseline", {}), ("loss_term", {"k": 1e-2}), ("text_aug", {"p_aug": 0.6}),
        ("combo", {"p_aug": 0.6, "k": 1e-2})])
    def test_step_layout_trains_as_the_concatenated_ids(self, condition, hyper):
        from negclap.model import _IDS_CHUNK, TokenTable, init_params
        from negclap.objective import total_loss_through_encoders

        class Recording(AdamOptimizer):
            def step(self, params, grads, learning_rate):
                self.grads = grads
                super().step(params, grads, learning_rate)

        train_ds, _ = tiny_splits(n=1220, n_test=20)
        captions = [c for _, c in train_ds.pairs]
        config = TrainConfig(condition=condition, seed=1, batch_size=8, **hyper)
        order = np.concatenate(make_batches(train_ds, 8, epoch_seed=4))
        table, n_buckets = TokenTable(train_ds.vocabulary, train_ds.words), TINY_DIMS.hash_buckets
        plan = plan_epoch(train_ds.captions, order, config, table, n_buckets, seeded_rng(3))
        blocks = reference_blocks(captions, order, config, table, n_buckets, seeded_rng(3))
        steps = list(plan.steps())
        assert len(steps) == 150
        assert len(steps) * 8 * len(blocks) > _IDS_CHUNK  # hashed in more than one chunk
        features, params = train_ds.features, init_params(TINY_DIMS, 3)
        for s, (items, layout) in enumerate(steps):
            ids = concat_ids([take_ids(b, np.arange(8 * s, 8 * s + 8)) for b in blocks])
            assert_same_ids(layout, ids, f"step {s}")
            # every step trains on the layout as the chain does on the concatenated ids
            by_layout, by_ids = params.copy(), params.copy()
            optimizer = Recording.for_params(by_layout)
            got = train_step(by_layout, features[order[items]], layout, config, optimizer)
            want, grads = total_loss_through_encoders(by_ids, features[order[items]], ids,
                                                      k=config.k)
            AdamOptimizer.for_params(by_ids).step(by_ids, grads, config.learning_rate)
            assert got == want
            for a, b in ((optimizer.grads.table.rows, grads.table.rows),
                         (optimizer.grads.table.values, grads.table.values),
                         (optimizer.grads.dense, grads.dense),
                         (by_layout.tables, by_ids.tables), (by_layout.dense, by_ids.dense)):
                assert a.tobytes() == b.tobytes(), s

    def test_batched_bernoulli_draws_equal_scalar_draws(self):
        # the p_aug == 0 plan draws a step's B Bernoulli variates as one rng.random(B)
        for seed in range(5):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = batched.random(8)
            assert draws.tolist() == [scalar.random() for _ in range(8)]
            assert batched.random() == scalar.random()

    def test_batched_negator_draws_equal_scalar_draws(self):
        # draw_negators makes m negator draws as one rng.integers(0, n, size=m); numpy
        # fills it with one 32-bit generator call per value, as m scalar calls make,
        # so values and end state agree whatever draws of other bounds came before
        for seed in range(12):
            for n in range(1, 8):
                for m in range(17):
                    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                    for rng in (batched, scalar):
                        rng.random()
                        for bound in range(2, 2 + seed % 3):  # 0-2 draws, odd counts included
                            rng.integers(0, bound + n)
                    draws = batched.integers(0, n, size=m)
                    assert draws.tolist() == [scalar.integers(0, n) for _ in range(m)]
                    assert batched.bit_generator.state == scalar.bit_generator.state
                    assert batched.integers(0, 50) == scalar.integers(0, 50)
                    assert batched.random() == scalar.random()

    def test_text_aug_at_zero_probability_equals_baseline(self):
        train_ds, test_ds = toy_splits()
        runs = [train(train_ds, test_ds, TrainConfig(condition=cond, seed=1, epochs=2))
                for cond in ("baseline", "text_aug")]
        (base, base_logs), (aug, aug_logs) = runs
        assert [l.map10_avg for l in base_logs] == [l.map10_avg for l in aug_logs]
        assert base.epoch == aug.epoch
        for name, arr in base.params.items():
            assert arr.tobytes() == getattr(aug.params, name).tobytes(), name


def zero_grads(params):
    """Zero dense gradients and a table gradient with no row hit."""
    return ParamGrads(params.dims, RowGrad(np.empty(0, np.intp), np.empty((0, params.dims.d_t))),
                      np.zeros_like(params.dense))


class TestAdamOptimizer:
    def test_sparse_table_update_matches_dense_computation(self):
        from negclap.model import init_params

        params_sparse = init_params(TINY_DIMS, 7)
        params_dense = params_sparse.copy()
        opt_sparse = AdamOptimizer.for_params(params_sparse)
        opt_dense = AdamOptimizer.for_params(params_dense)
        rng = np.random.default_rng(0)
        n_rows = 2 * TINY_DIMS.hash_buckets  # unigram rows, then bigram rows
        every_row = np.arange(n_rows)
        for step in range(12):
            grads = zero_grads(params_sparse)
            rows = np.sort(rng.choice(n_rows, size=5, replace=False))
            grads.table = RowGrad(rows, rng.normal(size=(5, TINY_DIMS.d_t)))
            grads.text_out_b += rng.normal(size=TINY_DIMS.d)
            # dense path: give every row to the optimizer, zeros outside the batch's rows
            dense_table = np.zeros((n_rows, TINY_DIMS.d_t))
            dense_table[rows] = grads.table.values
            dense_grads = ParamGrads(TINY_DIMS, RowGrad(every_row, dense_table),
                                     grads.dense.copy())
            opt_sparse.step(params_sparse, grads, 0.01)
            opt_dense.step(params_dense, dense_grads, 0.01)
        for name, arr in params_sparse.items():
            np.testing.assert_allclose(arr, getattr(params_dense, name), atol=1e-12,
                                       err_msg=name)

    def test_table_update_matches_per_row_reference_bit_for_bit(self):
        from negclap.model import init_params

        params = init_params(TINY_DIMS, 7)
        opt = AdamOptimizer.for_params(params)
        table, v, last = params.tables.copy(), np.zeros_like(params.tables), {}
        n_rows = 2 * TINY_DIMS.hash_buckets
        rng = np.random.default_rng(4)
        # rows touched in consecutive steps, a step touching none, rows left for a
        # few steps and touched again, then random sets
        schedule = [[0, 5, 9, n_rows - 1], [0, 5], [], [9, 200], [0, 9, 200], [5]]
        schedule += [sorted(rng.choice(n_rows, size=rng.integers(1, 12), replace=False))
                     for _ in range(14)]
        for t, rows in enumerate(schedule, 1):
            rows = np.array(rows, dtype=np.intp)
            g = rng.normal(size=(len(rows), TINY_DIMS.d_t)) * 10.0 ** rng.integers(-6, 2)
            grads = zero_grads(params)
            grads.table = RowGrad(rows, g)
            lr = [0.01, 0.1][t % 2]
            opt.step(params, grads, lr)
            # reference: the documented expression, one row at a time; the decay is
            # numpy's power, which can differ from Python's float ** int in the last bit
            v_corr = 1.0 - ADAM_BETA2 ** t
            for r, g_r in zip(rows.tolist(), g):
                decay = np.power(ADAM_BETA2, t - last.get(r, 0))
                v[r] = v[r] * decay + (1.0 - ADAM_BETA2) * g_r * g_r
                table[r] -= lr * g_r / (np.sqrt(v[r] / v_corr) + ADAM_EPS)
                last[r] = t
            assert params.tables.tobytes() == table.tobytes(), t
            assert opt.table_v.tobytes() == v.tobytes(), t
            assert {r: int(opt.table_last[r]) for r in np.flatnonzero(opt.table_last)} == last

    def test_flat_dense_update_matches_per_parameter_adam(self):
        from negclap.model import DENSE_FIELDS, init_params

        params = init_params(TINY_DIMS, 7)
        reference = params.copy()
        opt = AdamOptimizer.for_params(params)
        m = {n: np.zeros_like(getattr(params, n)) for n in DENSE_FIELDS}
        v = {n: np.zeros_like(getattr(params, n)) for n in DENSE_FIELDS}
        rng = np.random.default_rng(3)
        for t in range(1, 6):
            grads = zero_grads(params)
            for name in DENSE_FIELDS:
                getattr(grads, name)[...] = rng.normal(size=getattr(params, name).shape)
            opt.step(params, grads, 0.01)
            # reference: Adam one parameter array at a time
            m_corr, v_corr = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for name in DENSE_FIELDS:
                g = getattr(grads, name)
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                p = getattr(reference, name)
                p -= 0.01 * (m[name] / m_corr) / (np.sqrt(v[name] / v_corr) + 1e-8)
            np.clip(reference.log_temperature, np.log(1.0), np.log(100.0),
                    out=reference.log_temperature)
            for name in DENSE_FIELDS:
                assert getattr(params, name).tobytes() == getattr(reference, name).tobytes(), name

    def test_temperature_clamped_after_step(self):
        from negclap.model import init_params

        # a first Adam step moves by about the learning rate, past either bound
        for start, grad, bound in ((np.log(100.0) - 1e-3, -1.0, np.log(100.0)),
                                   (1e-3, 1.0, 0.0)):
            params = init_params(TINY_DIMS, 7)
            params.log_temperature[...] = start
            grads = zero_grads(params)
            grads.log_temperature += grad
            AdamOptimizer.for_params(params).step(params, grads, learning_rate=0.5)
            assert float(params.log_temperature) == bound


class TestTrain:
    def _config(self, cond="baseline", **kw):
        base = dict(condition=cond, seed=2, batch_size=16, epochs=2,
                    learning_rate=0.01)
        base.update(kw)
        return TrainConfig(**base)

    def test_single_epoch_selects_only_checkpoint(self):
        train_ds, test_ds = tiny_splits()
        record, logs = train(train_ds, test_ds, self._config(epochs=1), dims=TINY_DIMS)
        assert record.epoch == 1
        assert len(logs) == 1
        assert logs[0].map10_avg == record.selection_score

    def test_selection_score_is_running_maximum(self):
        train_ds, test_ds = tiny_splits()
        record, logs = train(train_ds, test_ds, self._config(epochs=4), dims=TINY_DIMS)
        assert record.selection_score == max(l.map10_avg for l in logs)
        first_best = min(l.epoch for l in logs if l.map10_avg == record.selection_score)
        assert record.epoch == first_best

    def test_deterministic_reruns(self):
        train_ds, test_ds = tiny_splits()
        r1, logs1 = train(train_ds, test_ds, self._config(), dims=TINY_DIMS)
        r2, logs2 = train(train_ds, test_ds, self._config(), dims=TINY_DIMS)
        assert logs1 == logs2
        for name, arr in r1.params.items():
            np.testing.assert_array_equal(arr, getattr(r2.params, name))

    def test_overlapping_splits_rejected(self):
        train_ds, _ = tiny_splits()
        with pytest.raises(ValueError):
            train(train_ds, train_ds, self._config(), dims=TINY_DIMS)

    def test_baseline_beats_uniform_softmax_after_first_epoch(self):
        train_ds, test_ds = tiny_splits(n=260, n_test=20)
        config = self._config(epochs=3)
        _, logs = train(train_ds, test_ds, config, dims=TINY_DIMS)
        for log in logs[1:]:
            assert log.l_clap < math.log(config.batch_size)

    def test_loss_term_dissimilarity_decreases_early(self):
        train_ds, test_ds = tiny_splits(n=260, n_test=20)
        config = self._config(cond="loss_term", k=1e-2, epochs=3)
        _, logs = train(train_ds, test_ds, config, dims=TINY_DIMS)
        values = [l.l_diss for l in logs[:3]]
        non_decreasing = sum(b >= a for a, b in zip(values, values[1:]))
        assert non_decreasing <= 1

    def test_augmentation_rate_over_epoch(self):
        train_ds, test_ds = tiny_splits(n=1060, n_test=20)
        config = self._config(cond="text_aug", p_aug=0.6, epochs=1, batch_size=8)
        _, logs = train(train_ds, test_ds, config, dims=TINY_DIMS)
        n_items = (len(train_ds.pairs) // 8) * 8
        expected = 0.6 * n_items
        sigma = math.sqrt(n_items * 0.6 * 0.4)
        assert abs(logs[0].n_augmented - expected) <= 3 * sigma

    def test_kept_checkpoint_is_not_changed_by_later_epochs(self, monkeypatch):
        kept = []

        class Recording(training.CheckpointRecord):
            def __init__(self, **fields):
                super().__init__(**fields)
                kept.append(self)

        monkeypatch.setattr(training, "CheckpointRecord", Recording)
        train_ds, test_ds = toy_splits()
        config = TrainConfig(condition="combo", seed=1, p_aug=0.6, k=1e-2, epochs=3)
        record, _ = train(train_ds, test_ds, config)
        first = kept[0]
        assert first.epoch == 1 and record is kept[-1]
        # the parameters after epoch 1, from a run that stops there
        monkeypatch.undo()
        after_one, _ = train(train_ds, test_ds, TrainConfig(**{**config.__dict__, "epochs": 1}))
        for name, arr in first.params.items():
            assert arr.tobytes() == getattr(after_one.params, name).tobytes(), name
        for other in kept[1:]:
            assert not np.shares_memory(first.params.tables, other.params.tables)
            assert not np.shares_memory(first.params.dense, other.params.dense)

    def test_captions_are_read_once_per_run(self, monkeypatch):
        calls = []
        table = training.TokenTable
        monkeypatch.setattr(training, "TokenTable",
                            lambda vocab, words: calls.append(words) or table(vocab, words))
        train_ds, test_ds = toy_splits()
        train(train_ds, test_ds, TrainConfig(condition="combo", seed=1, p_aug=0.6, k=1e-2,
                                             epochs=3))
        # one table for the train split and one for the test split, not one per epoch
        assert calls == [train_ds.words, test_ds.words]

    def test_diverged_run_names_condition_epoch_and_step(self):
        train_ds, test_ds = toy_splits()
        config = TrainConfig(condition="loss_term", seed=1, k=1e-2, epochs=2,
                             learning_rate=1e300)
        with pytest.raises(ValueError, match="loss_term training diverged at epoch 1, step 2: "
                                             "embedding norms before normalization"):
            train(train_ds, test_ds, config)

    def test_log_csv_schema(self, tmp_path):
        train_ds, test_ds = tiny_splits()
        _, logs = train(train_ds, test_ds, self._config(epochs=2), dims=TINY_DIMS)
        path = tmp_path / "log.csv"
        write_train_log_csv(path, logs)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(LOG_COLUMNS)
        assert len(rows) == 1 + 2


class TestSweep:
    def test_config_grid_counts(self):
        configs = sweep_configs(seed=0, p_aug_grid=(0.0, 0.5), k_grid=(1e-2, 1e-3))
        assert len(configs) == 1 + 2 + 2 + 2
        conditions = [c.condition for c in configs]
        assert conditions == ["baseline", "text_aug", "text_aug", "loss_term", "loss_term",
                              "combo", "combo"]
        assert [c.k for c in configs if c.condition == "combo"] == [1e-2, 1e-3]
        for c in configs:
            if c.condition == "combo":
                assert c.p_aug == 0.6

    def test_default_grid_counts(self):
        configs = sweep_configs(seed=0)
        assert len(configs) == 1 + 6 + 4 + 4

    def test_sweep_rows_and_outputs(self, tmp_path):
        train_ds, test_ds = tiny_splits(n=80, n_test=16)
        configs = sweep_configs(seed=1, p_aug_grid=(0.6,), k_grid=(1e-2,),
                                batch_size=8, epochs=1, learning_rate=0.01)
        rows = sweep(train_ds, test_ds, configs, eval_seed=5, dims=TINY_DIMS)
        write_sweep_outputs(rows, tmp_path)
        assert len(rows) == 4
        assert [r.config.condition for r in rows] == \
            ["baseline", "text_aug", "loss_term", "combo"]
        report = tmp_path / "report.csv"
        assert report.exists()
        with open(report) as f:
            lines = list(csv.reader(f))
        assert len(lines) == 1 + 7 * 4
        for row in rows:
            assert (tmp_path / f"fig_retrieval_{row.label}.csv").exists()
        with open(tmp_path / "fig_triplet.csv") as f:
            fig_rows = list(csv.reader(f))
        # baseline, text_aug at combo probability, loss_term, combo
        assert len(fig_rows) == 1 + 3 * 4

    def test_labels(self):
        cfg = TrainConfig(condition="combo", seed=0, p_aug=0.6, k=1e-3)
        row = SweepRow(config=cfg, best_epoch=1, selection_score=0.5,
                       retrieval=None, triplet=None)
        assert row.label == "combo_p0.6_k0.001"
