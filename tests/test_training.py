import csv
import math

import numpy as np
import pytest

from negclap.corpus import Dataset, generate_dataset, generate_vocabulary, split_dataset
from negclap.model import ModelDims
from negclap.seeding import seeded_rng, spawn_seed
from negclap.training import (
    AdamOptimizer,
    LOG_COLUMNS,
    SweepRow,
    TrainConfig,
    make_batches,
    sweep,
    sweep_configs,
    train,
    train_step,
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


class TestTrainStep:
    def _step(self, condition, size=8, train_ds=None, **config):
        """One step of ``condition`` on the first ``size`` pairs of ``train_ds``
        (by default the tiny train split)."""
        from negclap.model import TokenIndex, init_params

        if train_ds is None:
            train_ds, _ = tiny_splits()
        batch = train_ds.pairs[:size]
        index = TokenIndex(train_ds.vocabulary, TINY_DIMS.hash_buckets)
        params = init_params(TINY_DIMS, 3)
        return train_step(params, batch, index.ids(c for _, c in batch),
                          TrainConfig(condition=condition, seed=1, batch_size=8, epochs=1,
                                      **config),
                          index, seeded_rng(0), AdamOptimizer.for_params(params))

    def test_baseline_reports_zero_dissimilarity(self):
        breakdown, n_augmented, n_exhausted = self._step("baseline")
        assert breakdown.l_diss == 0.0
        assert breakdown.k == 0.0
        assert breakdown.l_total == breakdown.l_clap
        assert (n_augmented, n_exhausted) == (0, 0)

    def test_loss_term_keeps_contrastive_captions_unaugmented(self):
        breakdown, n_augmented, _ = self._step("loss_term", k=1e-2)
        assert n_augmented == 0
        assert 0.0 <= breakdown.l_diss <= 2.0 + 1e-9
        assert breakdown.l_total == breakdown.l_clap + 1e-2 * breakdown.l_diss

    def test_full_augmentation_touches_every_caption(self):
        _, n_augmented, n_exhausted = self._step("text_aug", p_aug=1.0)
        assert (n_augmented, n_exhausted) == (8, 0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            self._step("baseline", size=0)

    def test_exhausted_items_keep_their_original_captions(self):
        # every caption mentions both vocabulary tags, so no insert is possible
        vocab = generate_vocabulary(2, 0)
        train_ds = generate_dataset(vocab, 8, tags_per_clip=(2, 2), d_a=TINY_DIMS.d_a,
                                    rng_seed=0)
        breakdown, n_augmented, n_exhausted = self._step("text_aug", train_ds=train_ds,
                                                         p_aug=1.0)
        assert (n_augmented, n_exhausted) == (0, 8)
        assert breakdown.l_clap == self._step("baseline", train_ds=train_ds)[0].l_clap


class TestAdamOptimizer:
    def test_sparse_table_update_matches_dense_computation(self):
        from negclap.model import DENSE_FIELDS, ParamGrads, RowGrad, init_params

        params_sparse = init_params(TINY_DIMS, 7)
        params_dense = params_sparse.copy()
        opt_sparse = AdamOptimizer.for_params(params_sparse)
        opt_dense = AdamOptimizer.for_params(params_dense)
        rng = np.random.default_rng(0)
        every_row = np.arange(TINY_DIMS.hash_buckets)
        for step in range(12):
            grads = ParamGrads.zeros_like(params_sparse)
            rows = np.sort(rng.choice(TINY_DIMS.hash_buckets, size=5, replace=False))
            grads.unigram_table = RowGrad(rows, rng.normal(size=(5, TINY_DIMS.d_t)))
            grads.text_out_b += rng.normal(size=TINY_DIMS.d)
            # dense path: give every row to the optimizer, zeros outside the batch's rows
            dense_uni = np.zeros((TINY_DIMS.hash_buckets, TINY_DIMS.d_t))
            dense_uni[rows] = grads.unigram_table.values
            dense_grads = ParamGrads(
                **{name: getattr(grads, name).copy() for name in DENSE_FIELDS},
                unigram_table=RowGrad(every_row, dense_uni),
                bigram_table=RowGrad(every_row, np.zeros_like(dense_uni)))
            opt_sparse.step(params_sparse, grads, 0.01)
            opt_dense.step(params_dense, dense_grads, 0.01)
        for name, arr in params_sparse.items():
            np.testing.assert_allclose(arr, getattr(params_dense, name), atol=1e-12,
                                       err_msg=name)


    def test_flat_dense_update_matches_per_parameter_adam(self):
        from negclap.model import DENSE_FIELDS, ParamGrads, init_params

        params = init_params(TINY_DIMS, 7)
        reference = params.copy()
        opt = AdamOptimizer.for_params(params)
        m = {n: np.zeros_like(getattr(params, n)) for n in DENSE_FIELDS}
        v = {n: np.zeros_like(getattr(params, n)) for n in DENSE_FIELDS}
        rng = np.random.default_rng(3)
        for t in range(1, 6):
            grads = ParamGrads.zeros_like(params)
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
        from negclap.model import ParamGrads, init_params

        # a first Adam step moves by about the learning rate, past either bound
        for start, grad, bound in ((np.log(100.0) - 1e-3, -1.0, np.log(100.0)),
                                   (1e-3, 1.0, 0.0)):
            params = init_params(TINY_DIMS, 7)
            params.log_temperature[...] = start
            grads = ParamGrads.zeros_like(params)
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
        configs = sweep_configs(seed=0, p_aug_grid=(0.0, 0.5), k_grid=(1e-2,),
                                combo_k_grid=(1e-2, 1e-3))
        assert len(configs) == 1 + 2 + 1 + 2
        conditions = [c.condition for c in configs]
        assert conditions == ["baseline", "text_aug", "text_aug", "loss_term",
                              "combo", "combo"]
        for c in configs:
            if c.condition == "combo":
                assert c.p_aug == 0.6

    def test_default_grid_counts(self):
        configs = sweep_configs(seed=0)
        assert len(configs) == 1 + 6 + 4 + 4

    def test_sweep_rows_and_outputs(self, tmp_path):
        train_ds, test_ds = tiny_splits(n=80, n_test=16)
        rows = sweep(
            train_ds, test_ds, seed=1, eval_seed=5,
            p_aug_grid=(0.6,), k_grid=(1e-2,), combo_k_grid=(1e-2,),
            batch_size=8, epochs=1, learning_rate=0.01, k_retrieval=5,
            dims=TINY_DIMS, out_dir=tmp_path,
        )
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
