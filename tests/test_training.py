import csv
import math

import numpy as np
import pytest

from negclap.corpus import Dataset, generate_dataset, generate_vocabulary, split_dataset
from negclap.model import ModelDims
from negclap.seeding import seeded_rng, spawn_seed
from negclap.training import (
    AdamOptimizer,
    EpochCounters,
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
    def _batch(self, train_ds, size=8):
        return train_ds.pairs[:size]

    def test_baseline_reports_zero_dissimilarity(self):
        train_ds, _ = tiny_splits()
        config = TrainConfig(condition="baseline", seed=1, batch_size=8, epochs=1)
        from negclap.model import init_params

        params = init_params(TINY_DIMS, 3)
        counters = EpochCounters()
        _, breakdown = train_step(params, self._batch(train_ds), config,
                                  train_ds.vocabulary, seeded_rng(0), counters)
        assert breakdown.l_diss == 0.0
        assert breakdown.k == 0.0
        assert breakdown.l_total == breakdown.l_clap
        assert counters.augmented == 0

    def test_loss_term_keeps_contrastive_captions_unaugmented(self):
        train_ds, _ = tiny_splits()
        config = TrainConfig(condition="loss_term", seed=1, k=1e-2, batch_size=8, epochs=1)
        from negclap.model import init_params

        params = init_params(TINY_DIMS, 3)
        counters = EpochCounters()
        _, breakdown = train_step(params, self._batch(train_ds), config,
                                  train_ds.vocabulary, seeded_rng(0), counters)
        assert counters.augmented == 0
        assert 0.0 <= breakdown.l_diss <= 2.0 + 1e-9
        assert breakdown.l_total == breakdown.l_clap + 1e-2 * breakdown.l_diss

    def test_full_augmentation_touches_every_caption(self):
        train_ds, _ = tiny_splits()
        config = TrainConfig(condition="text_aug", seed=1, p_aug=1.0, batch_size=8, epochs=1)
        from negclap.model import init_params

        params = init_params(TINY_DIMS, 3)
        counters = EpochCounters()
        train_step(params, self._batch(train_ds), config, train_ds.vocabulary,
                   seeded_rng(0), counters)
        assert counters.augmented == 8

    def test_empty_batch_rejected(self):
        train_ds, _ = tiny_splits()
        config = TrainConfig(condition="baseline", seed=1, batch_size=8, epochs=1)
        from negclap.model import init_params

        params = init_params(TINY_DIMS, 3)
        with pytest.raises(ValueError):
            train_step(params, [], config, train_ds.vocabulary, seeded_rng(0))


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
