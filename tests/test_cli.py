import csv
import hashlib
import json

import pytest

from negclap.cli import main
from negclap.corpus import DatasetValidationError, load_dataset
from negclap.evaluation import REPORT_COLUMNS


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_small(tmp_path, seed=3, n_clips=80, n_test=16, name="data"):
    out = tmp_path / name
    code = main([
        "gen-data", "--n-tags", "10", "--n-clips", str(n_clips),
        "--n-test", str(n_test), "--d-a", "12", "--seed", str(seed),
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestGenData:
    def test_default_scale_split(self, tmp_path):
        out = tmp_path / "data"
        code = main(["gen-data", "--n-tags", "50", "--n-clips", "5512",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        train_lines = (out / "train.jsonl").read_text().splitlines()
        test_lines = (out / "test.jsonl").read_text().splitlines()
        assert len(train_lines) == 1 + 5000
        assert len(test_lines) == 1 + 512
        header = json.loads(train_lines[0])
        assert header["format"] == "negclap-dataset"
        assert header["n_tags"] == 50

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "d")])
        assert code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a = gen_small(tmp_path, name="a")
        b = gen_small(tmp_path, name="b")
        assert sha256(a / "train.jsonl") == sha256(b / "train.jsonl")
        assert sha256(a / "test.jsonl") == sha256(b / "test.jsonl")

    def test_toy_files_are_pinned(self, tmp_path):
        # Digests of the files this command wrote before corpus generation
        # and saving were batched; any byte drift in either path shows here.
        out = tmp_path / "d"
        assert main(["gen-data", "--n-clips", "300", "--n-test", "60", "--d-a", "16",
                     "--seed", "5", "--out", str(out)]) == 0
        assert sha256(out / "train.jsonl") == \
            "eb5abe9b6e509ec6886bbcaf453e7d7da2fde1804c94b1e457b5d40ca07626f2"
        assert sha256(out / "test.jsonl") == \
            "f5903c874d15db85f2bddc2f53a925b1646316972f6afe7af08db1559ce8c3f9"

    def test_too_many_test_clips_rejected(self, tmp_path):
        code = main(["gen-data", "--n-clips", "10", "--n-test", "10",
                     "--seed", "1", "--out", str(tmp_path / "d")])
        assert code == 2


class TestAugment:
    def test_insert_output_still_loads_strictly(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "aug.jsonl"
        code = main(["augment", "--data", str(data / "test.jsonl"),
                     "--op", "insert", "--seed", "5", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert all(
            sum(m.negated for m in caption.mentions()) == 1
            for _, caption in ds.pairs
        )

    def test_fully_output_needs_relaxed_loading(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "fully.jsonl"
        code = main(["augment", "--data", str(data / "test.jsonl"),
                     "--op", "fully", "--seed", "5", "--out", str(out)])
        assert code == 0
        with pytest.raises(DatasetValidationError):
            load_dataset(out)
        ds = load_dataset(out, check_tag_consistency=False)
        assert all(m.negated for _, c in ds.pairs for m in c.mentions())

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["augment", "--data", str(tmp_path / "nope.jsonl"),
                     "--op", "half", "--seed", "1",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1


class TestTrain:
    def test_invalid_condition_combination_is_usage_error(self, tmp_path):
        data = gen_small(tmp_path)
        code = main(["train", "--data", str(data), "--condition", "baseline",
                     "--p-aug", "0.3", "--seed", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 2

    def test_combo_run_writes_checkpoint_and_log(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--condition", "combo",
                     "--p-aug", "0.6", "--k", "1e-2", "--epochs", "2",
                     "--batch-size", "8", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        with open(out / "train_log.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2


class TestEval:
    def _trained(self, tmp_path):
        data = gen_small(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--condition", "baseline",
                     "--epochs", "1", "--batch-size", "8", "--seed", "1",
                     "--out", str(run)]) == 0
        return data, run / "checkpoint.ckpt"

    def test_eval_is_deterministic(self, tmp_path):
        data, ckpt = self._trained(tmp_path)
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--eval-seed", "9", "--k-retrieval", "5",
                         "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert sha256(outs[0] / "report.csv") == sha256(outs[1] / "report.csv")
        assert sha256(outs[0] / "fig_retrieval_model.csv") == \
            sha256(outs[1] / "fig_retrieval_model.csv")

    def test_oversized_retrieval_cutoff_is_usage_error(self, tmp_path):
        data, ckpt = self._trained(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--k-retrieval", "1000",
                     "--out", str(tmp_path / "e")])
        assert code == 2

    def test_checkpoint_without_dims_is_usage_error(self, tmp_path, capsys):
        data, ckpt = self._trained(tmp_path)
        head, rest = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        del header["dims"]
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'dims'" in err

    def test_report_schema(self, tmp_path):
        data, ckpt = self._trained(tmp_path)
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--k-retrieval", "5",
                     "--out", str(out)]) == 0
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 1 + 7


class TestSweep:
    def test_quick_sweep_outputs(self, tmp_path):
        data = gen_small(tmp_path, n_clips=90, n_test=16)
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(data), "--seed", "1",
                     "--eval-seed", "7", "--epochs", "1", "--quick",
                     "--out", str(out)])
        assert code == 0
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(REPORT_COLUMNS)
        # quick grids: baseline + 2 text_aug + 2 loss_term + 2 combo
        assert len(rows) == 1 + 7 * 7
        assert (out / "fig_triplet.csv").exists()
