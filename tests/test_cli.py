import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import negclap
from negclap import corpus, evaluation, training
from negclap.cli import main
from negclap.corpus import DatasetValidationError, load_dataset
from negclap.evaluation import REPORT_COLUMNS
from negclap.model import ModelDims, init_params, load_checkpoint, param_shapes, save_checkpoint


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


def gen_toy(tmp_path):
    """The toy corpus the pinned chain uses."""
    out = tmp_path / "data"
    assert main(["gen-data", "--n-tags", "12", "--n-clips", "300", "--n-test", "64",
                 "--seed", "5", "--out", str(out)]) == 0
    return out


def gen_mixed_widths(tmp_path):
    """A data directory whose train split has 8-wide clip features and test split 12-wide."""
    wide = gen_small(tmp_path, name="wide")  # --d-a 12
    data = tmp_path / "data"
    assert main(["gen-data", "--n-tags", "10", "--n-clips", "80", "--n-test", "16",
                 "--d-a", "8", "--seed", "3", "--out", str(data)]) == 0
    (data / "test.jsonl").write_bytes((wide / "test.jsonl").read_bytes())
    return data


WIDTHS_DIFFER = "error: the test split's clip features have width 12, the train split's 8\n"


def count_epochs(monkeypatch):
    """A list that gains an entry whenever training plans an epoch."""
    calls = []
    plan_epoch = training.plan_epoch

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_epoch(*args, **kwargs)
    monkeypatch.setattr(training, "plan_epoch", counted)
    return calls


DIVERGED = ("error: {condition} training diverged at epoch 1, step 2: "
            "embedding norms before normalization must be finite and positive")


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


# sha256 of every file the toy chain below writes.  A refactor that keeps the
# bytes passes; a change to any float summation order in training, the
# objective or the evaluation fails.  The digests depend on numpy and the
# BLAS it links, since both set the rounding of every matrix product.
TOY_CHAIN_DIGESTS = {
    "baseline/checkpoint.ckpt":
        "0533f8382959d8dc0003cb8d2cf33e55520db0cff127e305e0af3609a3d62753",
    "baseline/eval/fig_retrieval_baseline.csv":
        "ab61c7eccaf80b8384519616a2fba0688cba2e77bffd3370797e2af6300c873e",
    "baseline/eval/fig_triplet.csv":
        "a5c765b73987e0985659a318d0bfcfe49f6834685827687bfcc48d4b9e065a71",
    "baseline/eval/report.csv":
        "3eb05e28b0f06cb960bc2c408fb1e451e0c6595fbe0587a088ec85044ecf161a",
    "baseline/train_log.csv":
        "8cb26c270bae8692884e087d906bcc72a8683108f3f0171e5954719f8b1fa1fa",
    "combo/checkpoint.ckpt":
        "ea6aa2c30e02e1d867f392747256be4f41a3d3d5a953f21ad775fc70de23e4f1",
    "combo/eval/fig_retrieval_combo.csv":
        "d3cf2687f7f1862cdbe06f47a8a052fa2340394b09a0a0e8fab69fc9abe37f00",
    "combo/eval/fig_triplet.csv":
        "a76ac3ba9652b1e6eb8f166746db3410f717fbb6d16d1320e5d2f69f45e6e902",
    "combo/eval/report.csv":
        "9ff9b69f38d3821e34a3e3ceaaeffa89cf23f3746ce14dc96eb5988a055478bf",
    "combo/train_log.csv":
        "f1a1609fd8a2d71225f028a5d2dff1a8f76772f0a214d7b6073d434cb4073b23",
    "data/test.jsonl":
        "efec263c72ae8fbe953d05daa8b33a77283bf232d9ab0d74e284e4a79f94e0fc",
    "data/train.jsonl":
        "d9aaa431f0eba6efe53fc6c245f55f6e5f26ce0fec3fe8cfc0cb3c0447e0632d",
    "loss-term/checkpoint.ckpt":
        "554dbe49e8962944da9a1df3cc4cc88594d40d029e9c60c3822b962c4153d4d1",
    "loss-term/eval/fig_retrieval_loss-term.csv":
        "f4a6e59fd8cbaa0214206ca7fb2205bdee725ba9f51e5b4379f485f9a2082605",
    "loss-term/eval/fig_triplet.csv":
        "1ca8469560524d946b1f622eabf34ea4b48cb8441ddeecfea10141ebc6b0cf89",
    "loss-term/eval/report.csv":
        "e0ccf0ea9debd7d7108942709d3d4ac8de7728ff023762553176c851abb682a3",
    "loss-term/train_log.csv":
        "441b7f0cb5e65f902860311e109d8126c83da7218d9b7c0cce050599ed50a79b",
    "sweep/fig_retrieval_baseline.csv":
        "b73ac12ec6bfd8fcb34ba8ced6a0885f5a01c7ddea5a0314567993b0e77275f6",
    "sweep/fig_retrieval_combo_p0.6_k0.001.csv":
        "0cbccd82ddc31c864c83300bc3fde7a1bcce13727012781521679520bf3c62e6",
    "sweep/fig_retrieval_combo_p0.6_k0.01.csv":
        "d9ab907929bb3db879fdd57ba0c58df2db92b86467ee0fad22fd5ef0e6c5dd0d",
    "sweep/fig_retrieval_loss_term_k0.001.csv":
        "bc059021c55f598786d5c2947afa1a7e021560dc4a621503baa9a56a6dd2bbec",
    "sweep/fig_retrieval_loss_term_k0.01.csv":
        "b49baa6cb3b7361092583a4e9880421f9bacc39d39c05fc115ffe24578e27c93",
    "sweep/fig_retrieval_text_aug_p0.6.csv":
        "1d5c90372eb100e8033f128c23c85c8744d3c2e2ee4d0c23337786415238866c",
    "sweep/fig_retrieval_text_aug_p1.csv":
        "b6545293a02fdf3729012a58d6d8a98c69e89eb17204138ba566de54209b05e5",
    "sweep/fig_triplet.csv":
        "6864e2e0d6eb8f7e5252d054afbfb8174b17119c16867b923c6acff84a29b16b",
    "sweep/report.csv":
        "d6fe270bc21633a80ec29a09ce2f8ef2e9a0f17c07b09b84e6ae7d36ecaf2453",
}


class TestToyChain:
    def test_files_are_pinned(self, tmp_path):
        data = tmp_path / "data"
        steps = [["gen-data", "--n-tags", "12", "--n-clips", "300", "--n-test", "64",
                  "--seed", "5", "--out", str(data)]]
        for condition, flags in (("baseline", []), ("loss-term", ["--k", "1e-2"]),
                                 ("combo", ["--p-aug", "0.6", "--k", "1e-2"])):
            out = tmp_path / condition
            steps.append(["train", "--data", str(data), "--condition", condition, *flags,
                          "--epochs", "2", "--seed", "1", "--out", str(out)])
            steps.append(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                          "--data", str(data), "--eval-seed", "777", "--label", condition,
                          "--out", str(out / "eval")])
        steps.append(["sweep", "--data", str(data), "--quick", "--seed", "1",
                      "--eval-seed", "777", "--out", str(tmp_path / "sweep")])
        for argv in steps:
            assert main(argv) == 0, argv
        written = {p.relative_to(tmp_path).as_posix(): sha256(p)
                   for p in tmp_path.rglob("*") if p.is_file()}
        assert written == TOY_CHAIN_DIGESTS


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

    def test_invalid_utf8_is_parse_error_naming_file_and_line(self, tmp_path, capsys):
        path = gen_small(tmp_path) / "train.jsonl"
        data = bytearray(path.read_bytes())
        data[2000] = 0xFF
        path.write_bytes(bytes(data))
        code = main(["augment", "--data", str(path), "--op", "insert", "--seed", "5",
                     "--out", str(tmp_path / "aug.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        line = data[:2000].count(b"\n") + 1
        assert err.startswith(f"error: {path}: line {line}: invalid UTF-8: ")

    def test_out_of_range_probability_is_usage_error(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "aug.jsonl"
        code = main(["augment", "--data", str(data / "test.jsonl"), "--op", "insert",
                     "--p-aug", "1.5", "--seed", "5", "--out", str(out)])
        assert code == 2
        assert "--p-aug must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["directory", "file parent"])
    def test_unwritable_out_is_refused_before_loading(self, tmp_path, capsys, monkeypatch,
                                                      problem):
        data = gen_small(tmp_path)
        loads = []
        monkeypatch.setattr(corpus, "load_dataset", lambda *a, **kw: loads.append(a))
        if problem == "directory":
            out = tmp_path / "taken"
            out.mkdir()
            message = f"--out {out} is a directory, not a dataset file"
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "aug.jsonl"
            message = f"--out {out.parent}: {out.parent} exists and is not a directory"
        code = main(["augment", "--data", str(data / "test.jsonl"), "--op", "insert",
                     "--seed", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []

    def test_missing_parent_of_out_is_created(self, tmp_path):
        data = gen_small(tmp_path)
        out = tmp_path / "new" / "dir" / "aug.jsonl"
        assert main(["augment", "--data", str(data / "test.jsonl"), "--op", "insert",
                     "--seed", "5", "--out", str(out)]) == 0
        assert len(load_dataset(out).pairs) == 16

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["augment", "--data", str(tmp_path / "nope.jsonl"),
                     "--op", "half", "--seed", "1",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1

    # sha256 of each op's output on the toy chain's train.jsonl
    TOY_DIGESTS = {
        "insert": "b768fe9967a0dc0955f5880e429f888adcbb43e6945f47beafef9c590c0f9adc",
        "half": "1665c61e4d9a89bf3b53fced165515cad2a55e4f3796dc64b13b625fb198db3c",
        "fully": "4cd11eff69861f4e67aeca2485a2fa440bde03b0392c175cfc20b8e14643e0ec",
    }

    def test_toy_outputs_are_pinned(self, tmp_path):
        data = gen_toy(tmp_path)
        written = {}
        for op, flags in (("insert", ["--p-aug", "0.6"]), ("half", []), ("fully", [])):
            out = tmp_path / f"{op}.jsonl"
            assert main(["augment", "--data", str(data / "train.jsonl"), "--op", op, *flags,
                         "--seed", "1", "--out", str(out)]) == 0
            written[op] = sha256(out)
        assert written == self.TOY_DIGESTS

    def test_exhausted_captions_are_skipped_and_counted(self, tmp_path, capsys):
        # over 4 tags, every caption that mentions all four has no tag to insert
        data = tmp_path / "four"
        assert main(["gen-data", "--n-tags", "4", "--n-clips", "300", "--n-test", "64",
                     "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "four.jsonl"
        capsys.readouterr()
        assert main(["augment", "--data", str(data / "train.jsonl"), "--op", "insert",
                     "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"wrote 236 pairs to {out} (73 items had no unused tag)\n"
        assert sha256(out) == "64b2aab3302666ca4bd2bde2c011253c8f81eea4cb05af449802a5cf1e5488c2"
        pairs = zip(load_dataset(data / "train.jsonl").pairs, load_dataset(out).pairs)
        kept = [before for (_, before), (_, after) in pairs if after == before]
        assert len(kept) == 73 and all(len(c.tag_ids()) == 4 for c in kept)


class TestTrain:
    @pytest.mark.parametrize("problem", ["parse", "validation"])
    def test_bad_test_split_names_its_file(self, tmp_path, capsys, problem):
        data = gen_small(tmp_path)
        path = data / "test.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        if problem == "parse":
            record["id"] = "x"
            message = ("line 3: bad pair record: id must be a JSON integer in [-2**63, 2**64), "
                       "got 'x'")
        else:
            record["tags"] = [min(set(range(10)) - set(record["tags"]))]
            message = f"clip {record['id']}: non-negated caption tags != clip tags"
        lines[2] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        code = main(["train", "--data", str(data), "--condition", "baseline", "--epochs", "1",
                     "--seed", "1", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_split_without_feature_width_names_its_file(self, tmp_path, capsys, split):
        data = gen_small(tmp_path)
        path = data / f"{split}.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[0]["d_a"] = 0
        for record in lines[1:]:
            record["features"] = []
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code = main(["train", "--data", str(data), "--condition", "baseline", "--epochs", "1",
                     "--seed", "1", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {path}: line 1: bad header: d_a must be >= 1, got 0\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_split_without_records_names_its_file(self, tmp_path, capsys, split):
        data = gen_small(tmp_path)
        path = data / f"{split}.jsonl"
        path.write_text(path.read_text().splitlines(keepends=True)[0])  # the header alone
        code = main(["train", "--data", str(data), "--condition", "baseline", "--epochs", "1",
                     "--seed", "1", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: no pair records after the header\n"
        assert not (tmp_path / "run").exists()

    def test_test_split_of_another_feature_width_fails_before_training(self, tmp_path, capsys,
                                                                       monkeypatch):
        data = gen_mixed_widths(tmp_path)
        epochs = count_epochs(monkeypatch)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--condition", "baseline", "--epochs", "1",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == WIDTHS_DIFFER
        assert epochs == []
        assert not out.exists()

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


    def test_diverged_run_is_usage_error_and_writes_no_checkpoint(self, tmp_path, capsys):
        # at this rate the first step moves the parameters to ~1e300, and the
        # second step's embeddings overflow before they are normalized
        data = gen_toy(tmp_path)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(data), "--condition", "baseline",
                         "--epochs", "2", "--lr", "1e300", "--seed", "1", "--out", str(out)])
        assert code == 2
        # the error names the divergence; numpy's overflow warnings would only repeat it
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(DIVERGED.format(condition="baseline"))
        assert err.count("\n") == 1
        assert not (out / "checkpoint.ckpt").exists()


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
                         "--eval-seed", "9", "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert sha256(outs[0] / "report.csv") == sha256(outs[1] / "report.csv")
        assert sha256(outs[0] / "fig_retrieval_model.csv") == \
            sha256(outs[1] / "fig_retrieval_model.csv")

    def test_retrieval_cutoff_flag_is_rejected(self, tmp_path, capsys):
        # the report names its recall column r_at_10, so the cutoff is fixed
        data, ckpt = self._trained(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--k-retrieval", "10",
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert "unrecognized arguments: --k-retrieval" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_test_set_below_the_cutoff_is_usage_error(self, tmp_path, capsys):
        _, ckpt = self._trained(tmp_path)
        data = gen_small(tmp_path, n_clips=40, n_test=8, name="small")
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: the test split has 8 pairs; R@10 needs at least 10")

    def test_test_split_without_records_names_its_file(self, tmp_path, capsys):
        data, ckpt = self._trained(tmp_path)
        path = data / "test.jsonl"
        path.write_text(path.read_text().splitlines(keepends=True)[0])  # the header alone
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: no pair records after the header\n"
        assert not (tmp_path / "e").exists()

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

    @pytest.mark.parametrize("edit, problem", [
        (lambda head: head.replace(b'"version": 1,', b'"version": true,'),
         "unsupported version True"),
        (lambda head: head.replace(b'"version": 1,', b'"version": 1.0,'),
         "unsupported version 1.0"),
        (lambda head: b"[" * 100_000, "bad header: maximum recursion depth"),
    ], ids=["version-true", "version-float", "nested-too-deep"])
    def test_malformed_header_is_usage_error(self, tmp_path, capsys, edit, problem):
        data, ckpt = self._trained(tmp_path)
        head, rest = ckpt.read_bytes().split(b"\n", 1)
        assert edit(head) != head
        ckpt.write_bytes(edit(head) + b"\n" + rest)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt}: {problem}")

    def _huge(self, tmp_path, rows):
        """A trained checkpoint whose header and first meta line agree on a table of
        ``rows`` rows, far larger than the file."""
        data, ckpt = self._trained(tmp_path)
        head, meta, rest = ckpt.read_bytes().split(b"\n", 2)
        header, block = json.loads(head), json.loads(meta)
        header["hash_buckets"] = block["shape"][0] = rows
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + json.dumps(block).encode()
                         + b"\n" + rest)
        return data, ckpt

    @pytest.mark.parametrize("rows", [10**9, 10**17])
    def test_block_larger_than_the_file_is_usage_error(self, tmp_path, capsys, rows):
        data, ckpt = self._huge(tmp_path, rows)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: truncated payload for 'unigram_table'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows", [10**9, 10**17])
    def test_block_larger_than_a_pipe_is_usage_error(self, tmp_path, rows):
        # a pipe has no size to compare the claim with; it is read in bounded chunks
        data, ckpt = self._huge(tmp_path, rows)
        src = Path(negclap.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "negclap.cli", "eval", "--checkpoint", "/dev/stdin",
             "--data", str(data), "--eval-seed", "9", "--out", str(tmp_path / "e")],
            input=ckpt.read_bytes(), capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 2
        err = result.stderr.decode()
        assert err.startswith("error: checkpoint /dev/stdin: truncated payload for "
                              "'unigram_table'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("label", ["a/b", "/abs", "a\0b"])
    def test_label_naming_a_directory_is_usage_error(self, tmp_path, capsys, label):
        # refused before the (here missing) checkpoint and data are read
        out = tmp_path / "e"
        code = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--data", str(tmp_path / "missing"), "--eval-seed", "9",
                     "--label", label, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --label must not contain")
        assert not out.exists()

    def test_empty_label_is_usage_error(self, tmp_path, capsys):
        # it would name fig_retrieval_.csv and leave the condition column blank
        out = tmp_path / "e"
        code = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--data", str(tmp_path / "missing"), "--eval-seed", "9",
                     "--label", "", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --label must not be empty\n"
        assert not out.exists()

    def test_zero_norm_embeddings_are_usage_error(self, tmp_path, capsys):
        data, ckpt = self._trained(tmp_path)
        params = load_checkpoint(ckpt)
        params.audio_out_w[...] = 0.0
        params.audio_out_b[...] = 0.0
        save_checkpoint(ckpt, params)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: embedding norms before normalization must be finite and positive, "
            "got values in [0, 0]")

    def test_report_schema(self, tmp_path):
        data, ckpt = self._trained(tmp_path)
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(out)]) == 0
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 1 + 7


class TestFuzzedCheckpointFile:
    """Damaged checkpoint files end in exit 1 or 2 with a message, never a traceback.

    Each example starts from a toy checkpoint and runs ``negclap eval`` on
    it.  A cut anywhere before the end breaks the block structure, and the
    header and meta lines are checked field by field, so a replaced byte
    there can only pass as a changed seed or whitespace.  A replaced
    payload byte may leave every value finite; such a file evaluates like
    any other model.
    """
    DIMS = ModelDims(d_t=8, d_h=8, d=4, d_a=12, hash_buckets=16)

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ckpt-fuzz")
        data = gen_small(tmp, n_clips=40, n_test=16)
        save_checkpoint(tmp / "toy.ckpt", init_params(self.DIMS, 1))
        text = (tmp / "toy.ckpt").read_bytes()
        # byte positions of the header and meta lines, and of the payloads
        at = text.index(b"\n") + 1
        lines, payloads = list(range(at)), []
        for shape in param_shapes(self.DIMS).values():
            end = text.index(b"\n", at) + 1
            lines += range(at, end)
            at = end + 4 * math.prod(shape)
            payloads += range(end, at)
            at += 1  # the block terminator
        assert at == len(text)
        return tmp, data, load_checkpoint(tmp / "toy.ckpt"), text, lines, payloads

    @staticmethod
    def evaluate(tmp, data, text):
        """Exit code of ``negclap eval`` on ``text`` as a checkpoint file."""
        path = tmp / "mutated.ckpt"
        path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--checkpoint", str(path), "--data", str(data),
                         "--eval-seed", "9", "--out", str(tmp / "eval")])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error: ")
        return code

    def test_unchanged_file_evaluates(self, toy):
        tmp, data, _, text, _, _ = toy
        assert self.evaluate(tmp, data, text) == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation_anywhere(self, toy, data):
        tmp, data_dir, _, text, _, _ = toy
        cut = data.draw(st.integers(0, len(text) - 1))
        assert self.evaluate(tmp, data_dir, text[:cut]) in (1, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replaced_header_or_meta_byte(self, toy, data):
        tmp, data_dir, original, text, lines, _ = toy
        position = data.draw(st.sampled_from(lines))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != text[position]))
        if self.evaluate(tmp, data_dir,
                         text[:position] + bytes([byte]) + text[position + 1:]) == 0:
            loaded = load_checkpoint(tmp / "mutated.ckpt")
            assert loaded.tables.tobytes() == original.tables.tobytes()
            assert loaded.dense.tobytes() == original.dense.tobytes()
            assert loaded.seed != original.seed or text[position] in b" \t\r"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_dropped_header_key(self, toy, data):
        tmp, data_dir, _, text, _, _ = toy
        head, rest = text.split(b"\n", 1)
        header = json.loads(head)
        owner = data.draw(st.sampled_from([header, header["dims"]]))
        del owner[data.draw(st.sampled_from(sorted(owner)))]
        assert self.evaluate(tmp, data_dir, json.dumps(header).encode() + b"\n" + rest) in (1, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replaced_payload_byte(self, toy, data):
        tmp, data_dir, _, text, _, payloads = toy
        position = data.draw(st.sampled_from(payloads))
        byte = data.draw(st.integers(0, 255))
        self.evaluate(tmp, data_dir, text[:position] + bytes([byte]) + text[position + 1:])


class TestSweep:
    def test_diverged_sweep_is_usage_error_and_writes_no_report(self, tmp_path, capsys):
        data = gen_toy(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--quick", "--data", str(data), "--seed", "1",
                     "--eval-seed", "7", "--lr", "1e300", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(DIVERGED.format(condition="baseline"))
        assert not (out / "report.csv").exists()

    def test_test_set_below_the_cutoff_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        data = gen_small(tmp_path, n_clips=60, n_test=8)
        calls = []
        monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "sweep"
        code = main(["sweep", "--quick", "--data", str(data), "--seed", "1",
                     "--eval-seed", "7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: the test split has 8 pairs; R@10 needs at least 10")
        assert calls == []
        assert not out.exists()

    def test_test_split_of_another_feature_width_fails_before_training(self, tmp_path, capsys,
                                                                       monkeypatch):
        data = gen_mixed_widths(tmp_path)
        epochs = count_epochs(monkeypatch)
        out = tmp_path / "sweep"
        code = main(["sweep", "--quick", "--data", str(data), "--seed", "1",
                     "--eval-seed", "7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == WIDTHS_DIFFER
        assert epochs == []
        assert not out.exists()

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


# (flags, the setting the error names); every value is NaN, infinite, zero or negative
# (given as --flag=value, so that argparse takes "-inf" as a value)
BAD_GEN_DATA = [([f"--noise-sigma={v}"], "noise_sigma") for v in ("nan", "inf", "-inf", "-0.1")] + [
    (["--d-a=0"], "d_a"), (["--d-a=-3"], "d_a"), (["--d-a=nan"], "--d-a"),
    (["--d-a=1", "--noise-sigma=0"], "clip 1"), (["--d-a=1", "--noise-sigma=1e-200"], "clip 1")]
BAD_LR = ["nan", "inf", "-inf", "0", "-0.01"]
BAD_TRAIN = [(["--condition", "baseline", f"--lr={v}"], "learning_rate") for v in BAD_LR] + [
    (["--condition", "loss-term", f"--k={v}"], "k must be finite")
    for v in ("nan", "inf", "-inf", "-1")] + [
    (["--condition", "combo", "--p-aug", "0.6", "--k", "0"], "k > 0")]


class TestSettingsCheckedWhereTheyEnter:
    """A bad setting exits 2 naming it, before any file is written or run trained."""

    @pytest.fixture
    def no_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(a))
        yield
        assert calls == []

    @pytest.mark.parametrize("flags, name", BAD_GEN_DATA)
    def test_gen_data(self, tmp_path, capsys, flags, name):
        out = tmp_path / "data"
        code = main(["gen-data", "--n-tags", "10", "--n-clips", "40", "--n-test", "10",
                     "--seed", "3", *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and name in err
        assert not out.exists()

    def test_gen_data_without_noise_writes_files_train_accepts(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--n-tags", "10", "--n-clips", "40", "--n-test", "10",
                     "--d-a", "4", "--noise-sigma", "0", "--seed", "3", "--out", str(out)]) == 0
        assert main(["train", "--data", str(out), "--condition", "baseline", "--epochs", "1",
                     "--seed", "1", "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("flags, name", BAD_TRAIN)
    def test_train(self, tmp_path, capsys, no_training, flags, name):
        data = gen_small(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), *flags, "--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not out.exists()

    @pytest.mark.parametrize("lr", BAD_LR)
    def test_sweep(self, tmp_path, capsys, no_training, lr):
        data = gen_small(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--quick", "--data", str(data), "--seed", "1", "--eval-seed", "7",
                     f"--lr={lr}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: learning_rate must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--condition", "baseline", "--epochs", "3"],
        ["sweep", "--quick", "--eval-seed", "7"]])
    @pytest.mark.parametrize("below", ["", "run"])  # the file itself, or a path under it
    def test_out_at_or_under_a_file(self, tmp_path, capsys, no_training, command, below):
        data = gen_small(tmp_path)
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        out = afile / below if below else afile
        code = main([*command, "--data", str(data), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: {afile} exists and is not a directory\n")
        assert afile.read_bytes() == b"kept"

    @pytest.mark.parametrize("below", ["", "eval"])
    def test_eval_out_at_or_under_a_file(self, tmp_path, capsys, monkeypatch, below):
        data = gen_small(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params(ModelDims(d_t=16, d_h=16, d=8, d_a=12,
                                                    hash_buckets=64), seed=1))
        monkeypatch.setattr(evaluation, "build_eval_variants", refuse_work)
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        out = afile / below if below else afile
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--eval-seed", "9", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: {afile} exists and is not a directory\n")
        assert afile.read_bytes() == b"kept"

    @pytest.mark.parametrize("below", ["", "data"])
    def test_gen_data_out_at_or_under_a_file(self, tmp_path, capsys, monkeypatch, below):
        monkeypatch.setattr(corpus, "generate_dataset", refuse_work)
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        out = afile / below if below else afile
        code = main(["gen-data", "--n-tags", "10", "--n-clips", "40", "--n-test", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: {afile} exists and is not a directory\n")
        assert afile.read_bytes() == b"kept"


def refuse_work(*args, **kwargs):
    raise AssertionError("work began before --out was checked")


# values a numeric flag may take besides its accepted range: zero, negative,
# NaN, infinite, or (for an integer flag) not an integer
EDGE_INTS = st.one_of(st.integers(-3, 0).map(str), st.sampled_from(["nan", "inf", "-inf", "0.5"]))
EDGE_FLOATS = st.one_of(st.floats(-10, 0).map(repr), st.sampled_from(["nan", "inf", "-inf"]))


@st.composite
def numeric_flags(draw, bounds):
    """``--name=value`` for every flag of ``bounds`` (name -> (lo, hi), a small accepted
    range; float bounds make a float flag); up to three take an edge value instead."""
    edged = draw(st.sets(st.sampled_from(sorted(bounds)), max_size=3))
    argv = []
    for name, (lo, hi) in bounds.items():
        real = isinstance(lo, float)
        if name in edged:
            value = draw(EDGE_FLOATS if real else EDGE_INTS)
        else:
            value = repr(draw(st.floats(lo, hi) if real else st.integers(lo, hi)))
        argv.append(f"--{name}={value}")
    return argv


class TestNumericFlags:
    """Any mix of numeric flag values exits 0, 1 or 2, and a nonzero exit says why.

    Each command runs at toy size on one small corpus.  A corpus ``gen-data``
    writes is one ``train`` accepts, and ``sweep`` refuses a bad setting
    before its first run (its ``train`` is a call counter here).
    """
    DIMS = ModelDims(d_a=4)

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("flags")
        assert main(["gen-data", "--n-tags", "8", "--n-clips", "60", "--n-test", "12",
                     "--d-a", "4", "--seed", "3", "--out", str(tmp / "data")]) == 0
        save_checkpoint(tmp / "toy.ckpt", init_params(self.DIMS, 1))
        return tmp

    @staticmethod
    def run(*argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert code in (0, 1, 2), argv
        event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
        if code:
            assert "error: " in err.getvalue(), argv
        return code

    @settings(max_examples=100, deadline=None)
    @given(numeric_flags({"n-tags": (4, 12), "n-clips": (20, 40), "n-test": (1, 15),
                          "d-a": (1, 6), "noise-sigma": (0.0, 1.0), "tags-min": (1, 3),
                          "tags-max": (2, 4), "seed": (0, 5)}))
    def test_gen_data(self, toy, flags):
        with tempfile.TemporaryDirectory(dir=toy) as tmp:
            data = Path(tmp) / "data"
            if self.run("gen-data", *flags, "--out", str(data)) == 0:
                assert self.run("train", "--data", str(data), "--condition", "baseline",
                                "--epochs", "1", "--batch-size", "1", "--seed", "1",
                                "--out", str(Path(tmp) / "run")) == 0, flags

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["insert", "half", "fully"]),
           numeric_flags({"seed": (0, 5), "p-aug": (0.0, 1.0)}))
    def test_augment(self, toy, op, flags):
        with tempfile.TemporaryDirectory(dir=toy) as tmp:
            self.run("augment", "--data", str(toy / "data" / "train.jsonl"), "--op", op, *flags,
                     "--out", str(Path(tmp) / "out.jsonl"))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["baseline", "text-aug", "loss-term", "combo"]),
           numeric_flags({"epochs": (1, 2), "batch-size": (1, 16), "seed": (0, 5),
                          "p-aug": (0.0, 1.0), "k": (0.0, 0.1), "lr": (1e-4, 0.5)}))
    def test_train(self, toy, condition, flags):
        with tempfile.TemporaryDirectory(dir=toy) as tmp:
            self.run("train", "--data", str(toy / "data"), "--condition", condition, *flags,
                     "--out", str(Path(tmp) / "run"))

    @settings(max_examples=20, deadline=None)
    @given(numeric_flags({"eval-seed": (0, 2**32)}))
    def test_eval(self, toy, flags):
        with tempfile.TemporaryDirectory(dir=toy) as tmp:
            self.run("eval", "--checkpoint", str(toy / "toy.ckpt"), "--data", str(toy / "data"),
                     *flags, "--out", str(Path(tmp) / "eval"))

    @settings(max_examples=40, deadline=None)
    @given(st.booleans(),
           numeric_flags({"seed": (0, 5), "eval-seed": (0, 5), "epochs": (1, 3),
                          "batch-size": (1, 16), "lr": (1e-4, 0.5)}))
    def test_sweep(self, toy, quick, flags):
        calls = []
        record = training.CheckpointRecord(1, init_params(self.DIMS, 1), 0.0)
        with tempfile.TemporaryDirectory(dir=toy) as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "train", lambda *a, **kw: calls.append(a) or (record, []))
            code = self.run("sweep", "--data", str(toy / "data"), *flags,
                            *(["--quick"] if quick else []), "--out", str(Path(tmp) / "sweep"))
        assert len(calls) == (0 if code else 7 if quick else 15)


class TestScripts:
    def test_run_experiments_finds_the_package_in_its_checkout(self, tmp_path):
        # run from elsewhere without PYTHONPATH: the script puts the checkout's src on the path
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                                timeout=60, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr.decode()
        assert "--quick" in result.stdout.decode()
