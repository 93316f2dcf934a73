import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caption_apply import (
    caption_ids,
    dataset_of,
    is_negated,
    kind_captions,
    render_caption,
    tag_mentions,
    variant_captions,
)
from negclap.corpus import (
    Caption,
    TagMention,
    Word,
    generate_dataset,
    generate_vocabulary,
    split_dataset,
)
from negclap.evaluation import (
    AUDIO_TO_TEXT,
    DIRECTIONS,
    FIG_RETRIEVAL_COLUMNS,
    FIG_TRIPLET_COLUMNS,
    REPORT_COLUMNS,
    TEXT_TO_AUDIO,
    TripletReport,
    build_eval_variants,
    embed_eval_variants,
    map10_from_ranks,
    match_ranks,
    report_rows,
    retrieval_protocol,
    triplet_protocol,
    write_fig_retrieval_csv,
    write_fig_triplet_csv,
    write_report_csv,
)
from negclap import evaluation
from negclap.cli import main as cli_main
from negclap.corpus import save_dataset
from negclap.model import (
    ModelDims,
    encode_audio_batch,
    encode_text_batch,
    encode_token_lists,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from negclap.training import TrainConfig, train


# --- the package's ranking read per direction ------------------------------

def recall_at_k(sim, k, direction):
    """Fraction of queries whose matching item ranks within the top k, by ``match_ranks``."""
    n = np.asarray(sim).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    return float(np.mean(direction_ranks(sim, direction) <= k))


def map_at_10(sim, direction):
    """Mean of 1/rank over queries whose match ranks within the top 10, else 0."""
    return map10_from_ranks(direction_ranks(sim, direction))


def direction_ranks(sim, direction):
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    return match_ranks(sim)[DIRECTIONS.index(direction)]


# --- independent brute-force oracles -------------------------------------

def brute_rank(sims, correct):
    """1-based rank by descending similarity, lower index first on ties."""
    order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))
    return order.index(correct) + 1


def brute_ranks(S):
    """Every query's brute_rank, text_to_audio then audio_to_text."""
    n = len(S)
    return ([brute_rank([S[j][i] for j in range(n)], i) for i in range(n)],
            [brute_rank(list(S[i]), i) for i in range(n)])


def brute_recall(S, k, direction):
    n = len(S)
    hits = 0
    for i in range(n):
        sims = [S[j][i] for j in range(n)] if direction == TEXT_TO_AUDIO else list(S[i])
        if brute_rank(sims, i) <= k:
            hits += 1
    return hits / n


def brute_map10(S, direction):
    n = len(S)
    aps = []
    for i in range(n):
        sims = [S[j][i] for j in range(n)] if direction == TEXT_TO_AUDIO else list(S[i])
        rank = brute_rank(sims, i)
        aps.append(1.0 / rank if rank <= 10 else 0.0)
    # ranking is the independent part; reduce like the implementation so the
    # comparison is exact rather than one float association apart
    return float(np.mean(np.array(aps)))


def brute_triplet(audio, e_orig, e_half, e_fully):
    wins = {"of": 0, "oh": 0, "hf": 0}
    ties = 0
    n = len(audio)
    for i in range(n):
        so = float(audio[i] @ e_orig[i])
        sh = float(audio[i] @ e_half[i])
        sf = float(audio[i] @ e_fully[i])
        for key, hi, lo in (("of", so, sf), ("oh", so, sh), ("hf", sh, sf)):
            if hi > lo:
                wins[key] += 1
            elif hi == lo:
                ties += 1
    return TripletReport(wins["of"] / n, wins["oh"] / n, wins["hf"] / n, ties)


def rank_matrix(ranks):
    """Similarity matrix whose audio_to_text match ranks equal ``ranks``."""
    n = len(ranks)
    S = np.empty((n, n))
    rng = np.random.default_rng(0)
    for i, r in enumerate(ranks):
        values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]  # distinct a.s.
        S[i, i] = values[r - 1]
        others = [v for j, v in enumerate(values) if j != r - 1]
        slots = [j for j in range(n) if j != i]
        for j, v in zip(slots, others):
            S[i, j] = v
    return S


class TestRecallAtK:
    def test_identity_matrix_perfect(self):
        S = np.eye(4)
        assert recall_at_k(S, 1, AUDIO_TO_TEXT) == 1.0
        assert recall_at_k(S, 1, TEXT_TO_AUDIO) == 1.0

    def test_k_equal_n_is_one(self):
        S = np.random.default_rng(1).normal(size=(6, 6))
        assert recall_at_k(S, 6, AUDIO_TO_TEXT) == 1.0

    def test_hand_built_ranks(self):
        S = rank_matrix([1, 2, 3, 4])
        for k, expected in ((1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)):
            assert recall_at_k(S, k, AUDIO_TO_TEXT) == pytest.approx(expected)
            assert recall_at_k(S, k, AUDIO_TO_TEXT) == pytest.approx(
                brute_recall(S, k, AUDIO_TO_TEXT))

    def test_invalid_k_rejected(self):
        S = np.eye(3)
        for k in (0, 4):
            with pytest.raises(ValueError):
                recall_at_k(S, k, AUDIO_TO_TEXT)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.eye(3), 1, "sideways")

    def test_ties_break_toward_lower_index(self):
        S = np.zeros((3, 3))  # all tied: query i picks index order 0,1,2
        assert recall_at_k(S, 1, AUDIO_TO_TEXT) == pytest.approx(1 / 3)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (7, 7), elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])))
    def test_heavy_ties_match_brute_force_exactly(self, S):
        assert tuple(r.tolist() for r in evaluation.match_ranks(S)) == brute_ranks(S)
        for direction in (AUDIO_TO_TEXT, TEXT_TO_AUDIO):
            for k in range(1, 8):
                assert recall_at_k(S, k, direction) == brute_recall(S, k, direction)
            assert map_at_10(S, direction) == brute_map10(S, direction)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.sampled_from([AUDIO_TO_TEXT, TEXT_TO_AUDIO]),
           st.integers(0, 2**32 - 1))
    @example(9, AUDIO_TO_TEXT, 0)
    @example(9, TEXT_TO_AUDIO, 0)
    def test_partial_ties_match_brute_force_exactly(self, n, direction, seed):
        # distinct scores, except that some queries tie their match with
        # other items: before it, after it, or several at once
        rng = np.random.default_rng(seed)
        Q = rng.uniform(-1.0, 1.0, size=(n, n))  # Q[i] holds query i's scores
        for i in np.flatnonzero(rng.random(n) < 0.5):
            others = np.delete(np.arange(n), i)
            tied = rng.choice(others, size=rng.integers(1, len(others) + 1), replace=False)
            Q[i, tied] = Q[i, i]
        S = Q if direction == AUDIO_TO_TEXT else Q.T
        ranks = tuple(r.tolist() for r in evaluation.match_ranks(S))
        assert ranks[DIRECTIONS.index(direction)] == [brute_rank(list(Q[i]), i)
                                                      for i in range(n)]
        assert ranks == brute_ranks(S)

    def test_non_finite_similarity_rejected(self):
        S = np.eye(3)
        S[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            recall_at_k(S, 1, AUDIO_TO_TEXT)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (5, 5), elements=st.floats(-1, 1)))
    def test_monotone_in_k_and_matches_brute_force(self, S):
        for direction in (AUDIO_TO_TEXT, TEXT_TO_AUDIO):
            values = [recall_at_k(S, k, direction) for k in range(1, 6)]
            assert values == sorted(values)
            assert values[-1] == 1.0
            for k, v in zip(range(1, 6), values):
                assert v == pytest.approx(brute_recall(S, k, direction))


class TestMapAt10:
    def test_perfect_ranking(self):
        assert map_at_10(np.eye(4), AUDIO_TO_TEXT) == 1.0

    def test_rank_beyond_cutoff_scores_zero(self):
        S = rank_matrix([11] * 12)
        assert map_at_10(S, AUDIO_TO_TEXT) == 0.0

    def test_rank_four_everywhere(self):
        S = rank_matrix([4] * 6)
        assert map_at_10(S, AUDIO_TO_TEXT) == pytest.approx(0.25)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (6, 6), elements=st.floats(-1, 1)))
    def test_matches_brute_force_and_bounded_by_recall(self, S):
        for direction in (AUDIO_TO_TEXT, TEXT_TO_AUDIO):
            value = map_at_10(S, direction)
            assert value == pytest.approx(brute_map10(S, direction))
            assert value <= recall_at_k(S, min(10, 6), direction) + 1e-12


# test pairs for the tests that rank at R@10: enough that recall at 10 is not 1
RANKED_PAIRS = 32


def make_tiny_setup(seed=0, n=6):
    vocab = generate_vocabulary(8, seed)
    ds = generate_dataset(vocab, n, d_a=12, rng_seed=seed)
    ds = dataclasses.replace(ds, split="test")
    dims = ModelDims(d_t=16, d_h=16, d=8, d_a=12, hash_buckets=64)
    params = init_params(dims, seed=seed + 1)
    return params, ds


def variant_bucket_ids(variants, n_buckets=4096):
    """Each variant's bucket ids, as lists per CSR field."""
    return {name: [getattr(variants.table.ids(getattr(variants, name), n_buckets), field).tolist()
                   for field in ("rows", "lens")]
            for name in ("original", "half", "fully")}


class TestBuildEvalVariants:
    def test_deterministic(self):
        _, ds = make_tiny_setup(3)
        a = variant_bucket_ids(build_eval_variants(ds, eval_seed=42))
        b = variant_bucket_ids(build_eval_variants(ds, eval_seed=42))
        assert a == b
        c = variant_bucket_ids(build_eval_variants(ds, eval_seed=43))
        assert a != c

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_ids_equal_the_caption_apply(self, seed):
        # the id apply and the caption apply read the same draws
        _, ds = make_tiny_setup(seed, n=RANKED_PAIRS)
        variants = build_eval_variants(ds, eval_seed=seed)
        captions = variant_captions(ds, seed)
        for n_buckets in (61, 64):
            for name in ("original", "half", "fully"):
                got = variants.table.ids(getattr(variants, name), n_buckets)
                want = caption_ids(captions[name], ds.vocabulary, n_buckets)
                for field in ("rows", "lens"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.tolist() == b.tolist(), (name, field)

    def test_negated_mention_counts(self):
        _, ds = make_tiny_setup(4)
        variants = variant_captions(ds, eval_seed=7)
        for original, half, fully in zip(variants["original"], variants["half"],
                                         variants["fully"]):
            t = len(tag_mentions(original))
            assert sum(is_negated(m) for m in tag_mentions(original)) == 0
            assert sum(is_negated(m) for m in tag_mentions(half)) == math.ceil(t / 2)
            assert sum(is_negated(m) for m in tag_mentions(fully)) == t

    def test_reproduces_worked_negation_triple(self, song_vocab, tune_caption):
        clip_features = np.zeros(4)
        from negclap.corpus import AudioClip

        clip = AudioClip(id=0, features=clip_features, tag_ids=frozenset({0, 1, 2}))
        ds = dataset_of(song_vocab, ((clip, tune_caption),), "test", clip_features[None])
        target_half = Caption((Word("a"), TagMention(0, "not"), Word("tune"), Word("with"),
                               TagMention(1), Word("and"), TagMention(2, "without")))
        target_fully = Caption(target_half.tokens[:4] + (TagMention(1, "no"),)
                               + target_half.tokens[5:])
        assert render_caption(target_half, song_vocab) == \
            "a not rock tune with guitar and without bass"
        assert render_caption(target_fully, song_vocab) == \
            "a not rock tune with no guitar and without bass"
        for eval_seed in range(4000):
            variants = build_eval_variants(ds, eval_seed)
            if [*kind_captions(variants.table, variants.half),
                    *kind_captions(variants.table, variants.fully)] == [target_half, target_fully]:
                break
        else:
            pytest.fail("worked half/fully pair not produced by any scanned seed")


class TestRetrievalProtocol:
    def test_matches_brute_force_recomputation(self):
        params, ds = make_tiny_setup(5, n=RANKED_PAIRS)
        variants = build_eval_variants(ds, eval_seed=11)
        report = retrieval_protocol(embed_eval_variants(params, ds, variants))
        audio = encode_audio_batch(params, ds.features)[0]
        captions = variant_captions(ds, eval_seed=11)
        for variant_name in ("original", "half", "fully"):
            caps = captions[variant_name]
            text = encode_text_batch(params, caps, ds.vocabulary)[0]
            S = audio @ text.T
            for direction in (AUDIO_TO_TEXT, TEXT_TO_AUDIO):
                assert report.r_at_10[(variant_name, direction)] == pytest.approx(
                    brute_recall(S, 10, direction))
                if variant_name == "original":
                    assert report.map_at_10[direction] == pytest.approx(
                        brute_map10(S, direction))
        # a recall of 0 or 1 everywhere would not tell the oracle from a constant
        assert any(0 < r < 1 for r in report.r_at_10.values())

    def test_ranks_each_variant_and_direction_once(self, monkeypatch):
        params, ds = make_tiny_setup(5, n=RANKED_PAIRS)
        embeddings = embed_eval_variants(params, ds, build_eval_variants(ds, eval_seed=11))
        expected = retrieval_protocol(embeddings)
        calls = []

        def counting(sim):
            calls.append(sim.shape)
            return rank(sim)

        rank = evaluation.match_ranks
        monkeypatch.setattr(evaluation, "match_ranks", counting)
        report = retrieval_protocol(embeddings)
        # one call per variant ranks both directions; R@10 and mAP@10 share ranks
        assert len(calls) == 3
        assert report == expected
        assert any(0 < r < 1 for r in report.r_at_10.values())

    def test_test_set_below_the_cutoff_rejected(self):
        params, ds = make_tiny_setup(6, n=9)
        variants = build_eval_variants(ds, eval_seed=1)
        with pytest.raises(ValueError, match="the test split has 9 pairs; R@10 needs at least 10"):
            retrieval_protocol(embed_eval_variants(params, ds, variants))


class TestTripletProtocol:
    def test_matches_brute_force(self):
        params, ds = make_tiny_setup(7, n=5)
        variants = build_eval_variants(ds, eval_seed=2)
        report = triplet_protocol(embed_eval_variants(params, ds, variants))
        audio = encode_audio_batch(params, ds.features)[0]
        embed = lambda caps: encode_text_batch(params, caps, ds.vocabulary)[0]
        captions = variant_captions(ds, eval_seed=2)
        oracle = brute_triplet(audio, embed(captions["original"]),
                               embed(captions["half"]), embed(captions["fully"]))
        assert report == oracle

    def test_random_embeddings_near_chance(self):
        # with embeddings unrelated to the audio each comparison is a coin flip
        rng = np.random.default_rng(0)
        n, d = 512, 16

        def units(shape):
            raw = rng.normal(size=shape)
            return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

        audio = units((n, d))
        sims = {name: np.sum(audio * units((n, d)), axis=1)
                for name in ("original", "half", "fully")}
        for hi, lo in (("original", "fully"), ("original", "half"), ("half", "fully")):
            acc = float(np.mean(sims[hi] > sims[lo]))
            assert abs(acc - 0.5) < 0.07

    def test_exact_ties_fail_and_are_counted(self):
        params, ds = make_tiny_setup(8, n=4)
        variants = build_eval_variants(ds, eval_seed=3)
        tied = dataclasses.replace(variants, half=variants.original, fully=variants.original)
        report = triplet_protocol(embed_eval_variants(params, ds, tied))
        assert report.acc_orig_fully == 0.0
        assert report.acc_orig_half == 0.0
        assert report.acc_half_fully == 0.0
        assert report.tie_count == 3 * len(ds.pairs)

    def test_order_invariance_under_increasing_transform(self):
        # triplet accuracies depend only on the similarity ordering
        params, ds = make_tiny_setup(9, n=6)
        variants = build_eval_variants(ds, eval_seed=4)
        base = triplet_protocol(embed_eval_variants(params, ds, variants))
        audio = encode_audio_batch(params, ds.features)[0]
        embed = lambda caps: encode_text_batch(params, caps, ds.vocabulary)[0]
        captions = variant_captions(ds, eval_seed=4)
        sims = {n_: np.sum(audio * embed(captions[n_]), axis=1)
                for n_ in ("original", "half", "fully")}
        for f in (lambda x: 3.0 * x + 1.0, np.exp, np.tanh):
            t = {k: f(v) for k, v in sims.items()}
            wins = [float(np.mean(t[hi] > t[lo])) for hi, lo in
                    (("original", "fully"), ("original", "half"), ("half", "fully"))]
            assert wins == pytest.approx(
                [base.acc_orig_fully, base.acc_orig_half, base.acc_half_fully])


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("condition, p_aug, k", [("baseline", 0.0, 0.0),
                                                     ("combo", 0.6, 1e-2)])
    def test_protocols_agree_after_float32_save_and_load(self, tmp_path, condition, p_aug, k):
        # the checkpoint stores float32; the trained float64 model must rank the same
        vocab = generate_vocabulary(12, 5)
        train_ds, test_ds = split_dataset(generate_dataset(vocab, 300, d_a=16, rng_seed=5), 64)
        record, _ = train(train_ds, test_ds, TrainConfig(condition=condition, seed=1,
                                                         p_aug=p_aug, k=k, epochs=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, record.params)
        variants = build_eval_variants(test_ds, 777)
        direct = embed_eval_variants(record.params, test_ds, variants)
        loaded = embed_eval_variants(load_checkpoint(path), test_ds, variants)
        assert retrieval_protocol(loaded) == retrieval_protocol(direct)
        assert triplet_protocol(loaded) == triplet_protocol(direct)


class TestEmbedOnce:
    def test_eval_embeds_audio_once_and_each_variant_once(self, tmp_path, monkeypatch):
        vocab = generate_vocabulary(10, 12)
        ds = generate_dataset(vocab, 64, d_a=12, rng_seed=12)
        ds = dataclasses.replace(ds, split="test")
        data = tmp_path / "test.jsonl"
        save_dataset(ds, data)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, init_params(ModelDims(d_t=16, d_h=16, d=8, d_a=12,
                                                    hash_buckets=64), seed=12))
        calls = {"audio": [], "text": []}

        def counting(kind, encoder):
            def wrapped(params, batch):
                calls[kind].append(len(batch))
                return encoder(params, batch)
            return wrapped

        monkeypatch.setattr(evaluation, "encode_audio_batch",
                            counting("audio", evaluation.encode_audio_batch))
        monkeypatch.setattr(evaluation, "encode_token_lists",
                            counting("text", evaluation.encode_token_lists))
        out = tmp_path / "eval"
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--eval-seed", "3", "--out", str(out)]) == 0
        assert calls == {"audio": [64], "text": [192]}

        # every reported value equals brute force over per-variant encodes
        params = load_checkpoint(ckpt)
        variants = variant_captions(ds, eval_seed=3)
        audio, _ = encode_audio_batch(params, np.stack([c.features for c, _ in ds.pairs]))
        text = {v: encode_text_batch(params, variants[v], vocab)[0]
                for v in ("original", "half", "fully")}
        triplet = brute_triplet(audio, text["original"], text["half"], text["fully"])
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        for row in rows[:-1]:
            S = audio @ text[row["variant"]].T
            assert float(row["r_at_10"]) == brute_recall(S, 10, row["direction"])
            if row["variant"] == "original":
                assert float(row["map_at_10"]) == brute_map10(S, row["direction"])
        summary = rows[-1]
        assert summary["variant"] == "summary"
        assert float(summary["map_at_10"]) == float(np.mean(
            [brute_map10(audio @ text["original"].T, d) for d in (TEXT_TO_AUDIO, AUDIO_TO_TEXT)]))
        assert (float(summary["acc_orig_fully"]), float(summary["acc_orig_half"]),
                float(summary["acc_half_fully"])) == (
            triplet.acc_orig_fully, triplet.acc_orig_half, triplet.acc_half_fully)


class TestOneTextPass:
    @pytest.mark.parametrize("n_tags, n_pairs, dims", [
        (8, RANKED_PAIRS, ModelDims(d_t=16, d_h=16, d=8, d_a=12, hash_buckets=64)),
        (50, 512, ModelDims(d_a=12))])  # the desk test split's size and model
    def test_equals_a_pass_per_variant_bit_for_bit(self, n_tags, n_pairs, dims):
        vocab = generate_vocabulary(n_tags, 4)
        ds = generate_dataset(vocab, n_pairs, d_a=12, rng_seed=4)
        ds = dataclasses.replace(ds, split="test")
        params = init_params(dims, seed=4)
        variants = build_eval_variants(ds, eval_seed=6)
        embeddings = embed_eval_variants(params, ds, variants)
        for name in ("original", "half", "fully"):
            ids = variants.table.ids(getattr(variants, name), dims.hash_buckets)
            alone, _ = encode_token_lists(params, ids)
            assert getattr(embeddings, name).tobytes() == alone.tobytes(), name


class TestReportWriters:
    def test_report_rows_shape_and_columns(self, tmp_path):
        params, ds = make_tiny_setup(10, n=RANKED_PAIRS)
        variants = build_eval_variants(ds, eval_seed=5)
        embeddings = embed_eval_variants(params, ds, variants)
        retrieval = retrieval_protocol(embeddings)
        triplet = triplet_protocol(embeddings)
        rows = report_rows("baseline", 0.0, 0.0, retrieval, triplet)
        assert len(rows) == 7  # 3 variants x 2 directions + summary
        assert any(0 < row["r_at_10"] < 1 for row in rows[:6])
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        with open(path) as f:
            reader = csv.reader(f)
            header = next(reader)
            assert header == list(REPORT_COLUMNS)
            assert len(list(reader)) == 7

    def test_fig_writers(self, tmp_path):
        params, ds = make_tiny_setup(11, n=RANKED_PAIRS)
        variants = build_eval_variants(ds, eval_seed=6)
        embeddings = embed_eval_variants(params, ds, variants)
        retrieval = retrieval_protocol(embeddings)
        triplet = triplet_protocol(embeddings)
        rp = tmp_path / "fig_retrieval_baseline.csv"
        write_fig_retrieval_csv(rp, retrieval)
        with open(rp) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(FIG_RETRIEVAL_COLUMNS)
        assert len(rows) == 1 + 6
        assert any(0 < float(row[2]) < 1 for row in rows[1:])
        tp = tmp_path / "fig_triplet.csv"
        write_fig_triplet_csv(tp, [("baseline", 0.0, triplet)])
        with open(tp) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(FIG_TRIPLET_COLUMNS)
        assert len(rows) == 1 + 3
