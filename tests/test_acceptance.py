"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Trained-model criteria (5-9) evaluate the default desk-scale setup: a
5,000/512 synthetic corpus and the four training conditions, replicated for
seeds 1, 2, 3, with a criterion passing when at least two replicates satisfy
it (criteria marked all-seeds must hold for every seed).  The module is
self-contained but heavy: the session fixtures train twelve models and run
two sweeps, about ten minutes on one core.  The criteria that train models
carry the ``slow`` marker, so ``pytest -m "not slow"`` skips them.

Criterion 7 expects the dissimilarity-term model to collapse to
presence-based behavior (acc_half_fully <= 0.65).  This encoder instead
learns per-tag negation flips from the dissimilarity objective and ranks
half-negated captions above fully negated ones almost surely, so the
criterion is expected to fail; the test reports the measured values.
"""

import math
import time

import numpy as np
import pytest

from caption_apply import fully_negate, variant_captions
from fd_utils import (
    clap_loss_through_encoders,
    dissimilarity_through_encoders,
    finite_difference_grads,
    max_gradient_violation,
)
from ids_utils import concat_ids
from test_evaluation import brute_map10, brute_recall, brute_triplet

from negclap.cli import main as cli_main
from negclap.corpus import (
    Caption,
    Dataset,
    TagMention,
    Word,
    generate_dataset,
    generate_vocabulary,
    save_dataset,
    split_dataset,
)
from negclap.evaluation import (
    AUDIO_TO_TEXT,
    TEXT_TO_AUDIO,
    build_eval_variants,
    embed_eval_variants,
    map_at_10,
    recall_at_k,
    retrieval_protocol,
    triplet_protocol,
)
from negclap.model import (
    ModelDims,
    TokenTable,
    encode_audio_batch,
    encode_text_batch,
    init_params,
)
from negclap.negation import (
    draw_half,
    draw_insert,
    draw_negators,
    edit_counts,
    insert_ids,
    negate_ids,
)
from negclap.objective import dissimilarity_loss, total_loss_through_encoders
from negclap.seeding import seeded_rng
from negclap.training import TrainConfig, sweep, sweep_configs, train, write_sweep_outputs

SEEDS = (1, 2, 3)
EVAL_SEED = 777
DESK = dict(n_tags=50, n_clips=5512, n_test=512, d_a=64, noise_sigma=0.05)
TRAIN = dict(batch_size=8, epochs=10, learning_rate=0.01)
DIRECTIONS = (TEXT_TO_AUDIO, AUDIO_TO_TEXT)


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def two_of_three(flags):
    return sum(bool(f) for f in flags) >= 2


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def desk_lab():
    """Per seed: the default corpus, four trained conditions, both protocols."""
    lab = {}
    for seed in SEEDS:
        vocab = generate_vocabulary(DESK["n_tags"], seed)
        full = generate_dataset(vocab, DESK["n_clips"], d_a=DESK["d_a"],
                                noise_sigma=DESK["noise_sigma"], rng_seed=seed)
        train_ds, test_ds = split_dataset(full, DESK["n_test"])
        variants = build_eval_variants(test_ds, EVAL_SEED)
        runs = {}
        for condition, p_aug, k in (
            ("baseline", 0.0, 0.0),
            ("text_aug", 0.6, 0.0),
            ("loss_term", 0.0, 1e-2),
            ("combo", 0.6, 1e-2),
        ):
            config = TrainConfig(condition=condition, seed=seed, p_aug=p_aug, k=k,
                                 **TRAIN)
            record, logs = train(train_ds, test_ds, config)
            embeddings = embed_eval_variants(record.params, test_ds, variants)
            runs[condition] = {
                "record": record,
                "logs": logs,
                "retrieval": retrieval_protocol(embeddings),
                "triplet": triplet_protocol(embeddings),
            }
        lab[seed] = {"train": train_ds, "test": test_ds, "runs": runs}
    return lab


def random_tokens_caption(rng, n_tags):
    plain = rng.choice(n_tags, size=int(rng.integers(1, 5)), replace=False)
    tokens = [TagMention(int(t)) for t in plain]
    for _ in range(int(rng.integers(0, 3))):
        tokens.append(TagMention(int(rng.integers(0, n_tags)),
                                 ("not", "no", "without")[int(rng.integers(0, 3))]))
    for _ in range(int(rng.integers(0, 6))):
        tokens.append(Word(["a", "slow", "song", "with", "and", "loud"]
                           [int(rng.integers(0, 6))]))
    order = rng.permutation(len(tokens))
    return Caption(tokens=tuple(tokens[i] for i in order))


# ---------------------------------------------------------------- criteria

def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    worst_overall = 0.0
    for seed in SEEDS:
        dims = ModelDims(d_t=8, d_h=8, d=8, d_a=8, hash_buckets=32)
        params = init_params(dims, seed=seed, init_scale=0.2)
        params.log_temperature[...] = math.log(5.0)
        vocab = generate_vocabulary(6, seed)
        ds = generate_dataset(vocab, 4, d_a=8, rng_seed=seed)
        captions = [c for _, c in ds.pairs]
        feats = np.stack([clip.features for clip, _ in ds.pairs])
        negated = [fully_negate(c, vocab, seeded_rng(seed, 1)) for c in captions]
        table = TokenTable(vocab)
        ids = table.ids(table.slots(captions), dims.hash_buckets)
        neg_ids = table.ids(table.slots(negated), dims.hash_buckets)
        # a training step's layout: contrastive captions, anchors, negated captions
        step_ids = concat_ids([ids, ids, neg_ids])

        checks = {
            "clap": (
                clap_loss_through_encoders(params, feats, ids)[1],
                lambda p: clap_loss_through_encoders(p, feats, ids, with_grads=False)[0],
            ),
            "dissimilarity": (
                dissimilarity_through_encoders(params, ids, neg_ids)[1],
                lambda p: dissimilarity_through_encoders(p, ids, neg_ids, with_grads=False)[0],
            ),
            "total": (
                total_loss_through_encoders(params, feats, step_ids, k=1e-2)[1],
                lambda p: total_loss_through_encoders(
                    p, feats, step_ids, k=1e-2, with_grads=False)[0].l_total,
            ),
        }
        for name, (analytic, loss_fn) in checks.items():
            numeric = finite_difference_grads(loss_fn, params)
            worst, where = max_gradient_violation(analytic, numeric)
            worst_overall = max(worst_overall, worst)
            assert worst <= 1.0, f"seed {seed} {name}: mismatch at {where}"
    elapsed = time.perf_counter() - started
    report(1, "gradient oracle", elapsed < 10.0,
           f"worst tolerance ratio {worst_overall:.3f}, runtime {elapsed:.1f}s")


def test_criterion_02_dissimilarity_bounds():
    ok = True
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(10_000, 2, 16))
        units = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        for a, b in units:
            loss = dissimilarity_loss(a[None, :], b[None, :])[0]
            if not 0.0 <= loss <= 2.0:
                ok = False
        e = units[0, 0][None, :]
        same = dissimilarity_loss(e, e)[0]
        opposite = dissimilarity_loss(e, -e)[0]
        ok = ok and abs(same - 2.0) <= 1e-9 and abs(opposite - 0.0) <= 1e-9
    report(2, "dissimilarity bounds", ok,
           "10,000 random unit pairs per seed in [0, 2]; equality cases exact to 1e-9")


def test_criterion_03_augmentation_invariants():
    n_tags = 12
    n_iterations = 10_000
    vocab = generate_vocabulary(n_tags, 0)
    table = TokenTable(vocab)
    n_negators = len(vocab.negators)
    failures = []
    for seed in SEEDS:
        rng = seeded_rng(seed, 3)
        captions = [random_tokens_caption(rng, n_tags) for _ in range(500)]
        candidate_sets = {}
        for caption in captions:
            unused = sorted(set(range(n_tags)) - caption.tag_ids())
            cands = set()
            for gap in range(len(caption.tokens) + 1):
                for tag in unused:
                    for neg in vocab.negators:
                        mention = TagMention(tag, neg)
                        cands.add(Caption(
                            caption.tokens[:gap] + (mention,) + caption.tokens[gap:]))
            candidate_sets[caption] = cands
        # iteration i edits caption i % 500 three times: an insert, a half and
        # a full negation, drawn in that order from one stream; each edit of
        # all iterations is then one id apply, decoded back to captions
        slots = table.slots([captions[i % len(captions)] for i in range(n_iterations)])
        n_plain, n_unused = (counts.tolist() for counts in edit_counts(slots, table))
        inserts, half_mentions, half_negators, fully_negators = [], [], [], []
        first = 0
        for i in range(n_iterations):
            inserts.append(draw_insert(int(slots.lens[i]), n_unused[i], n_negators, rng))
            picked = draw_half(n_plain[i], rng)
            half_mentions.append(first + picked)
            half_negators.append(draw_negators([len(picked)], n_negators, rng))
            fully_negators.append(draw_negators([n_plain[i]], n_negators, rng))
            first += n_plain[i]
        gaps, unused, negators = np.array(inserts, dtype=np.intp).T
        edited = zip(
            table.captions(insert_ids(slots, np.arange(n_iterations), gaps, unused, negators,
                                      table)),
            table.captions(negate_ids(slots, np.concatenate(half_mentions),
                                      np.concatenate(half_negators), table)),
            table.captions(negate_ids(slots, np.arange(first), np.concatenate(fully_negators),
                                      table)))
        for i, (inserted, halved, full) in enumerate(edited):
            caption = captions[i % len(captions)]
            plain = [m for m in caption.mentions() if not m.negated]
            before_ids = sorted(m.tag_id for m in caption.mentions())

            if inserted not in candidate_sets[caption]:
                failures.append((seed, i, "insert not in enumerated candidates"))
            new = set(inserted.tokens) - set(caption.tokens)
            mention = next(iter(new))
            if mention.tag_id in caption.tag_ids():
                failures.append((seed, i, "inserted tag already present"))
            idx = inserted.tokens.index(mention)
            if inserted.tokens[:idx] + inserted.tokens[idx + 1:] != caption.tokens:
                failures.append((seed, i, "insert did not preserve tokens"))

            already = sum(m.negated for m in caption.mentions())
            if sum(m.negated for m in halved.mentions()) != \
                    already + math.ceil(len(plain) / 2):
                failures.append((seed, i, "half negation count"))
            if len(halved.tokens) != len(caption.tokens) or \
                    sorted(m.tag_id for m in halved.mentions()) != before_ids:
                failures.append((seed, i, "half token preservation"))

            if not all(m.negated for m in full.mentions()):
                failures.append((seed, i, "fully negation count"))
            if len(full.tokens) != len(caption.tokens) or \
                    sorted(m.tag_id for m in full.mentions()) != before_ids:
                failures.append((seed, i, "fully token preservation"))
    report(3, "augmentation invariants", not failures,
           f"10,000 iterations x 3 seeds; first failures: {failures[:3]}")


def test_criterion_04_protocol_oracles():
    rng = np.random.default_rng(0)
    exact = True
    for instance in range(50):
        n = int(rng.integers(2, 9))
        S = rng.normal(size=(n, n))
        for direction in DIRECTIONS:
            for k in range(1, n + 1):
                if recall_at_k(S, k, direction) != brute_recall(S, k, direction):
                    exact = False
            if map_at_10(S, direction) != brute_map10(S, direction):
                exact = False

        vocab = generate_vocabulary(6, instance)
        ds = generate_dataset(vocab, n, d_a=10, rng_seed=instance)
        ds = Dataset(vocab, ds.pairs, split="test")
        dims = ModelDims(d_t=12, d_h=12, d=8, d_a=10, hash_buckets=32)
        params = init_params(dims, seed=instance)
        variants = build_eval_variants(ds, eval_seed=instance)
        observed = triplet_protocol(embed_eval_variants(params, ds, variants))
        audio, _ = encode_audio_batch(
            params, np.stack([c.features for c, _ in ds.pairs]))
        # the variant captions, rebuilt with the caption apply from the same stream
        captions = variant_captions(ds, eval_seed=instance)
        embs = {
            name: encode_text_batch(params, captions[name], vocab)[0]
            for name in ("original", "half", "fully")
        }
        expected = brute_triplet(audio, embs["original"], embs["half"], embs["fully"])
        if observed != expected:
            exact = False
    report(4, "protocol oracles", exact,
           "recall/mAP/triplet equal brute force on 50 random instances up to 8x8")


@pytest.mark.slow
def test_criterion_05_baseline_randomness(desk_lab):
    values = [desk_lab[s]["runs"]["baseline"]["triplet"].acc_orig_fully for s in SEEDS]
    flags = [0.35 <= v <= 0.65 for v in values]
    report(5, "baseline randomness", two_of_three(flags),
           "acc_orig_fully per seed: " + ", ".join(f"{v:.3f}" for v in values))


@pytest.mark.slow
def test_criterion_06_loss_term_separation(desk_lab):
    flags, details = [], []
    for seed in SEEDS:
        runs = desk_lab[seed]["runs"]
        r = runs["loss_term"]["retrieval"].r_at_10
        base = runs["baseline"]["retrieval"].r_at_10
        ok = all(r[("fully", d)] <= 0.05 for d in DIRECTIONS)
        ok = ok and all(r[("half", d)] <= 0.10 for d in DIRECTIONS)
        ok = ok and all(r[("original", d)] >= 0.9 * base[("original", d)]
                        for d in DIRECTIONS)
        flags.append(ok)
        details.append(
            f"seed {seed}: fully=({r[('fully', DIRECTIONS[0])]:.2f},"
            f"{r[('fully', DIRECTIONS[1])]:.2f}) half=({r[('half', DIRECTIONS[0])]:.2f},"
            f"{r[('half', DIRECTIONS[1])]:.2f})")
    report(6, "loss-term separation", two_of_three(flags), "; ".join(details))


@pytest.mark.slow
def test_criterion_07_loss_term_triplet_behavior(desk_lab):
    flags, details = [], []
    for seed in SEEDS:
        t = desk_lab[seed]["runs"]["loss_term"]["triplet"]
        flags.append(t.acc_orig_fully >= 0.90 and t.acc_half_fully <= 0.65)
        details.append(f"seed {seed}: of={t.acc_orig_fully:.3f} hf={t.acc_half_fully:.3f}")
    report(7, "loss-term triplet behavior", two_of_three(flags), "; ".join(details))


@pytest.mark.slow
def test_criterion_08_combo_synergy(desk_lab):
    flags, details = [], []
    for seed in SEEDS:
        t = desk_lab[seed]["runs"]["combo"]["triplet"]
        flags.append(t.acc_half_fully >= 0.55 and t.acc_orig_fully >= 0.85)
        details.append(f"seed {seed}: hf={t.acc_half_fully:.3f} of={t.acc_orig_fully:.3f}")
    report(8, "combo synergy", two_of_three(flags), "; ".join(details))


@pytest.mark.slow
def test_criterion_09_retrieval_ordering(desk_lab):
    flags, details = [], []
    for seed in SEEDS:
        ok = True
        for condition in ("text_aug", "loss_term", "combo"):
            r = desk_lab[seed]["runs"][condition]["retrieval"].r_at_10
            for d in DIRECTIONS:
                if not r[("original", d)] >= r[("half", d)] >= r[("fully", d)]:
                    ok = False
        flags.append(ok)
        details.append(f"seed {seed}: {'ordered' if ok else 'violated'}")
    report(9, "retrieval ordering", two_of_three(flags), "; ".join(details))


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path_factory):
    import hashlib

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    ok = True
    for seed in SEEDS:
        root = tmp_path_factory.mktemp(f"determinism_{seed}")
        data = root / "data"
        assert cli_main(["gen-data", "--n-tags", "12", "--n-clips", "300",
                         "--n-test", "40", "--d-a", "16", "--seed", str(seed),
                         "--out", str(data)]) == 0
        hashes = []
        for attempt in ("a", "b"):
            run = root / f"run_{attempt}"
            assert cli_main(["train", "--data", str(data), "--condition", "combo",
                             "--p-aug", "0.6", "--k", "1e-2", "--epochs", "2",
                             "--seed", str(seed), "--out", str(run)]) == 0
            out = root / f"eval_{attempt}"
            assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                             "--data", str(data), "--eval-seed", "5",
                             "--out", str(out)]) == 0
            hashes.append((
                digest(run / "checkpoint.ckpt"),
                digest(run / "train_log.csv"),
                digest(out / "report.csv"),
                digest(out / "fig_retrieval_model.csv"),
            ))
        if hashes[0] != hashes[1]:
            ok = False
    report(10, "determinism", ok,
           "checkpoints, logs, and reports byte-identical across reruns, all seeds")


@pytest.mark.slow
def test_criterion_11_runtime_budget(desk_lab, tmp_path_factory):
    root = tmp_path_factory.mktemp("runtime")
    data = root / "data"
    data.mkdir()
    save_dataset(desk_lab[1]["train"], data / "train.jsonl")
    save_dataset(desk_lab[1]["test"], data / "test.jsonl")

    started = time.perf_counter()
    code = cli_main(["sweep", "--data", str(data), "--seed", "1",
                     "--eval-seed", str(EVAL_SEED), "--quick",
                     "--out", str(root / "quick")])
    quick_elapsed = time.perf_counter() - started
    assert code == 0

    started = time.perf_counter()
    rows = sweep(desk_lab[1]["train"], desk_lab[1]["test"], sweep_configs(seed=1),
                 eval_seed=EVAL_SEED)
    write_sweep_outputs(rows, root / "full")
    full_elapsed = time.perf_counter() - started
    assert len(rows) == 15

    ok = quick_elapsed < 300.0 and full_elapsed < 3600.0
    report(11, "runtime budget", ok,
           f"quick sweep {quick_elapsed:.0f}s (< 300s), "
           f"full sweep {full_elapsed:.0f}s (< 3600s)")
