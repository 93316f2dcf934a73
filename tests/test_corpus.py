import contextlib
import dataclasses
import io
import itertools
import json
import re
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caption_apply import dataset_of, render_caption, templated_caption
from negclap import corpus
from negclap.cli import main as cli_main
from negclap.corpus import (
    Caption,
    DatasetParseError,
    DatasetValidationError,
    TagMention,
    Word,
    generate_dataset,
    generate_vocabulary,
    load_dataset,
    save_dataset,
    split_dataset,
    tag_directions,
    validate_dataset,
)
from negclap.seeding import seeded_rng


def reference_dataset(vocab, n_clips, tags_per_clip, d_a, noise_sigma, rng_seed):
    """generate_dataset as one loop over clips, drawing each clip's noise on its own."""
    lo, hi = tags_per_clip
    directions = tag_directions(len(vocab), d_a, rng_seed)
    tag_rng = seeded_rng(rng_seed, corpus._TAGSETS_STREAM)
    noise_rng = seeded_rng(rng_seed, corpus._NOISE_STREAM)
    pairs = []
    for i in range(n_clips):
        n_tags = int(tag_rng.integers(lo, hi + 1))
        chosen = [int(t) for t in tag_rng.choice(len(vocab), size=n_tags, replace=False)]
        base = directions[chosen].sum(axis=0)
        base /= max(float(np.linalg.norm(base)), 1e-12)
        features = base + noise_sigma * noise_rng.normal(size=d_a)
        clip = corpus.AudioClip(id=i, features=features, tag_ids=frozenset(chosen))
        pairs.append((clip, templated_caption(chosen, template_index=i)))
    return dataset_of(vocab, pairs)


def with_features(dataset, matrix):
    """``dataset`` with its feature matrix replaced by ``matrix``."""
    return dataclasses.replace(dataset, features=matrix)


def with_pair(dataset, i, pair):
    """``dataset`` with pair ``i`` replaced by ``pair``; the feature matrix is kept."""
    pairs = dataset.pairs[:i] + (pair,) + dataset.pairs[i + 1:]
    return dataset_of(dataset.vocabulary, pairs, dataset.split, dataset.features)


# Finite float64 values at the edges of the range where repr and orjson write
# the same notation, and at the edges of the float64 range.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    *(np.nextafter(edge, toward) for edge in (1e-4, 1e16) for toward in (0.0, np.inf)),
    1e-4, 1e16, -1e-4, -1e16,
]


class TestGenerateVocabulary:
    def test_basic_construction(self):
        vocab = generate_vocabulary(3, rng_seed=7)
        assert len(vocab) == 3
        assert len(set(vocab.surfaces)) == 3
        assert vocab.negators == ("not", "no", "without")

    def test_too_few_tags_rejected(self):
        with pytest.raises(ValueError):
            generate_vocabulary(1, rng_seed=0)

    def test_surfaces_unique_and_lowercase_beyond_pool(self):
        vocab = generate_vocabulary(40, rng_seed=3)
        assert len(set(vocab.surfaces)) == 40
        for s in vocab.surfaces:
            assert s == s.lower() and " " not in s
        assert not set(vocab.negators) & set(vocab.surfaces)

    def test_deterministic_in_seed(self):
        assert generate_vocabulary(10, 5) == generate_vocabulary(10, 5)
        assert generate_vocabulary(10, 5) != generate_vocabulary(10, 6)


class TestGenerateDataset:
    def test_identical_tag_sets_identical_features_without_noise(self):
        vocab = generate_vocabulary(4, 1)
        ds = generate_dataset(vocab, 60, tags_per_clip=(2, 2), d_a=16,
                              noise_sigma=0.0, rng_seed=9)
        by_tags = {}
        for clip, _ in ds.pairs:
            by_tags.setdefault(clip.tag_ids, []).append(clip.features)
        repeated = [feats for feats in by_tags.values() if len(feats) > 1]
        assert repeated, "expected repeated tag sets in a small vocabulary"
        for feats in repeated:
            for f in feats[1:]:
                np.testing.assert_array_equal(feats[0], f)

    def test_seeded_determinism(self):
        vocab = generate_vocabulary(6, 2)
        a = generate_dataset(vocab, 25, d_a=16, rng_seed=4, tags_per_clip=(2, 3))
        b = generate_dataset(vocab, 25, d_a=16, rng_seed=4, tags_per_clip=(2, 3))
        assert a == b

    @pytest.mark.parametrize("n_tags,n_clips,tags_per_clip,d_a,noise_sigma,seed", [
        (50, 600, (2, 4), 64, 0.05, 42),
        (12, 300, (1, 1), 16, 0.0, 5),
        (6, 200, (2, 6), 3, 0.3, 9),
        (3, 50, (3, 3), 1, 0.05, 2),
    ])
    def test_equals_per_clip_reference_bit_for_bit(self, n_tags, n_clips, tags_per_clip,
                                                   d_a, noise_sigma, seed):
        vocab = generate_vocabulary(n_tags, seed)
        got = generate_dataset(vocab, n_clips, tags_per_clip=tags_per_clip, d_a=d_a,
                               noise_sigma=noise_sigma, rng_seed=seed)
        want = reference_dataset(vocab, n_clips, tags_per_clip, d_a, noise_sigma, seed)
        for (c1, cap1), (c2, cap2) in zip(got.pairs, want.pairs, strict=True):
            assert (c1.id, c1.tag_ids, cap1) == (c2.id, c2.tag_ids, cap2)
            assert c1.features.tobytes() == c2.features.tobytes()

    def test_empty_tag_range_rejected(self):
        vocab = generate_vocabulary(6, 2)
        with pytest.raises(ValueError):
            generate_dataset(vocab, 10, tags_per_clip=(3, 2), d_a=16, rng_seed=0)

    @pytest.mark.parametrize("settings, problem", [
        (dict(d_a=0), "d_a must be >= 1, got 0"),
        (dict(d_a=-2), "d_a must be >= 1, got -2"),
        (dict(noise_sigma=float("nan")), "noise_sigma must be finite and nonnegative, got nan"),
        (dict(noise_sigma=float("inf")), "noise_sigma must be finite and nonnegative, got inf"),
        (dict(noise_sigma=-0.5), "noise_sigma must be finite and nonnegative, got -0.5"),
    ])
    def test_bad_settings_rejected(self, settings, problem):
        vocab = generate_vocabulary(6, 2)
        with pytest.raises(ValueError, match=problem):
            generate_dataset(vocab, 10, **{"d_a": 16, **settings}, rng_seed=0)

    def test_caption_tags_match_clip_tags(self):
        vocab = generate_vocabulary(8, 3)
        ds = generate_dataset(vocab, 40, d_a=16, rng_seed=5)
        for clip, caption in ds.pairs:
            assert caption.tag_ids() == clip.tag_ids
            assert not any(m.negated for m in caption.mentions())

    def test_nearest_tag_subset_recovered_by_brute_force(self):
        # every clip's feature vector must be closest, by cosine, to the
        # centroid of its own tag subset among all same-size subsets
        vocab = generate_vocabulary(6, 7)
        d_a = 24
        seed = 11
        ds = generate_dataset(vocab, 30, tags_per_clip=(2, 2), d_a=d_a,
                              noise_sigma=0.05, rng_seed=seed)
        dirs = tag_directions(len(vocab), d_a, seed)
        for clip, _ in ds.pairs:
            best, best_cos = None, -2.0
            for subset in itertools.combinations(range(len(vocab)), 2):
                centroid = dirs[list(subset)].sum(axis=0)
                centroid /= np.linalg.norm(centroid)
                cos = float(centroid @ clip.features / np.linalg.norm(clip.features))
                if cos > best_cos:
                    best, best_cos = frozenset(subset), cos
            assert best == clip.tag_ids

    def test_latent_separation_over_seeds(self):
        # disjoint tag sets are, on average over seeds, less similar than
        # overlapping ones when there is no feature noise
        vocab = generate_vocabulary(6, 0)
        disjoint, sharing = [], []
        for seed in range(100):
            ds = generate_dataset(vocab, 12, tags_per_clip=(2, 2), d_a=16,
                                  noise_sigma=0.0, rng_seed=seed)
            for (c1, _), (c2, _) in itertools.combinations(ds.pairs, 2):
                cos = float(
                    c1.features @ c2.features
                    / (np.linalg.norm(c1.features) * np.linalg.norm(c2.features))
                )
                (disjoint if not c1.tag_ids & c2.tag_ids else sharing).append(cos)
        assert np.mean(disjoint) < np.mean(sharing)


class TestRenderCaption:
    def test_fully_negated_tune_rendering(self, song_vocab):
        caption = Caption(tokens=(
            Word("a"), TagMention(0, "not"), Word("tune"), Word("with"),
            TagMention(1, "no"), Word("and"), TagMention(2, "without"),
        ))
        assert render_caption(caption, song_vocab) == \
            "a not rock tune with no guitar and without bass"

    def test_single_mention(self, song_vocab):
        caption = Caption(tokens=(TagMention(5),))
        assert render_caption(caption, song_vocab) == "piano"

    def test_render_injective_over_generated_corpus(self):
        vocab = generate_vocabulary(12, 4)
        ds = generate_dataset(vocab, 300, d_a=16, rng_seed=8)
        captions = {pair[1] for pair in ds.pairs}
        rendered = {render_caption(c, vocab) for c in captions}
        assert len(rendered) == len(captions)


class TestTemplatedCaption:
    def test_needs_a_tag(self):
        with pytest.raises(ValueError):
            corpus._template(0, 0)

    def test_templates_cycle_and_mention_all_tags(self):
        seen = set()
        for idx in range(8):
            layout = corpus._template(idx, 3)
            assert [-1 - k for k in layout if k < 0] == [0, 1, 2]
            seen.add(tuple(corpus._TEMPLATE_WORDS[k] for k in layout if k >= 0))
        assert len(seen) == 4


class TestSaveLoad:
    def _dataset(self, n=10, seed=3):
        vocab = generate_vocabulary(6, seed)
        return generate_dataset(vocab, n, d_a=8, rng_seed=seed)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature_refused_before_writing(self, tmp_path, value):
        ds = self._dataset()
        ds.pairs[4][0].features[2] = value
        path = tmp_path / "ds.jsonl"
        with pytest.raises(ValueError, match=f"clip {ds.pairs[4][0].id} has features"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_round_trip_identity(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_round_trip_bytes_stable(self, tmp_path):
        ds = self._dataset()
        # rows 0, 3 and 6 hold numbers that orjson and json.dumps write in
        # different notations, so they take json.dumps's path
        matrix = ds.features.copy()
        matrix[0, 1], matrix[3, 5], matrix[6, 2] = 2.5e-5, -3e17, 5e-324
        for dataset in (ds, with_features(ds, matrix)):
            p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            save_dataset(dataset, p1)
            save_dataset(load_dataset(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert load_dataset(p1) == dataset

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_features_written_as_json_dumps_and_read_back_bit_for_bit(self, tmp_path_factory,
                                                                     data):
        n = data.draw(st.integers(1, 9))
        d_a = data.draw(st.integers(1, 5))
        number = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))
        matrix = np.array(data.draw(st.lists(st.lists(number, min_size=d_a, max_size=d_a),
                                             min_size=n, max_size=n)), dtype=np.float64)
        # a row too close to zero to normalize does not load, so each row starts with 1.0
        matrix = np.hstack((np.ones((n, 1)), matrix))
        ds = with_features(generate_dataset(generate_vocabulary(6, 0), n, d_a=d_a + 1), matrix)
        path = tmp_path_factory.getbasetemp() / "features.jsonl"
        # chunks of 2 rows, so rows of both paths meet in a chunk and across chunks
        with unittest.mock.patch.object(corpus, "_FEATURE_CHUNK_ROWS", 2):
            save_dataset(ds, path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, matrix, strict=True):
            start = line.index('"features": ') + len('"features": ')
            assert line[start:line.index(', "caption": ')] == json.dumps(row.tolist())
        loaded = load_dataset(path).features
        assert loaded.tobytes() == matrix.tobytes()

    def test_wrong_feature_dimension_is_validation_error(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["features"] = record["features"][:-1]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetValidationError, match="dimension"):
            load_dataset(path)

    def test_truncated_final_line_is_parse_error_with_line_number(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        text = path.read_text()
        path.write_text(text[:-30])
        with pytest.raises(DatasetParseError) as err:
            load_dataset(path)
        assert err.value.line_number == len(ds.pairs) + 1

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_other_line_endings_load_the_same(self, tmp_path, newline):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert load_dataset(path) == ds

    def test_invalid_utf8_is_parse_error_naming_file_and_line(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"w": "', b'"w": "\xff', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetParseError, match="invalid UTF-8") as err:
            load_dataset(path)
        assert err.value.line_number == 4
        assert str(err.value).startswith(f"{path}: line 4: invalid UTF-8: ")

    def test_bad_header_is_parse_error(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        ds = self._dataset()
        ds = with_pair(ds, 1, (ds.pairs[0][0], ds.pairs[1][1]))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        with pytest.raises(DatasetValidationError, match="duplicate"):
            load_dataset(path, check_tag_consistency=False)

    def test_tag_consistency_check_is_optional(self, tmp_path):
        ds = self._dataset()
        clip, caption = ds.pairs[0]
        tokens = tuple(
            TagMention(m.tag_id, "no") if isinstance(m, TagMention) else m
            for m in caption.tokens
        )
        ds = with_pair(ds, 0, (clip, Caption(tokens=tokens)))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        with pytest.raises(DatasetValidationError):
            load_dataset(path)
        loaded = load_dataset(path, check_tag_consistency=False)
        assert loaded == ds

    def test_load_shares_tokens_and_one_feature_matrix(self, tmp_path):
        # 2100 records make the feature buffer grow twice
        ds = generate_dataset(generate_vocabulary(6, 4), 2100, d_a=3, rng_seed=4)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded == ds
        matrix = loaded.pairs[0][0].features.base
        assert matrix.shape == (2100, 3)
        assert all(clip.features.base is matrix for clip, _ in loaded.pairs)
        assert loaded.features is matrix
        tokens = [tok for _, caption in loaded.pairs for tok in caption.tokens]
        assert len({id(tok) for tok in tokens}) == len(set(tokens))

    def test_empty_dataset_not_saved(self, tmp_path):
        ds = self._dataset()
        empty = ds.slice(0, 0)
        with pytest.raises(ValueError):
            save_dataset(empty, tmp_path / "empty.jsonl")


class TestSplitDataset:
    def test_sizes_and_disjoint_ids(self):
        ds = generate_dataset(generate_vocabulary(6, 1), 30, d_a=8, rng_seed=1)
        train, test = split_dataset(ds, 10)
        assert len(train.pairs) == 20 and len(test.pairs) == 10
        assert train.split == "train" and test.split == "test"
        train_ids = {c.id for c, _ in train.pairs}
        test_ids = {c.id for c, _ in test.pairs}
        assert not train_ids & test_ids

    def test_splits_share_the_feature_matrix(self):
        ds = generate_dataset(generate_vocabulary(6, 1), 30, d_a=8, rng_seed=1)
        matrix = ds.features
        assert all(clip.features.base is matrix for clip, _ in ds.pairs)
        for part in split_dataset(ds, 10):
            features = part.features
            assert features.base is matrix and len(features) == len(part.pairs)
            for (clip, _), row in zip(part.pairs, features):
                assert np.shares_memory(clip.features, row)
                assert clip.features.tobytes() == row.tobytes()

    def test_bad_test_size(self):
        ds = generate_dataset(generate_vocabulary(6, 1), 10, d_a=8, rng_seed=1)
        for n in (0, 10, 11):
            with pytest.raises(ValueError):
                split_dataset(ds, n)


def test_validate_dataset_names_violated_invariant():
    ds = generate_dataset(generate_vocabulary(6, 1), 5, d_a=8, rng_seed=1)
    clip, caption = ds.pairs[0]
    words_only = tuple(t for t in caption.tokens if isinstance(t, Word))
    ds = with_pair(ds, 0, (clip, Caption(tokens=words_only)))
    with pytest.raises(DatasetValidationError, match="tag mention"):
        validate_dataset(ds)


def test_validate_dataset_needs_one_feature_row_per_pair():
    ds = generate_dataset(generate_vocabulary(6, 1), 5, d_a=8, rng_seed=1)
    validate_dataset(ds)
    for matrix in (ds.features[:4], ds.features[0]):
        with pytest.raises(DatasetValidationError, match="one row per pair"):
            validate_dataset(dataclasses.replace(ds, features=matrix))


def test_dataset_pairs_are_frozen(tmp_path):
    ds = generate_dataset(generate_vocabulary(6, 1), 5, d_a=8, rng_seed=1)
    save_dataset(ds, tmp_path / "ds.jsonl")
    for part in (ds, *split_dataset(ds, 2), load_dataset(tmp_path / "ds.jsonl")):
        with pytest.raises(TypeError):
            part.pairs[0] = part.pairs[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.pairs = part.pairs[::-1]


SENTINEL = "@@value@@"


def toy_lines(tmp_path):
    ds = generate_dataset(generate_vocabulary(6, 1), 12, d_a=4, rng_seed=1)
    path = tmp_path / "toy.jsonl"
    save_dataset(ds, path)
    return path.read_text().splitlines(keepends=True)


def with_literal(line, key_path, literal):
    """``line`` with the JSON value at ``key_path`` replaced by the raw text ``literal``."""
    obj = json.loads(line)
    node = obj
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = SENTINEL
    return json.dumps(obj).replace(json.dumps(SENTINEL), literal) + "\n"


def augment(path, out):
    """Exit code and stderr of ``negclap augment`` on ``path``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(["augment", "--data", str(path), "--op", "insert",
                         "--seed", "0", "--out", str(out)])
    return code, err.getvalue()


# (line index, key path) of each field that must hold a JSON integer
INTEGER_FIELDS = {
    "header n_tags": (0, ("n_tags",)),
    "header d_a": (0, ("d_a",)),
    "record id": (1, ("id",)),
    "record tags": (1, ("tags", 0)),
    "caption t": (1, ("caption", 1, "t")),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_overflowing_integer_is_parse_error_naming_the_line(tmp_path, field):
    # 1e400 is beyond the float64 range; a 21-digit integer is beyond 64 bits,
    # which the decoder gives as a float
    lines = toy_lines(tmp_path)
    assert json.loads(lines[1])["caption"][1].keys() == {"t", "neg"}
    index, key_path = INTEGER_FIELDS[field]
    for literal in ("1e400", "100000000000000000000"):
        bad = lines.copy()
        bad[index] = with_literal(lines[index], key_path, literal)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(bad))
        with pytest.raises(DatasetParseError) as err:
            load_dataset(path)
        assert err.value.line_number == index + 1
        if literal == "1e400":  # a decode error: the file's line and the decoder's column
            where = f"line {index + 1}, column {bad[index].index(literal) + 1}: "
            assert str(err.value) == f"{path}: {where}number is infinity when parsed as double"
        else:
            where = f"line {index + 1}: "
            assert "must be a JSON integer in [-2**63, 2**64), got 1e+20" in str(err.value)
        code, stderr = augment(path, tmp_path / "out.jsonl")
        assert code == 1
        assert where in stderr


def test_integers_at_the_64_bit_bounds_load(tmp_path):
    lines = toy_lines(tmp_path)
    for clip_id in (-2**63, 2**64 - 1):
        lines[1] = with_literal(lines[1], ("id",), str(clip_id))
        path = tmp_path / "edge.jsonl"
        path.write_text("".join(lines))
        assert load_dataset(path).pairs[0][0].id == clip_id


@pytest.mark.parametrize("key_path,literal", [
    (("features", 0), '"0.5"'),
    (("features", 1), "true"),
    (("features", 2), "false"),
    (("features", 3), "null"),
    (("features",), '"0.5"'),
    (("tags",), '"12"'),
    (("tags", 0), "true"),
    (("tags", 0), "1.0"),
    (("id",), "false"),
    (("id",), '"3"'),
    (("caption", 1, "t"), "true"),
    (("caption", 1, "t"), "2.0"),
    (("caption", 1, "neg"), "5"),
    (("caption", 0, "w"), "7"),
])
def test_record_field_of_wrong_json_type_is_parse_error(tmp_path, key_path, literal):
    lines = toy_lines(tmp_path)
    assert json.loads(lines[1])["caption"][:2] == [{"w": "a"}, {"t": 4, "neg": None}]
    lines[1] = with_literal(lines[1], key_path, literal)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 2
    assert augment(path, tmp_path / "out.jsonl")[0] == 1


@pytest.mark.parametrize("literal, shown", [("true", "True"), ("1.0", "1.0")])
def test_mention_equal_to_an_earlier_valid_one_is_still_checked(tmp_path, literal, shown):
    # load_dataset checks each distinct token once and finds a token seen
    # before by its JSON text, so a bool or a float equal to an earlier
    # integer tag id must not pass for it
    lines = toy_lines(tmp_path)
    first = next(i for i, line in enumerate(lines[1:], 1)
                 if {"t": 1, "neg": None} in json.loads(line)["caption"])
    # the next record takes this caption, every other token of it seen before
    caption = json.loads(lines[first])["caption"]
    record = {**json.loads(lines[first + 1]), "caption": caption}
    lines[first + 1] = with_literal(json.dumps(record),
                                    ("caption", caption.index({"t": 1, "neg": None})),
                                    f'{{"t": {literal}, "neg": null}}')
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert str(err.value) == (f"{path}: line {first + 2}: bad pair record: "
                              f"t must be a JSON integer in [-2**63, 2**64), got {shown}")


@pytest.mark.parametrize("key_path,literal", [
    (("version",), "true"),
    (("version",), "1.0"),
    (("d_a",), '"4"'),
    (("d_a",), "4.0"),
    (("n_tags",), "true"),
    (("tags",), '"abcdef"'),
    (("tags", 0), "3"),
    (("negators", 0), "null"),
    (("split",), "1"),
])
def test_header_field_of_wrong_json_type_is_parse_error(tmp_path, key_path, literal):
    lines = toy_lines(tmp_path)
    lines[0] = with_literal(lines[0], key_path, literal)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 1


# header edits of the toy split (tags drums, electronic, cello, bass, trumpet,
# jazz) that leave two mentions the text encoder cannot tell apart, or one
# with no token
INDISTINCT_MENTIONS = {
    "negators of punctuation": (
        {"negators": ["!!!", "...", "?"]},
        "tag 'drums' and tag 'drums' under negator '!!!' both tokenize to ['drums']"),
    "negators differing in case": (
        {"negators": ["not", "Not!"]},
        "tag 'drums' under negator 'not' and tag 'drums' under negator 'Not!' both "
        "tokenize to ['not', 'drums']"),
    "repeated tag": (
        {"tags": ["drums", "electronic", "cello", "bass", "drums", "jazz"]},
        "tag 'drums' and tag 'drums' both tokenize to ['drums']"),
    "tags differing in case": (
        {"tags": ["drums", "DRUMS", "cello", "bass", "trumpet", "jazz"]},
        "tag 'drums' and tag 'DRUMS' both tokenize to ['drums']"),
    "tag of punctuation": (
        {"tags": ["drums", "electronic", "...", "bass", "trumpet", "jazz"]},
        "tag '...' tokenizes to nothing"),
    "tag holding a negated mention": (
        {"tags": ["no cello", "electronic", "cello", "bass", "trumpet", "jazz"]},
        "tag 'no cello' and tag 'cello' under negator 'no' both tokenize to ['no', 'cello']"),
}


@pytest.mark.parametrize("case", INDISTINCT_MENTIONS)
def test_indistinct_mentions_are_validation_error(tmp_path, case):
    fields, problem = INDISTINCT_MENTIONS[case]
    lines = toy_lines(tmp_path)
    header = json.loads(lines[0])
    assert header["tags"] == ["drums", "electronic", "cello", "bass", "trumpet", "jazz"]
    lines[0] = json.dumps({**header, **fields}) + "\n"
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetValidationError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}: {problem}"
    assert augment(path, tmp_path / "out.jsonl") == (1, f"error: {path}: {problem}\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("d_a", [0, -1])
def test_header_without_feature_width_is_parse_error(tmp_path, d_a):
    # a record's features must then be [], so every clip would embed to zero
    lines = toy_lines(tmp_path)
    lines[0] = with_literal(lines[0], ("d_a",), str(d_a))
    lines[1:] = [with_literal(line, ("features",), "[]") for line in lines[1:]]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    message = f"{path}: line 1: bad header: d_a must be >= 1, got {d_a}"
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 1 and str(err.value) == message
    assert augment(path, tmp_path / "out.jsonl") == (1, f"error: {message}\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("literal", [
    "[" * 100_000,     # nesting deeper than the decoder's recursion limit
    "1" * 5000,        # more digits than Python converts to an int
    "1" + "0" * 400,   # an integer no float holds
    "NaN",             # not JSON numbers, though Python's json reads them
    "Infinity",
    "-Infinity",
    "1e400",           # a number no float holds
], ids=["deep nesting", "5000 digits", "10**400", "NaN", "Infinity", "-Infinity", "1e400"])
def test_feature_that_cannot_decode_is_parse_error(tmp_path, literal):
    lines = toy_lines(tmp_path)
    lines[1] = with_literal(lines[1], ("features", 0), literal)
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 2
    assert augment(path, tmp_path / "out.jsonl")[0] == 1


def test_escaped_lone_surrogate_is_parse_error(tmp_path):
    # Python's json decodes it to a str that no UTF-8 text can hold
    lines = toy_lines(tmp_path)
    lines[1] = with_literal(lines[1], ("caption", 0, "w"), '"\\ud800"')
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 2
    assert augment(path, tmp_path / "out.jsonl")[0] == 1


def test_decode_error_names_the_file_line_and_column(tmp_path):
    # the decoder reads one line at a time, so its own line number is always 1
    lines = toy_lines(tmp_path)
    features = json.loads(lines[2])["features"]
    lines[2] = with_literal(lines[2], ("features",), json.dumps(features)[:-1] + ",]")
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetParseError) as err:
        load_dataset(path)
    assert err.value.line_number == 3
    message = str(err.value)
    # the column is the decoder's, within the line: just past the comma's bracket
    column = int(re.fullmatch(
        re.escape(f"{path}: line 3, column ") + r"(\d+): trailing comma is not allowed",
        message).group(1))
    assert lines[2].index(",]") < column <= len(lines[2])
    assert augment(path, tmp_path / "out.jsonl") == (1, f"error: {message}\n")


class TestFuzzedDatasetFile:
    """Damaged dataset files end in exit 1 or 2 with a message, never a traceback.

    Each example starts from a saved toy corpus.  The file carries no record
    count, so a cut at a line boundary leaves a valid, shorter dataset, and
    a replaced digit or letter can leave a valid one too; those mutations
    only have to exit cleanly, and an accepted file must augment completely.
    """

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        return tmp, "".join(toy_lines(tmp)).encode()

    @staticmethod
    def rejected(tmp, data):
        path = tmp / "mutated.jsonl"
        path.write_bytes(data)
        code, stderr = augment(path, tmp / "out.jsonl")
        assert code in (1, 2)
        assert stderr.startswith("error: ")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation_inside_a_line(self, toy, data):
        tmp, text = toy
        cuts = [0] + [i for i in range(1, len(text))
                      if text[i - 1:i] != b"\n" and text[i:i + 1] != b"\n"]
        self.rejected(tmp, text[:data.draw(st.sampled_from(cuts))])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replaced_structural_byte(self, toy, data):
        tmp, text = toy
        position = data.draw(st.sampled_from(
            [i for i, b in enumerate(text) if b in b'{}[]:,"']))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != text[position]))
        self.rejected(tmp, text[:position] + bytes([byte]) + text[position + 1:])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replaced_byte_anywhere(self, toy, data):
        tmp, text = toy
        position = data.draw(st.integers(0, len(text) - 1))
        byte = data.draw(st.integers(0, 255))
        path, out = tmp / "mutated.jsonl", tmp / "out.jsonl"
        path.write_bytes(text[:position] + bytes([byte]) + text[position + 1:])
        out.unlink(missing_ok=True)
        code, _ = augment(path, out)
        assert code in (0, 1, 2)
        if code == 0:
            assert len(load_dataset(out).pairs) == len(load_dataset(path).pairs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_dropped_key(self, toy, data):
        tmp, text = toy
        lines = text.decode().splitlines(keepends=True)
        index = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[index])
        owner = data.draw(st.sampled_from([obj] + ([] if index == 0 else obj["caption"])))
        del owner[data.draw(st.sampled_from(sorted(owner)))]
        lines[index] = json.dumps(obj) + "\n"
        self.rejected(tmp, "".join(lines).encode())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_numeric_field_of_another_type(self, toy, data):
        tmp, text = toy
        lines = text.decode().splitlines(keepends=True)
        index = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[index])
        if index == 0:
            key_path = (data.draw(st.sampled_from(["version", "n_tags", "d_a"])),)
        else:
            field = data.draw(st.sampled_from(["id", "tags", "features", "t"]))
            if field == "id":
                key_path = ("id",)
            elif field == "t":
                mentions = [i for i, tok in enumerate(obj["caption"]) if "t" in tok]
                key_path = ("caption", data.draw(st.sampled_from(mentions)), "t")
            else:
                key_path = (field, data.draw(st.integers(0, len(obj[field]) - 1)))
        literal = data.draw(st.sampled_from(['"7"', "true", "false", "null", "1e400"]))
        lines[index] = with_literal(lines[index], key_path, literal)
        self.rejected(tmp, "".join(lines).encode())


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0, 0.0], [1e-170, 0.0, -1e-170, 0.0]],
                         ids=["zero", "underflowing"])
def test_feature_row_that_cannot_be_normalized_is_validation_error(tmp_path, row):
    # generate_dataset refuses such a row too: its squared norm is below the
    # smallest normal float64, so no audio embedding can normalize it
    lines = toy_lines(tmp_path)
    record = json.loads(lines[3])
    lines[3] = json.dumps({**record, "features": row}) + "\n"
    path = tmp_path / "weak.jsonl"
    path.write_text("".join(lines))
    message = f"{path}: clip {record['id']}: features too close to zero to normalize"
    with pytest.raises(DatasetValidationError) as err:
        load_dataset(path)
    assert str(err.value) == message
    assert augment(path, tmp_path / "out.jsonl") == (1, f"error: {message}\n")
