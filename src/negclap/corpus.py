"""Synthetic tag-grounded corpus: vocabulary, captions as kinds, JSONL persistence.

A clip is a noisy sum of per-tag latent unit directions; its caption is a
templated token sequence mentioning exactly the clip's tags.  A dataset
holds its pairs as columns, and each caption as a row of kinds: a kind is a
tag's mention under a given negator (or none), or a word.  Negation edits
are then edits of kinds, without string surgery; rendering to text happens
only at encoding time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import string
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np
import orjson

from .seeding import seeded_rng

DEFAULT_NEGATORS = ("not", "no", "without")

# Surfaces handed out before falling back to numbered tags.  Must stay
# disjoint from template connective words and from DEFAULT_NEGATORS.
MUSIC_WORD_POOL = (
    "rock", "guitar", "bass", "piano", "vocals", "drums", "pop", "jazz",
    "synth", "strings", "flute", "violin", "cello", "trumpet", "saxophone",
    "banjo", "acoustic", "electronic", "ambient", "folk", "metal", "blues",
    "funk", "reggae", "techno", "house", "classical", "opera", "choir",
    "organ", "harp", "accordion",
)

DATASET_FORMAT = "negclap-dataset"
DATASET_VERSION = 1

_DIRECTIONS_STREAM = 1
_TAGSETS_STREAM = 2
_NOISE_STREAM = 3


class DatasetError(Exception):
    """Base class for dataset file problems.

    ``load_dataset`` sets ``path`` on every one it raises, and the message
    then starts with that path.
    """
    path: str | Path | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.path is None else f"{self.path}: {message}"


class DatasetParseError(DatasetError):
    """A line of a dataset file could not be decoded."""

    def __init__(self, message: str, line_number: int, column: int | None = None):
        where = f"line {line_number}" if column is None else f"line {line_number}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number


class DatasetValidationError(DatasetError):
    """A decoded dataset violates a structural invariant."""


@dataclass(frozen=True)
class Vocabulary:
    """Tag surfaces, indexed by tag id, and the negators."""
    surfaces: tuple[str, ...]
    negators: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.surfaces)

    @cached_property
    def mention_tokens(self) -> tuple[tuple[str, ...], ...]:
        """The tokens of every mention kind's text, in kind order (see ``Dataset``)."""
        return tuple(tuple(tokenize(s if n is None else f"{n} {s}"))
                     for s in self.surfaces for n in (None, *self.negators))


@dataclass(frozen=True)
class Word:
    text: str


@dataclass(frozen=True)
class TagMention:
    tag_id: int
    negator: str | None = None

    @property
    def negated(self) -> bool:
        return self.negator is not None


@dataclass(frozen=True)
class Caption:
    tokens: tuple[Union[Word, TagMention], ...]

    def mentions(self) -> tuple[TagMention, ...]:
        return tuple(t for t in self.tokens if isinstance(t, TagMention))

    def tag_ids(self) -> frozenset[int]:
        """Ids of all mentioned tags, negated or not."""
        return frozenset(m.tag_id for m in self.mentions())


@dataclass(frozen=True, eq=False)
class AudioClip:
    id: int
    features: np.ndarray
    tag_ids: frozenset[int]

    def __eq__(self, other) -> bool:
        return (isinstance(other, AudioClip) and self.id == other.id
                and self.tag_ids == other.tag_ids and np.array_equal(self.features, other.features))


def _starts(lens: np.ndarray) -> np.ndarray:
    return np.cumsum(lens) - lens


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges [starts[i], starts[i] + lens[i]), concatenated in order."""
    ends = np.cumsum(lens)
    # int32 positions index faster; no flat column comes near 2**31 entries
    shift = (starts - ends + lens).astype(np.int32)
    return np.repeat(shift, lens) + np.arange(ends[-1] if len(ends) else 0, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Rows of integers in CSR form (captions as kinds, or clips' tag ids): ``ids``
    holds every row's entries, row after row, and ``lens`` each row's count."""
    ids: np.ndarray
    lens: np.ndarray

    def __len__(self) -> int:
        return len(self.lens)

    def take(self, rows: np.ndarray) -> "TokenIds":
        """The rows at ``rows``, in that order."""
        lens = self.lens[rows]
        return TokenIds(self.ids[_spans(_starts(self.lens)[rows], lens)], lens)

    @staticmethod
    def concat(parts: Sequence["TokenIds"]) -> "TokenIds":
        """The rows of ``parts``, one part after another."""
        return TokenIds(np.concatenate([p.ids for p in parts]),
                        np.concatenate([p.lens for p in parts]))

    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(len(self)), self.lens)

    def insert(self, rows: np.ndarray, at: np.ndarray, values: np.ndarray) -> "TokenIds":
        """Row ``rows[j]`` with ``values[j]`` inserted before its entry at ``at[j]``.

        ``rows`` is strictly increasing.  A value at the end of a row goes
        before one at the start of the next, so it stays in its row.
        """
        lens = self.lens.copy()
        lens[rows] += 1
        return TokenIds(np.insert(self.ids, _starts(self.lens)[rows] + at, values), lens)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired clips and captions of one split, as columns.

    Row i of each column is pair i: its clip id, its clip's tag ids in
    ascending order, its clip features and its caption as kinds.  With N
    negators, kind t * (1 + N) is tag t's plain mention and kind
    t * (1 + N) + 1 + n its mention under negator n; one kind per entry of
    ``words`` follows the mention kinds.
    """
    vocabulary: Vocabulary
    split: str  # "train" | "test"
    ids: np.ndarray
    tags: TokenIds
    features: np.ndarray
    words: tuple[str, ...]
    captions: TokenIds

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dataset) and self.vocabulary == other.vocabulary
                and self.split == other.split and self.pairs == other.pairs)

    @cached_property
    def pairs(self) -> tuple[tuple[AudioClip, Caption], ...]:
        """The pairs as objects, decoded when first read: each clip's features are a
        row view of ``features``, and each kind is one shared token object."""
        vocab = self.vocabulary
        tokens = [TagMention(t, n) for t in range(len(vocab)) for n in (None, *vocab.negators)]
        tokens += map(Word, self.words)
        kinds, tags = self.captions.ids.tolist(), self.tags.ids.tolist()
        return tuple(
            (AudioClip(id=i, features=row, tag_ids=frozenset(tags[a:a + m])),
             Caption(tuple(map(tokens.__getitem__, kinds[b:b + n]))))
            for i, row, a, m, b, n in zip(
                self.ids.tolist(), self.features, _starts(self.tags.lens).tolist(),
                self.tags.lens.tolist(), _starts(self.captions.lens).tolist(),
                self.captions.lens.tolist()))

    def slice(self, start: int, stop: int, split: str | None = None) -> "Dataset":
        """Pairs ``start`` to ``stop``, in ``split`` (this one's by default)."""
        rows = np.arange(start, stop)
        return Dataset(self.vocabulary, split or self.split, self.ids[rows], self.tags.take(rows),
                       self.features[start:stop], self.words, self.captions.take(rows))


def generate_vocabulary(n_tags: int, rng_seed: int) -> Vocabulary:
    """Vocabulary of ``n_tags`` unique lowercase surfaces plus the fixed negators.

    Surfaces are drawn from a seeded shuffle of the musical word pool, then
    numbered ``tagNNN`` fallbacks once the pool is exhausted.
    """
    if n_tags < 2:
        raise ValueError(f"n_tags must be >= 2, got {n_tags}")
    pool = list(MUSIC_WORD_POOL)
    seeded_rng(rng_seed, 0).shuffle(pool)
    surfaces = tuple(pool[i] if i < len(pool) else f"tag{i:03d}" for i in range(n_tags))
    return Vocabulary(surfaces, DEFAULT_NEGATORS)


def tag_directions(n_tags: int, d_a: int, rng_seed: int) -> np.ndarray:
    """The (n_tags, d_a) matrix of latent unit directions used by generate_dataset.

    Exposed so that feature construction can be reproduced independently of
    the generated clips.
    """
    rng = seeded_rng(rng_seed, _DIRECTIONS_STREAM)
    m = rng.normal(size=(n_tags, d_a))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# Each template is (prefix, mid, suffix) rendered as
#   prefix t0 mid t1 and t2 ... suffix
# (mid is skipped for single-tag captions).  Connective words stay disjoint
# from MUSIC_WORD_POOL and DEFAULT_NEGATORS.  Grammaticality is not a goal;
# fillers keep captions long enough that one negated mention is a small
# perturbation of the token stream, as in natural caption corpora.
_TEMPLATES: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]], ...] = (
    (("a",), ("tune", "with"), ()),
    (("this", "recording", "blends"), ("with",), ("over", "a", "steady", "groove")),
    (("a", "laid", "back"), ("song", "built", "around"), ()),
    (("you", "can", "hear"), ("mixed", "with"), ("in", "this", "piece")),
)


# the templates' words, then "and": the word kinds of a generated dataset
_TEMPLATE_WORDS = (*dict.fromkeys(w for t in _TEMPLATES for part in t for w in part), "and")


@lru_cache(maxsize=None)
def _template(template_index: int, n_mentions: int) -> tuple[int, ...]:
    """Template ``template_index`` (cycled) over ``n_mentions`` mentions, as a layout:
    ``_TEMPLATE_WORDS[j]`` as j and mention m as -1 - m."""
    if n_mentions < 1:
        raise ValueError("a caption needs at least one tag")
    prefix, mid, suffix = (tuple(map(_TEMPLATE_WORDS.index, part))
                           for part in _TEMPLATES[template_index % len(_TEMPLATES)])
    layout = (*prefix, -1)
    if n_mentions > 1:
        layout += (*mid, -2)
        for m in range(2, n_mentions):
            layout += (len(_TEMPLATE_WORDS) - 1, -1 - m)
    return layout + suffix


def generate_dataset(
    vocab: Vocabulary,
    n_clips: int,
    tags_per_clip: tuple[int, int] = (2, 4),
    d_a: int = 64,
    noise_sigma: float = 0.05,
    rng_seed: int = 0,
) -> Dataset:
    """Synthetic paired corpus, fully deterministic given the seed.

    Each clip samples a tag subset uniformly (size uniform in the inclusive
    ``tags_per_clip`` range), its features are the normalized sum of the
    tags' latent directions plus iid Gaussian noise, and its caption is a
    template over the same tags (templates cycled by clip index).  Raises
    ``ValueError`` naming the first clip whose features' squared norm is
    below the smallest normal float64, all-zero features included.
    """
    lo, hi = tags_per_clip
    if lo > hi or lo < 1:
        raise ValueError(f"empty or invalid tag range {tags_per_clip}")
    if hi > len(vocab):
        raise ValueError(f"tags_per_clip max {hi} exceeds vocabulary size {len(vocab)}")
    if n_clips < 1:
        raise ValueError("n_clips must be positive")
    if d_a < 1:
        raise ValueError(f"d_a must be >= 1, got {d_a}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")

    n_vocab = len(vocab)
    tag_rng = seeded_rng(rng_seed, _TAGSETS_STREAM)
    chosen = []
    for _ in range(n_clips):
        n_tags = int(tag_rng.integers(lo, hi + 1))
        chosen.append(tag_rng.choice(n_vocab, size=n_tags, replace=False).tolist())
    lens = np.fromiter(map(len, chosen), np.intp, n_clips)
    # each clip's tags in draw order, padded with n_vocab
    drawn = np.full((n_clips, hi), n_vocab)
    drawn[np.arange(hi) < lens[:, None]] = list(itertools.chain.from_iterable(chosen))

    # A clip's base adds its tags' directions in draw order, as
    # ``directions[tags].sum(axis=0)`` does, then divides by
    # ``np.linalg.norm``, which is sqrt(dot(base, base)).
    directions = tag_directions(n_vocab, d_a, rng_seed)
    bases = directions[drawn[:, 0]]
    for j in range(1, hi):
        rows = np.flatnonzero(lens > j)
        bases[rows] += directions[drawn[rows, j]]
    norms = np.sqrt([base.dot(base) for base in bases])
    bases /= np.maximum(norms, 1e-12)[:, None]
    # The noise stream serves only the noise, so one draw equals the
    # per-clip draws in clip order.
    noise = seeded_rng(rng_seed, _NOISE_STREAM).normal(size=(n_clips, d_a))
    features = bases + noise_sigma * noise
    weak = _weak_rows(features)
    if len(weak):
        raise ValueError(f"clip {weak[0]} has features too close to zero to normalize: its "
                         "tags' latent directions cancel and noise_sigma adds (almost) nothing")

    stride = 1 + len(vocab.negators)
    captions = [[n_vocab * stride + k if k >= 0 else tags[-1 - k] * stride
                 for k in _template(i % len(_TEMPLATES), len(tags))]
                for i, tags in enumerate(chosen)]
    kinds = TokenIds(np.fromiter(itertools.chain.from_iterable(captions), np.intp),
                     np.fromiter(map(len, captions), np.intp, n_clips))
    tags = TokenIds(np.sort(drawn, axis=1)[np.arange(hi) < lens[:, None]], lens)
    return Dataset(vocab, "train", np.arange(n_clips), tags, features, _TEMPLATE_WORDS, kinds)


def _weak_rows(features: np.ndarray) -> np.ndarray:
    """The rows whose squared norm is below the smallest normal float64: no audio
    embedding can normalize them, as the zero-bias tower maps them to an output
    whose squared norm underflows to zero."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", features, features)
    return np.flatnonzero(squares < np.finfo(np.float64).tiny)


def split_dataset(dataset: Dataset, n_test: int) -> tuple[Dataset, Dataset]:
    """Partition into a train head and test tail (clips are iid by construction)."""
    n = len(dataset)
    if not 0 < n_test < n:
        raise ValueError(f"n_test must be in (0, {n}), got {n_test}")
    return dataset.slice(0, n - n_test, "train"), dataset.slice(n - n_test, n, "test")


def check_splits(train: Dataset, test: Dataset) -> None:
    """Raise ValueError unless the splits share their vocabulary and width, and no id."""
    if train.vocabulary != test.vocabulary:
        raise ValueError("the train and test splits have different vocabularies")
    if test.features.shape[1] != train.features.shape[1]:
        raise ValueError(f"the test split's clip features have width {test.features.shape[1]}, "
                         f"the train split's {train.features.shape[1]}")
    shared = np.intersect1d(train.ids, test.ids)
    if len(shared):
        raise ValueError(f"the train and test splits share {len(shared)} clip ids, the "
                         f"smallest {shared[0]}")


def tokenize(rendered: str) -> list[str]:
    """Lowercase whitespace tokens with surrounding punctuation stripped."""
    tokens = []
    for raw in rendered.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(tok)
    return tokens


def _check_mentions_distinct(vocab: Vocabulary) -> None:
    """Refuse a vocabulary whose mentions the text encoder cannot tell apart.

    Each tag's plain mention and its mention under each negator, rendered
    and tokenized, must give at least one token, and tokens no other
    mention gives.
    """
    seen: dict[tuple[str, ...], str] = {}
    for kind, tokens in enumerate(vocab.mention_tokens):
        tag, negator = divmod(kind, 1 + len(vocab.negators))
        entry = f"tag {vocab.surfaces[tag]!r}"
        if negator:
            entry += f" under negator {vocab.negators[negator - 1]!r}"
        if not tokens:
            raise DatasetValidationError(f"{entry} tokenizes to nothing")
        if tokens in seen:
            raise DatasetValidationError(
                f"{seen[tokens]} and {entry} both tokenize to {list(tokens)}")
        seen[tokens] = entry


def validate_dataset(dataset: Dataset, check_tag_consistency: bool = True, *,
                     bad_mention: tuple[int, str] | None = None) -> None:
    """Raise DatasetValidationError naming the first violated invariant.

    The vocabulary and split come first, then the pairs, checked with
    arrays: the fault of the earliest pair is reported, within it the first
    check listed below.  ``bad_mention`` is ``(pair, message)`` of the first
    mention outside the vocabulary that ``load_dataset`` met.
    """
    vocab = dataset.vocabulary
    n_tags = len(vocab)
    if n_tags < 2:
        raise DatasetValidationError("vocabulary must hold at least 2 tags")
    if not vocab.negators:
        raise DatasetValidationError("vocabulary negators must be nonempty")
    if set(vocab.negators) & set(vocab.surfaces):
        raise DatasetValidationError("negators must not collide with tag surfaces")
    _check_mentions_distinct(vocab)
    if dataset.split not in ("train", "test"):
        raise DatasetValidationError(f"unknown split {dataset.split!r}")
    matrix, n = dataset.features, len(dataset)
    if matrix.ndim != 2 or len(matrix) != n:
        raise DatasetValidationError(
            f"feature matrix of shape {matrix.shape} does not hold one row per pair ({n} pairs)")

    ids, tags, kinds = dataset.ids, dataset.tags, dataset.captions
    stride = 1 + len(vocab.negators)
    mention = kinds.ids < n_tags * stride
    plain = mention & (kinds.ids % stride == 0)
    # (pair, tag) as one key, the tag shifted by one so that a tag of -1 stays in its pair
    plain_keys = np.sort(kinds.rows()[plain] * (n_tags + 1) + kinds.ids[plain] // stride + 1)
    by_id = np.argsort(ids, kind="stable")
    checks = [  # (failing pairs, message)
        (by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]], "duplicate clip id"),
        (np.flatnonzero(~np.isfinite(matrix).all(axis=1)), "features must be finite"),
        (_weak_rows(matrix), "features too close to zero to normalize"),
        (np.flatnonzero(tags.lens == 0), "tag set must be nonempty"),
        (tags.rows()[(tags.ids < 0) | (tags.ids >= n_tags)], "tag id out of range"),
        (np.flatnonzero(np.bincount(kinds.rows()[mention], minlength=n) == 0),
         "caption has no tag mention"),
        ([bad_mention[0]] if bad_mention else [], bad_mention and bad_mention[1]),
        (plain_keys[1:][plain_keys[1:] == plain_keys[:-1]] // (n_tags + 1),
         "repeated non-negated tag mention"),
    ]
    if check_tag_consistency:
        clip_keys = np.sort(tags.rows() * (n_tags + 1) + tags.ids + 1)
        # both sorted, so the first place they differ lies in the first pair whose sets differ
        m = min(len(clip_keys), len(plain_keys))
        at = np.flatnonzero(clip_keys[:m] != plain_keys[:m])[:1]
        first = (np.minimum(clip_keys[at], plain_keys[at]) if len(at)
                 else np.concatenate((clip_keys[m:m + 1], plain_keys[m:m + 1])))
        checks.append((first // (n_tags + 1), "non-negated caption tags != clip tags"))
    faults = [(int(np.min(rows)), i) for i, (rows, _) in enumerate(checks) if len(rows)]
    if faults:
        row, i = min(faults)
        message = checks[i][1]
        raise DatasetValidationError(f"{message} {ids[row]}" if i == 0
                                     else f"clip {ids[row]}: {message}")


# Rows per orjson call in _feature_texts: few enough that a chunk's text
# stays small, enough that the per-call cost does not show.
_FEATURE_CHUNK_ROWS = 256


def _feature_texts(features: np.ndarray) -> Iterator[str]:
    """Each row of the float64 matrix ``features`` as ``json.dumps(row.tolist())`` writes it.

    orjson writes a float64 with the shortest digits that round-trip, as
    ``repr`` does, and in the same notation from 1e-4 up to 1e16.  Outside
    that range the two differ (``1e16`` for ``1e+16``, ``0.00001`` for
    ``1e-05``), so a row whose orjson text holds an ``e`` or a ``0.0000`` is
    written by ``json.dumps``.  orjson reads the rows as numpy chunks, so
    the other rows make no Python float.
    """
    for start in range(0, len(features), _FEATURE_CHUNK_ROWS):
        chunk = np.ascontiguousarray(features[start:start + _FEATURE_CHUNK_ROWS])
        text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        for row, row_text in zip(chunk, text[2:-2].split("],[")):
            if "e" in row_text or "0.0000" in row_text:
                yield json.dumps(row.tolist())
            else:
                yield f"[{row_text.replace(',', ', ')}]"


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the JSONL layout: a header line, then one pair per line.

    Features are written with the shortest digits that round-trip, as
    ``json.dumps`` writes them, so load(save(d)) == d.  Each kind's JSON is
    rendered once.  Raises ``ValueError`` naming the clip, before the file
    is opened, when a feature is not finite, since JSON has no such number
    and ``load_dataset`` would refuse the file.
    """
    if not len(dataset):
        raise ValueError("refusing to save an empty dataset")
    matrix = np.asarray(dataset.features, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"cannot save dataset {path}: clip {dataset.ids[np.argmin(finite)]} "
                         "has features that are not finite")
    vocab = dataset.vocabulary
    header = {"format": DATASET_FORMAT, "version": DATASET_VERSION, "n_tags": len(vocab),
              "d_a": int(matrix.shape[1]), "negators": list(vocab.negators),
              "tags": list(vocab.surfaces), "split": dataset.split}
    kind_json = [json.dumps({"t": t, "neg": n})
                 for t in range(len(vocab)) for n in (None, *vocab.negators)]
    kind_json += [json.dumps({"w": w}) for w in dataset.words]
    tokens = list(map(kind_json.__getitem__, dataset.captions.ids.tolist()))
    tags = list(map(str, dataset.tags.ids.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for clip_id, a, m, b, n, features in zip(
                dataset.ids.tolist(), _starts(dataset.tags.lens).tolist(),
                dataset.tags.lens.tolist(), _starts(dataset.captions.lens).tolist(),
                dataset.captions.lens.tolist(), _feature_texts(matrix)):
            # the bytes json.dumps writes for the record, keys in this order
            f.write(f'{{"id": {clip_id}, "tags": [{", ".join(tags[a:a + m])}], '
                    f'"features": {features}, "caption": [{", ".join(tokens[b:b + n])}]}}\n')


# The strict-type rule: every field must hold the JSON type save_dataset
# writes.  orjson gives bool for true/false, int for an integer in
# [-2**63, 2**64) and float for any other number, so ``type(v) is int``
# accepts exactly the JSON integers of that range.  A number that no
# float64 holds (1e400) is a decode error.
_NUMBER_TYPES = frozenset((int, float))
_INTEGER_TYPE = frozenset((int,))


def _integer(value: object, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer in [-2**63, 2**64), got {value!r}")
    return value


def _string(value: object, name: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{name} must be a JSON string, got {value!r}")
    return value


def _list(value: object, name: str) -> list:
    if type(value) is not list:
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return value


class _KindReader:
    """Caption tokens read from decoded JSON as kinds of a vocabulary (see ``Dataset``).

    Each distinct token is checked and given its kind once: a token seen
    before is looked up by its JSON, as orjson writes it, so that a bool or
    a float never passes for an equal integer.  Words get kinds in order of
    first appearance.  A mention outside the vocabulary has no kind: kind 0
    stands in, and the first is kept in ``bad_mention`` as (pair, message).
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab, self.stride = vocab, 1 + len(vocab.negators)
        self.words: dict[str, int] = {}
        self.known: dict[bytes, int] = {}  # a checked token's JSON -> its kind
        self.bad_mention: tuple[int, str] | None = None

    def kinds(self, caption: list, pair: int) -> list[int]:
        try:
            return list(map(self.known.__getitem__, map(orjson.dumps, caption)))
        except (KeyError, TypeError):  # a token not seen before, or none orjson can write
            return [self._kind(token, pair) for token in caption]

    def _kind(self, token: object, pair: int) -> int:
        if type(token) is not dict:
            raise ValueError(f"caption token must be a JSON object, got {token!r}")
        if "w" in token:
            text = _string(token["w"], "w")
            kind = self.words.setdefault(text, len(self.vocab) * self.stride + len(self.words))
        elif "t" in token:
            negator, tag = token["neg"], _integer(token["t"], "t")
            negators = (None, *self.vocab.negators)
            if negator is not None:
                _string(negator, "neg")
            if not 0 <= tag < len(self.vocab) or negator not in negators:
                self.bad_mention = self.bad_mention or (pair, (
                    f"negator {negator!r} not in vocabulary" if 0 <= tag < len(self.vocab)
                    else "caption tag id out of range"))
                return 0
            kind = tag * self.stride + negators.index(negator)
        else:
            raise ValueError(f"unrecognized caption token {token!r}")
        with contextlib.suppress(TypeError):  # nested too deep for orjson in a key no kind reads
            self.known[orjson.dumps(token)] = kind
        return kind


def _numbered_lines(f) -> Iterator[tuple[int, str]]:
    """The lines of a binary file, numbered from 1 and decoded one at a time.

    ``bytes.splitlines`` breaks at ``\\n``, ``\\r\\n`` and ``\\r``, the newlines a
    text-mode read recognizes, and a binary read ends each chunk at ``\\n``,
    so the lines are those a text-mode read gives.  Decoding per line lets
    an invalid UTF-8 byte be reported with its line.
    """
    line_number = 0
    for chunk in f:
        for raw in chunk.splitlines():
            line_number += 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DatasetParseError(f"invalid UTF-8: {e}", line_number=line_number) from e
            yield line_number, line


def _parse_line(line: str, line_number: int) -> dict:
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError as e:
        # the decoder sees one line, so only its column is worth keeping
        raise DatasetParseError(e.msg, line_number=line_number, column=e.colno) from e
    if type(obj) is not dict:
        raise DatasetParseError("expected a JSON object", line_number=line_number)
    return obj


def load_dataset(path: str | Path, check_tag_consistency: bool = True) -> Dataset:
    """Parse and validate a dataset file written by save_dataset.

    The file is read line by line into ``Dataset``'s columns: all clips'
    features go into one ``(n, d_a)`` float64 matrix, and the captions into
    kinds, each distinct token checked once (see ``_KindReader``).  Every
    field must hold the JSON type save_dataset writes, or DatasetParseError
    names the line; a file with no pair record after its header is a
    DatasetValidationError.  Every DatasetError it raises names ``path``.
    """
    try:
        return _read_dataset(path, check_tag_consistency)
    except DatasetError as e:
        e.path = path
        raise


def _read_dataset(path: str | Path, check_tag_consistency: bool) -> Dataset:
    with open(path, "rb") as f:
        lines = _numbered_lines(f)
        first = next(lines, None)
        if first is None:
            raise DatasetParseError("empty file", line_number=1)
        header = _parse_line(first[1], 1)
        if header.get("format") != DATASET_FORMAT:
            raise DatasetParseError(f"bad format marker {header.get('format')!r}", line_number=1)
        if type(header.get("version")) is not int or header["version"] != DATASET_VERSION:
            raise DatasetParseError(
                f"unsupported version {header.get('version')!r}", line_number=1)
        try:
            surfaces = [_string(s, "tags[]") for s in _list(header["tags"], "tags")]
            negators = tuple(
                _string(s, "negators[]") for s in _list(header["negators"], "negators"))
            d_a = _integer(header["d_a"], "d_a")
            if d_a < 1:  # generate_dataset refuses it too
                raise ValueError(f"d_a must be >= 1, got {d_a}")
            n_tags = _integer(header["n_tags"], "n_tags")
            split = _string(header["split"], "split")
        except (KeyError, ValueError) as e:
            raise DatasetParseError(f"bad header: {e}", line_number=1) from e
        if len(surfaces) != n_tags:
            raise DatasetParseError("header n_tags does not match tag list", line_number=1)
        vocab = Vocabulary(tuple(surfaces), negators)

        reader = _KindReader(vocab)
        ids, tags, tag_lens, kinds, kind_lens = [], [], [], [], []  # the columns, as lists
        rows = None  # (capacity, d_a) feature buffer, grown by doubling
        for line_number, line in lines:
            obj = _parse_line(line, line_number)
            try:
                clip_id = _integer(obj["id"], "id")
                features = _list(obj["features"], "features")
                if not _NUMBER_TYPES.issuperset(map(type, features)):
                    raise ValueError("features must hold only JSON numbers")
                clip_tags = _list(obj["tags"], "tags")
                if not _INTEGER_TYPE.issuperset(map(type, clip_tags)):
                    for t in clip_tags:
                        _integer(t, "tags[]")
                caption = reader.kinds(_list(obj["caption"], "caption"), len(ids))
            except (KeyError, ValueError) as e:
                raise DatasetParseError(f"bad pair record: {e}", line_number=line_number) from e
            if len(features) != d_a:
                raise DatasetValidationError(
                    f"line {line_number}: feature dimension ({len(features)},) != ({d_a},)"
                )
            n = len(ids)
            if rows is None:
                # allocated only once a record has matched d_a, so a huge
                # header d_a allocates nothing
                rows = np.empty((1024, d_a))
            elif n == len(rows):
                rows.resize((2 * n, d_a), refcheck=False)  # no views exist yet
            rows[n] = features
            ids.append(clip_id)
            clip_tags = sorted(set(clip_tags))
            if clip_tags and not 0 <= clip_tags[0] <= clip_tags[-1] < n_tags:
                clip_tags = [-1]  # out of range, as validate_dataset reports; -1 fits an array
            tags += clip_tags
            tag_lens.append(len(clip_tags))
            kinds += caption
            kind_lens.append(len(caption))

    if rows is None:  # save_dataset refuses an empty dataset too
        raise DatasetValidationError("no pair records after the header")
    rows.resize((len(ids), d_a), refcheck=False)
    try:
        id_column = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id of 2**63 or more, which the file format allows
        id_column = np.array(ids, dtype=object)
    dataset = Dataset(vocab, split, id_column,
                      TokenIds(np.array(tags, np.intp), np.array(tag_lens, np.intp)), rows,
                      tuple(reader.words),
                      TokenIds(np.array(kinds, np.intp), np.array(kind_lens, np.intp)))
    validate_dataset(dataset, check_tag_consistency, bad_mention=reader.bad_mention)
    return dataset
