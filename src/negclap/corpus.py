"""Synthetic tag-grounded corpus: vocabulary, captions, audio clips, JSONL persistence.

A clip is a noisy sum of per-tag latent unit directions; its caption is a
templated token sequence mentioning exactly the clip's tags.  Captions are
kept structured (word tokens vs. tag mentions) so that negation operations
can manipulate tag mentions without string surgery; rendering to a flat
string happens only at encoding time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

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
class Tag:
    id: int
    surface: str


@dataclass(frozen=True)
class Vocabulary:
    tags: tuple[Tag, ...]
    negators: tuple[str, ...]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tags)

    def surface(self, tag_id: int) -> str:
        return self.tags[tag_id].surface

    def __len__(self) -> int:
        return len(self.tags)


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


CaptionToken = Union[Word, TagMention]


@dataclass(frozen=True)
class Caption:
    tokens: tuple[CaptionToken, ...]

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
        if not isinstance(other, AudioClip):
            return NotImplemented
        return (
            self.id == other.id
            and self.tag_ids == other.tag_ids
            and np.array_equal(self.features, other.features)
        )


@dataclass
class Dataset:
    """Paired clips and captions of one split.

    ``generate_dataset`` and ``load_dataset`` make every clip's features a
    row view of one ``(n, d_a)`` matrix, kept as ``feature_matrix``: row i
    is pair i's clip.  ``split_dataset`` slices it.  A dataset built from
    pairs alone leaves it None.
    """
    vocabulary: Vocabulary
    pairs: list[tuple[AudioClip, Caption]]
    split: str  # "train" | "test"
    feature_matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def features(self) -> np.ndarray:
        """The ``(n, d_a)`` matrix whose row i is pair i's clip features.

        Returns ``feature_matrix`` itself when the dataset has one, so no
        copy of the features is made; otherwise stacks the clips' features.
        """
        if self.feature_matrix is not None:
            return self.feature_matrix
        return np.stack([clip.features for clip, _ in self.pairs])


def generate_vocabulary(n_tags: int, rng_seed: int) -> Vocabulary:
    """Vocabulary of ``n_tags`` unique lowercase surfaces plus the fixed negators.

    Surfaces are drawn from a seeded shuffle of the musical word pool, then
    numbered ``tagNNN`` fallbacks once the pool is exhausted.
    """
    if n_tags < 2:
        raise ValueError(f"n_tags must be >= 2, got {n_tags}")
    pool = list(MUSIC_WORD_POOL)
    seeded_rng(rng_seed, 0).shuffle(pool)
    surfaces = [pool[i] if i < len(pool) else f"tag{i:03d}" for i in range(n_tags)]
    tags = tuple(Tag(i, s) for i, s in enumerate(surfaces))
    return Vocabulary(tags=tags, negators=DEFAULT_NEGATORS)


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


# Tokens are immutable, so every templated caption shares these Word objects.
_TEMPLATE_WORDS = tuple(
    tuple(tuple(Word(w) for w in part) for part in template) for template in _TEMPLATES
)
_AND = Word("and")


def caption_from_tags(tag_ids: Sequence[int], template_index: int) -> Caption:
    """Templated caption mentioning the given tags, in order."""
    return _templated_caption([TagMention(t) for t in tag_ids], template_index)


def _templated_caption(mentions: Sequence[TagMention], template_index: int) -> Caption:
    if not mentions:
        raise ValueError("a caption needs at least one tag")
    prefix, mid, suffix = _TEMPLATE_WORDS[template_index % len(_TEMPLATE_WORDS)]
    toks: list[CaptionToken] = [*prefix, mentions[0]]
    if len(mentions) > 1:
        toks += mid
        toks.append(mentions[1])
        for m in mentions[2:]:
            toks += (_AND, m)
    toks += suffix
    return Caption(tokens=tuple(toks))


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
    if hi > len(vocab.tags):
        raise ValueError(f"tags_per_clip max {hi} exceeds vocabulary size {len(vocab.tags)}")
    if n_clips < 1:
        raise ValueError("n_clips must be positive")
    if d_a < 1:
        raise ValueError(f"d_a must be >= 1, got {d_a}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")

    n_vocab = len(vocab.tags)
    tag_rng = seeded_rng(rng_seed, _TAGSETS_STREAM)
    chosen = []
    for _ in range(n_clips):
        n_tags = int(tag_rng.integers(lo, hi + 1))
        chosen.append(tag_rng.choice(n_vocab, size=n_tags, replace=False).tolist())

    # A clip's base adds its tags' directions in draw order, as
    # ``directions[tags].sum(axis=0)`` does, then divides by
    # ``np.linalg.norm``, which is sqrt(dot(base, base)).
    directions = tag_directions(n_vocab, d_a, rng_seed)
    bases = directions[[tags[0] for tags in chosen]]
    for j in range(1, hi):
        rows = [i for i, tags in enumerate(chosen) if len(tags) > j]
        bases[rows] += directions[[chosen[i][j] for i in rows]]
    norms = np.sqrt([base.dot(base) for base in bases])
    bases /= np.maximum(norms, 1e-12)[:, None]
    # The noise stream serves only the noise, so one draw equals the
    # per-clip draws in clip order.
    noise = seeded_rng(rng_seed, _NOISE_STREAM).normal(size=(n_clips, d_a))
    features = bases + noise_sigma * noise
    # a clip whose squared norm is below the smallest normal float64 has no
    # direction an audio embedding can normalize: the zero-bias tower maps it
    # to an output whose squared norm underflows to zero
    weak = np.einsum("ij,ij->i", features, features) < np.finfo(np.float64).tiny
    if weak.any():
        raise ValueError(f"clip {int(np.argmax(weak))} has features too close to zero to "
                         "normalize: its tags' latent directions cancel and noise_sigma "
                         "adds (almost) nothing")

    mentions = [TagMention(t) for t in range(n_vocab)]
    pairs = [
        (AudioClip(id=i, features=features[i], tag_ids=frozenset(tags)),
         _templated_caption([mentions[t] for t in tags], template_index=i))
        for i, tags in enumerate(chosen)
    ]
    return Dataset(vocab, pairs, "train", features)


def split_dataset(dataset: Dataset, n_test: int) -> tuple[Dataset, Dataset]:
    """Partition into a train head and test tail (clips are iid by construction)."""
    if not 0 < n_test < len(dataset.pairs):
        raise ValueError(f"n_test must be in (0, {len(dataset.pairs)}), got {n_test}")
    matrix = dataset.features()
    train = Dataset(dataset.vocabulary, dataset.pairs[:-n_test], "train", matrix[:-n_test])
    test = Dataset(dataset.vocabulary, dataset.pairs[-n_test:], "test", matrix[-n_test:])
    return train, test


def render_token(tok: CaptionToken, vocab: Vocabulary) -> str:
    """One caption token as text: a word verbatim, a mention as ``[negator] surface``."""
    if isinstance(tok, Word):
        return tok.text
    surface = vocab.surface(tok.tag_id)
    return surface if tok.negator is None else f"{tok.negator} {surface}"


def render_caption(caption: Caption, vocab: Vocabulary) -> str:
    """Flat lowercase string: the rendered tokens joined by single spaces."""
    return " ".join([render_token(tok, vocab) for tok in caption.tokens])


def validate_dataset(dataset: Dataset, check_tag_consistency: bool = True) -> None:
    """Raise DatasetValidationError naming the first violated invariant."""
    finite = [bool(np.isfinite(clip.features).all()) for clip, _ in dataset.pairs]
    _validate(dataset, finite, check_tag_consistency)


def _validate(dataset: Dataset, finite: Sequence[bool], check_tag_consistency: bool) -> None:
    """validate_dataset, given whether each clip's features are all finite."""
    vocab = dataset.vocabulary
    if len(vocab.tags) < 2:
        raise DatasetValidationError("vocabulary must hold at least 2 tags")
    if not vocab.negators:
        raise DatasetValidationError("vocabulary negators must be nonempty")
    if len(set(vocab.surfaces)) != len(vocab.tags):
        raise DatasetValidationError("tag surfaces must be unique")
    if set(vocab.negators) & set(vocab.surfaces):
        raise DatasetValidationError("negators must not collide with tag surfaces")
    if dataset.split not in ("train", "test"):
        raise DatasetValidationError(f"unknown split {dataset.split!r}")

    seen_ids: set[int] = set()
    n_tags = len(vocab.tags)
    d_a = None
    for (clip, caption), is_finite in zip(dataset.pairs, finite):
        if clip.id in seen_ids:
            raise DatasetValidationError(f"duplicate clip id {clip.id}")
        seen_ids.add(clip.id)
        if d_a is None:
            d_a = clip.features.shape[0]
        if clip.features.shape != (d_a,):
            raise DatasetValidationError(
                f"clip {clip.id}: feature dimension {clip.features.shape} != ({d_a},)"
            )
        if not is_finite:
            raise DatasetValidationError(f"clip {clip.id}: features must be finite")
        if not clip.tag_ids:
            raise DatasetValidationError(f"clip {clip.id}: tag set must be nonempty")
        if min(clip.tag_ids) < 0 or max(clip.tag_ids) >= n_tags:
            raise DatasetValidationError(f"clip {clip.id}: tag id out of range")
        mentions = caption.mentions()
        if not mentions:
            raise DatasetValidationError(f"clip {clip.id}: caption has no tag mention")
        plain = []
        for m in mentions:
            if not 0 <= m.tag_id < n_tags:
                raise DatasetValidationError(f"clip {clip.id}: caption tag id out of range")
            if m.negator is None:
                plain.append(m.tag_id)
            elif m.negator not in vocab.negators:
                raise DatasetValidationError(
                    f"clip {clip.id}: negator {m.negator!r} not in vocabulary"
                )
        if len(set(plain)) != len(plain):
            raise DatasetValidationError(f"clip {clip.id}: repeated non-negated tag mention")
        if check_tag_consistency and frozenset(plain) != clip.tag_ids:
            raise DatasetValidationError(
                f"clip {clip.id}: non-negated caption tags != clip tags"
            )


def _token_to_json(tok: CaptionToken) -> dict:
    if isinstance(tok, Word):
        return {"w": tok.text}
    return {"t": tok.tag_id, "neg": tok.negator}


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
    ``json.dumps`` writes them, so load(save(d)) == d.  Raises
    ``ValueError`` naming the clip, before the file is opened, when a
    feature is not finite, since JSON has no such number and
    ``load_dataset`` would refuse the file.
    """
    if not dataset.pairs:
        raise ValueError("refusing to save an empty dataset")
    matrix = np.asarray(dataset.features(), dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        clip = dataset.pairs[int(np.argmin(finite))][0]
        raise ValueError(f"cannot save dataset {path}: clip {clip.id} has features "
                         "that are not finite")
    vocab = dataset.vocabulary
    d_a = int(matrix.shape[1])
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "n_tags": len(vocab.tags),
        "d_a": d_a,
        "negators": list(vocab.negators),
        "tags": list(vocab.surfaces),
        "split": dataset.split,
    }
    # Each token object's JSON is built once; the entry holds the token so
    # that its id stays its own while the cache lives.
    token_json: dict[int, tuple[CaptionToken, str]] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for (clip, caption), features in zip(dataset.pairs, _feature_texts(matrix)):
            tokens = []
            for tok in caption.tokens:
                entry = token_json.get(id(tok))
                if entry is None:
                    entry = token_json[id(tok)] = (tok, json.dumps(_token_to_json(tok)))
                tokens.append(entry[1])
            head = json.dumps({"id": clip.id, "tags": sorted(clip.tag_ids)})
            # the bytes json.dumps writes with "features" and "caption" as the
            # third and fourth keys
            f.write(f'{head[:-1]}, "features": {features}, '
                    f'"caption": [{", ".join(tokens)}]}}\n')


# The strict-type rule: every field must hold the JSON type save_dataset
# writes.  orjson gives bool for true/false, int for an integer in
# [-2**63, 2**64) and float for any other number, so ``type(v) is int``
# accepts exactly the JSON integers of that range.  A number that no
# float64 holds (1e400) is a decode error.
_NUMBER_TYPES = frozenset((int, float))


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


def _token_from_json(obj: object, shared: dict) -> CaptionToken:
    """Decode one caption token, reusing the equal token already in ``shared``."""
    if type(obj) is not dict:
        raise ValueError(f"caption token must be a JSON object, got {obj!r}")
    if "w" in obj:
        key = _string(obj["w"], "w")
    elif "t" in obj:
        neg = obj["neg"]
        key = (_integer(obj["t"], "t"), None if neg is None else _string(neg, "neg"))
    else:
        raise ValueError(f"unrecognized caption token {obj!r}")
    tok = shared.get(key)
    if tok is None:
        tok = shared[key] = (
            Word(key) if type(key) is str
            else TagMention(*key)
        )
    return tok


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

    The file is read line by line.  All clips' features go into one
    ``(n, d_a)`` float64 matrix, and each clip holds a row view of it; equal
    caption tokens are one shared object.  Every field must hold the JSON
    type save_dataset writes, or DatasetParseError names the line; a file
    with no pair record after its header is a DatasetValidationError.  Every
    DatasetError it raises names ``path``.
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
        vocab = Vocabulary(tags=tuple(Tag(i, s) for i, s in enumerate(surfaces)),
                           negators=negators)

        ids: list[int] = []
        tag_sets: list[frozenset[int]] = []
        captions: list[Caption] = []
        shared: dict = {}
        rows = None  # (capacity, d_a) feature buffer, grown by doubling
        for line_number, line in lines:
            obj = _parse_line(line, line_number)
            try:
                clip_id = _integer(obj["id"], "id")
                features = _list(obj["features"], "features")
                if not _NUMBER_TYPES.issuperset(map(type, features)):
                    raise ValueError("features must hold only JSON numbers")
                tags = _list(obj["tags"], "tags")
                tag_ids = frozenset(_integer(t, "tags[]") for t in tags)
                tokens = tuple(
                    _token_from_json(t, shared) for t in _list(obj["caption"], "caption"))
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
            tag_sets.append(tag_ids)
            captions.append(Caption(tokens=tokens))

    if rows is None:  # save_dataset refuses an empty dataset too
        raise DatasetValidationError("no pair records after the header")
    rows.resize((len(ids), d_a), refcheck=False)
    finite = np.isfinite(rows).all(axis=1)
    pairs = [(AudioClip(id=i, features=row, tag_ids=t), c)
             for i, row, t, c in zip(ids, rows, tag_sets, captions)]
    dataset = Dataset(vocab, pairs, split, rows)
    _validate(dataset, finite, check_tag_consistency)
    return dataset
