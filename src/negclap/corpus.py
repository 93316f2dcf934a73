"""Synthetic tag-grounded corpus: vocabulary, captions, audio clips, JSONL persistence.

A clip is a noisy sum of per-tag latent unit directions; its caption is a
templated token sequence mentioning exactly the clip's tags.  Captions are
kept structured (word tokens vs. tag mentions) so that negation operations
can manipulate tag mentions without string surgery; rendering to a flat
string happens only at encoding time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

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
    """Base class for dataset file problems."""


class DatasetParseError(DatasetError):
    """A line of a dataset file could not be decoded."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
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
    negated: bool = False
    negator: str | None = None

    def __post_init__(self):
        if self.negated != (self.negator is not None):
            raise ValueError("negator must be present iff the mention is negated")


CaptionToken = Union[Word, TagMention]


@dataclass(frozen=True)
class Caption:
    tokens: tuple[CaptionToken, ...]

    def mentions(self) -> tuple[TagMention, ...]:
        return tuple(t for t in self.tokens if isinstance(t, TagMention))

    def plain_tag_ids(self) -> tuple[int, ...]:
        return tuple(m.tag_id for m in self.mentions() if not m.negated)

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
    vocabulary: Vocabulary
    pairs: list[tuple[AudioClip, Caption]]
    split: str  # "train" | "test"

    def __len__(self) -> int:
        return len(self.pairs)


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


def caption_from_tags(tag_ids: Sequence[int], template_index: int) -> Caption:
    """Templated caption mentioning the given tags, in order."""
    if not tag_ids:
        raise ValueError("a caption needs at least one tag")
    prefix, mid, suffix = _TEMPLATES[template_index % len(_TEMPLATES)]
    toks: list[CaptionToken] = [Word(w) for w in prefix]
    toks.append(TagMention(tag_ids[0]))
    if len(tag_ids) > 1:
        toks += [Word(w) for w in mid]
        toks.append(TagMention(tag_ids[1]))
        for t in tag_ids[2:]:
            toks += [Word("and"), TagMention(t)]
    toks += [Word(w) for w in suffix]
    return Caption(tokens=tuple(toks))


def generate_dataset(
    vocab: Vocabulary,
    n_clips: int,
    tags_per_clip: tuple[int, int] = (2, 4),
    d_a: int = 64,
    noise_sigma: float = 0.05,
    rng_seed: int = 0,
    split: str = "train",
) -> Dataset:
    """Synthetic paired corpus, fully deterministic given the seed.

    Each clip samples a tag subset uniformly (size uniform in the inclusive
    ``tags_per_clip`` range), its features are the normalized sum of the
    tags' latent directions plus iid Gaussian noise, and its caption is a
    template over the same tags (templates cycled by clip index).
    """
    lo, hi = tags_per_clip
    if lo > hi or lo < 1:
        raise ValueError(f"empty or invalid tag range {tags_per_clip}")
    if hi > len(vocab.tags):
        raise ValueError(f"tags_per_clip max {hi} exceeds vocabulary size {len(vocab.tags)}")
    if n_clips < 1:
        raise ValueError("n_clips must be positive")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")

    directions = tag_directions(len(vocab.tags), d_a, rng_seed)
    tag_rng = seeded_rng(rng_seed, _TAGSETS_STREAM)
    noise_rng = seeded_rng(rng_seed, _NOISE_STREAM)

    pairs: list[tuple[AudioClip, Caption]] = []
    for i in range(n_clips):
        n_tags = int(tag_rng.integers(lo, hi + 1))
        chosen = [int(t) for t in tag_rng.choice(len(vocab.tags), size=n_tags, replace=False)]
        base = directions[chosen].sum(axis=0)
        base /= max(float(np.linalg.norm(base)), 1e-12)
        features = base + noise_sigma * noise_rng.normal(size=d_a)
        clip = AudioClip(id=i, features=features, tag_ids=frozenset(chosen))
        caption = caption_from_tags(chosen, template_index=i)
        pairs.append((clip, caption))
    return Dataset(vocabulary=vocab, pairs=pairs, split=split)


def split_dataset(dataset: Dataset, n_test: int) -> tuple[Dataset, Dataset]:
    """Partition into a train head and test tail (clips are iid by construction)."""
    if not 0 < n_test < len(dataset.pairs):
        raise ValueError(f"n_test must be in (0, {len(dataset.pairs)}), got {n_test}")
    train = Dataset(dataset.vocabulary, dataset.pairs[:-n_test], split="train")
    test = Dataset(dataset.vocabulary, dataset.pairs[-n_test:], split="test")
    return train, test


def render_token(tok: CaptionToken, vocab: Vocabulary) -> str:
    """One caption token as text: a word verbatim, a mention as ``[negator] surface``."""
    if isinstance(tok, Word):
        return tok.text
    surface = vocab.surface(tok.tag_id)
    return f"{tok.negator} {surface}" if tok.negated else surface


def render_caption(caption: Caption, vocab: Vocabulary) -> str:
    """Flat lowercase string: the rendered tokens joined by single spaces."""
    return " ".join([render_token(tok, vocab) for tok in caption.tokens])


def validate_dataset(dataset: Dataset, check_tag_consistency: bool = True) -> None:
    """Raise DatasetValidationError naming the first violated invariant."""
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
    for clip, caption in dataset.pairs:
        if clip.id in seen_ids:
            raise DatasetValidationError(f"duplicate clip id {clip.id}")
        seen_ids.add(clip.id)
        if d_a is None:
            d_a = clip.features.shape[0]
        if clip.features.shape != (d_a,):
            raise DatasetValidationError(
                f"clip {clip.id}: feature dimension {clip.features.shape} != ({d_a},)"
            )
        if not np.all(np.isfinite(clip.features)):
            raise DatasetValidationError(f"clip {clip.id}: features must be finite")
        if not clip.tag_ids:
            raise DatasetValidationError(f"clip {clip.id}: tag set must be nonempty")
        if not all(0 <= t < n_tags for t in clip.tag_ids):
            raise DatasetValidationError(f"clip {clip.id}: tag id out of range")
        mentions = caption.mentions()
        if not mentions:
            raise DatasetValidationError(f"clip {clip.id}: caption has no tag mention")
        for m in mentions:
            if not 0 <= m.tag_id < n_tags:
                raise DatasetValidationError(f"clip {clip.id}: caption tag id out of range")
            if m.negated and m.negator not in vocab.negators:
                raise DatasetValidationError(
                    f"clip {clip.id}: negator {m.negator!r} not in vocabulary"
                )
        plain = caption.plain_tag_ids()
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


def _token_from_json(obj: dict) -> CaptionToken:
    if "w" in obj:
        return Word(str(obj["w"]))
    if "t" in obj:
        neg = obj.get("neg")
        return TagMention(int(obj["t"]), negated=neg is not None, negator=neg)
    raise ValueError(f"unrecognized caption token {obj!r}")


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the JSONL layout: a header line, then one pair per line.

    Floats are serialized via repr and round-trip exactly, so
    load(save(d)) == d.
    """
    if not dataset.pairs:
        raise ValueError("refusing to save an empty dataset")
    vocab = dataset.vocabulary
    d_a = int(dataset.pairs[0][0].features.shape[0])
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "n_tags": len(vocab.tags),
        "d_a": d_a,
        "negators": list(vocab.negators),
        "tags": list(vocab.surfaces),
        "split": dataset.split,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(header) + "\n")
        for clip, caption in dataset.pairs:
            record = {
                "id": clip.id,
                "tags": sorted(clip.tag_ids),
                "features": [float(x) for x in clip.features],
                "caption": [_token_to_json(t) for t in caption.tokens],
            }
            f.write(json.dumps(record) + "\n")


def load_dataset(path: str | Path, check_tag_consistency: bool = True) -> Dataset:
    """Parse and validate a dataset file written by save_dataset."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetParseError("empty file", line_number=1)

    def parse_line(idx: int) -> dict:
        try:
            obj = json.loads(lines[idx])
        except json.JSONDecodeError as e:
            raise DatasetParseError(str(e), line_number=idx + 1) from e
        if not isinstance(obj, dict):
            raise DatasetParseError("expected a JSON object", line_number=idx + 1)
        return obj

    header = parse_line(0)
    if header.get("format") != DATASET_FORMAT:
        raise DatasetParseError(f"bad format marker {header.get('format')!r}", line_number=1)
    if header.get("version") != DATASET_VERSION:
        raise DatasetParseError(f"unsupported version {header.get('version')!r}", line_number=1)
    try:
        surfaces = [str(s) for s in header["tags"]]
        negators = tuple(str(s) for s in header["negators"])
        d_a = int(header["d_a"])
        n_tags = int(header["n_tags"])
        split = str(header.get("split", "train"))
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetParseError(f"bad header: {e}", line_number=1) from e
    if len(surfaces) != n_tags:
        raise DatasetParseError("header n_tags does not match tag list", line_number=1)
    vocab = Vocabulary(tags=tuple(Tag(i, s) for i, s in enumerate(surfaces)), negators=negators)

    pairs: list[tuple[AudioClip, Caption]] = []
    for idx in range(1, len(lines)):
        obj = parse_line(idx)
        try:
            clip = AudioClip(
                id=int(obj["id"]),
                features=np.asarray(obj["features"], dtype=np.float64),
                tag_ids=frozenset(int(t) for t in obj["tags"]),
            )
            caption = Caption(tokens=tuple(_token_from_json(t) for t in obj["caption"]))
        except (KeyError, TypeError, ValueError) as e:
            raise DatasetParseError(f"bad pair record: {e}", line_number=idx + 1) from e
        if clip.features.ndim != 1 or clip.features.shape[0] != d_a:
            raise DatasetValidationError(
                f"line {idx + 1}: feature dimension {clip.features.shape} != ({d_a},)"
            )
        pairs.append((clip, caption))

    dataset = Dataset(vocabulary=vocab, pairs=pairs, split=split)
    validate_dataset(dataset, check_tag_consistency=check_tag_consistency)
    return dataset
