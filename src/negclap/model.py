"""Toy dual encoder over a shared unit-norm embedding space, with exact gradients.

Text side: hashed bag of unigrams plus bag of adjacent-pair bigrams (mean
pooled), then tanh-affine, affine, L2 normalization.  The bigram table is
what lets "not guitar" embed differently from "guitar" without any built-in
negation handling.  Audio side: tanh-affine, affine, L2 normalization over
the clip feature vector.

All arithmetic is float64; checkpoints store float32 payloads.  Backward
passes are hand-derived and validated against central finite differences in
the test suite.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import AudioClip, Caption, Vocabulary, Word, render_token
from .seeding import seeded_rng

CHECKPOINT_FORMAT = "negclap-ckpt"
CHECKPOINT_VERSION = 1

LOG_TEMPERATURE_INIT = math.log(14.3)
LOG_TEMPERATURE_MIN = 0.0
LOG_TEMPERATURE_MAX = math.log(100.0)
# 0.02 puts pre-normalization outputs near 1e-3; the 1/||o|| factor in the
# normalization backward then makes the first update collapse every
# embedding onto the output bias.  0.1 keeps ||o|| near 1.
DEFAULT_INIT_SCALE = 0.1
DEFAULT_TABLE_SCALE = 0.1

# Fixed multiplicative string hash (FNV offset basis, Knuth multiplier);
# deliberately not configurable so checkpoints stay portable.
_HASH_OFFSET = 0x811C9DC5
_HASH_MULTIPLIER = 2654435761


@dataclass(frozen=True)
class ModelDims:
    d_t: int = 64
    d_h: int = 64
    d: int = 32
    d_a: int = 64
    hash_buckets: int = 4096


PARAM_FIELDS = (
    "unigram_table",
    "bigram_table",
    "text_hidden_w",
    "text_hidden_b",
    "text_out_w",
    "text_out_b",
    "audio_hidden_w",
    "audio_hidden_b",
    "audio_out_w",
    "audio_out_b",
    "log_temperature",
)


@dataclass
class ModelParams:
    dims: ModelDims
    seed: int
    unigram_table: np.ndarray
    bigram_table: np.ndarray
    text_hidden_w: np.ndarray
    text_hidden_b: np.ndarray
    text_out_w: np.ndarray
    text_out_b: np.ndarray
    audio_hidden_w: np.ndarray
    audio_hidden_b: np.ndarray
    audio_out_w: np.ndarray
    audio_out_b: np.ndarray
    log_temperature: np.ndarray  # shape ()

    def items(self):
        for name in PARAM_FIELDS:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.dims, self.seed, *(getattr(self, n).copy() for n in PARAM_FIELDS)
        )


TABLE_FIELDS = ("unigram_table", "bigram_table")
DENSE_FIELDS = tuple(n for n in PARAM_FIELDS if n not in TABLE_FIELDS)


@dataclass
class RowGrad:
    """Gradient of a hash table that is zero outside ``rows``.

    ``rows`` holds the sorted, unique table rows a batch's tokens hit (a row
    whose summed value is exactly zero still counts as hit); ``values`` is
    the ``(len(rows), d_t)`` gradient on those rows.
    """
    rows: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, d_t: int) -> "RowGrad":
        return cls(np.empty(0, np.intp), np.empty((0, d_t)))


@dataclass
class ParamGrads:
    unigram_table: RowGrad
    bigram_table: RowGrad
    text_hidden_w: np.ndarray
    text_hidden_b: np.ndarray
    text_out_w: np.ndarray
    text_out_b: np.ndarray
    audio_hidden_w: np.ndarray
    audio_hidden_b: np.ndarray
    audio_out_w: np.ndarray
    audio_out_b: np.ndarray
    log_temperature: np.ndarray  # shape ()

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "ParamGrads":
        """Zero dense gradients and tables with no rows hit."""
        d_t = params.dims.d_t
        dense = {n: np.zeros_like(getattr(params, n)) for n in DENSE_FIELDS}
        return cls(unigram_table=RowGrad.empty(d_t), bigram_table=RowGrad.empty(d_t), **dense)

    def items(self):
        for name in PARAM_FIELDS:
            yield name, getattr(self, name)


def init_params(dims: ModelDims, seed: int, init_scale: float = DEFAULT_INIT_SCALE,
                table_scale: float | None = None) -> ModelParams:
    """Gaussian weights and tables, zero biases, ln(14.3) temperature.

    table_scale (default DEFAULT_TABLE_SCALE) controls the embedding tables
    separately from the affine weights: rows the corpus never touches keep
    their init magnitude forever, and their size is what an untrained model
    "hears" when a caption gains unseen tokens.
    """
    if table_scale is None:
        table_scale = DEFAULT_TABLE_SCALE
    rng = seeded_rng(seed, 0)

    def table(*shape):
        return rng.normal(0.0, table_scale, size=shape)

    def gauss(*shape):
        return rng.normal(0.0, init_scale, size=shape)

    return ModelParams(
        dims=dims,
        seed=seed,
        unigram_table=table(dims.hash_buckets, dims.d_t),
        bigram_table=table(dims.hash_buckets, dims.d_t),
        text_hidden_w=gauss(dims.d_t, dims.d_h),
        text_hidden_b=np.zeros(dims.d_h),
        text_out_w=gauss(dims.d_h, dims.d),
        text_out_b=np.zeros(dims.d),
        audio_hidden_w=gauss(dims.d_a, dims.d_h),
        audio_hidden_b=np.zeros(dims.d_h),
        audio_out_w=gauss(dims.d_h, dims.d),
        audio_out_b=np.zeros(dims.d),
        log_temperature=np.array(LOG_TEMPERATURE_INIT),
    )


def tokenize(rendered: str) -> list[str]:
    """Lowercase whitespace tokens with surrounding punctuation stripped."""
    tokens = []
    for raw in rendered.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(tok)
    return tokens


@lru_cache(maxsize=1 << 16)
def hash_bucket(token: str, n_buckets: int) -> int:
    h = _HASH_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return h % n_buckets


# One caption's tokens as bucket ids: the unigram bucket of every token in
# order, then the bigram bucket of every adjacent pair in order.
CaptionIds = tuple[list[int], list[int]]


class TokenIndex:
    """Bucket ids of captions over one vocabulary, each token string hashed once.

    Each distinct token string gets a small id and its unigram bucket when
    first seen; a bigram bucket is hashed when its pair of token ids first
    occurs.  Each structured caption token (a ``Word``, or a ``TagMention``
    with its negator) is rendered and tokenized once, and a caption's token
    ids are its structured tokens' ids in order.  That equals tokenizing the
    rendered caption because ``render_caption`` joins the rendered tokens
    with a space and ``tokenize`` splits on whitespace.

    An index belongs to the one train or eval call that builds it.
    """

    def __init__(self, vocab: Vocabulary, n_buckets: int):
        self.vocab = vocab
        self.n_buckets = n_buckets
        self._token_ids: dict[str, int] = {}
        self._strings: list[str] = []
        self._unigram: list[int] = []
        self._bigram: dict[tuple[int, int], int] = {}
        self._pieces: dict[object, tuple[int, ...]] = {}
        self._kept: dict[int, tuple[Caption, CaptionIds]] = {}

    def _token_id(self, token: str) -> int:
        tid = self._token_ids.get(token)
        if tid is None:
            tid = self._token_ids[token] = len(self._strings)
            self._strings.append(token)
            self._unigram.append(hash_bucket(token, self.n_buckets))
        return tid

    def _pair_bucket(self, pair: tuple[int, int]) -> int:
        a, b = pair
        bucket = self._bigram[pair] = hash_bucket(
            self._strings[a] + " " + self._strings[b], self.n_buckets)
        return bucket

    def _caption_ids(self, caption: Caption) -> CaptionIds:
        kept = self._kept.get(id(caption))
        if kept is not None:
            return kept[1]
        pieces = self._pieces
        ids: list[int] = []
        for tok in caption.tokens:
            key = tok.text if isinstance(tok, Word) else (tok.tag_id, tok.negator)
            piece = pieces.get(key)
            if piece is None:
                rendered = render_token(tok, self.vocab)
                piece = pieces[key] = tuple(map(self._token_id, tokenize(rendered)))
            ids += piece
        pairs = list(zip(ids, ids[1:]))
        bi = list(map(self._bigram.get, pairs))
        if None in bi:
            bi = [self._pair_bucket(p) if b is None else b for p, b in zip(pairs, bi)]
        return list(map(self._unigram.__getitem__, ids)), bi

    def ids(self, captions: Iterable[Caption]) -> list[CaptionIds]:
        """Each caption's bucket ids, in order."""
        return [self._caption_ids(c) for c in captions]

    def keep(self, captions: Iterable[Caption]) -> None:
        """Compute and hold the ids of these caption objects for later lookups.

        For captions encoded again and again within the call, such as a
        dataset's originals.  Entries are keyed by object ``id``; the index
        holds a reference to each caption, so no other object can take over
        that ``id`` while the index lives.
        """
        for c in captions:
            self._kept[id(c)] = (c, self._caption_ids(c))


@dataclass
class TextBatchCache:
    uni_rows: np.ndarray
    uni_idx: np.ndarray
    uni_counts: np.ndarray
    bi_rows: np.ndarray
    bi_idx: np.ndarray
    bi_counts: np.ndarray
    x: np.ndarray
    h: np.ndarray
    o: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


@dataclass
class AudioBatchCache:
    feats: np.ndarray
    h: np.ndarray
    o: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


def _mlp_forward(x, w1, b1, w2, b2):
    h = np.tanh(x @ w1 + b1)
    o = h @ w2 + b2
    norms = np.linalg.norm(o, axis=1, keepdims=True)
    emb = o / norms
    return h, o, norms, emb


def _mlp_backward(x, h, o, norms, emb, d_emb, w1, w2):
    # normalization: d_o = (d_emb - (d_emb . emb) emb) / ||o||
    proj = np.sum(d_emb * emb, axis=1, keepdims=True)
    d_o = (d_emb - proj * emb) / norms
    d_w2 = h.T @ d_o
    d_b2 = d_o.sum(axis=0)
    d_h = d_o @ w2.T
    d_pre = d_h * (1.0 - h * h)
    d_w1 = x.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_x = d_pre @ w1.T
    return d_x, d_w1, d_b1, d_w2, d_b2


def _scatter_rows(index: np.ndarray, values: np.ndarray, n_out: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` for i in order, into zeros of shape (n_out, d).

    Byte-identical to ``np.add.at``: ``np.bincount`` adds its weights one
    after another in index order, so every output entry sees the same
    additions in the same order.  Builds a flat int index of
    ``values.size`` entries.
    """
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_out * d).reshape(n_out, d)


# captions pooled per bincount in the forward, so the flat scatter index
# stays small at evaluation batch sizes
_POOL_CHUNK = 64


def _pool_rows(table: np.ndarray, bucket_ids: np.ndarray, owner: np.ndarray,
               n_out: int) -> np.ndarray:
    """Sum of ``table[bucket_ids[i]]`` into row ``owner[i]``; ``owner`` is nondecreasing."""
    if n_out <= _POOL_CHUNK:  # a single chunk: the training batches
        return _scatter_rows(owner, table[bucket_ids], n_out)
    x = np.empty((n_out, table.shape[1]))
    bounds = np.searchsorted(owner, np.arange(0, n_out + _POOL_CHUNK, _POOL_CHUNK))
    for r0, a, b in zip(range(0, n_out, _POOL_CHUNK), bounds, bounds[1:]):
        r1 = min(r0 + _POOL_CHUNK, n_out)
        x[r0:r1] = _scatter_rows(owner[a:b] - r0, table[bucket_ids[a:b]], r1 - r0)
    return x


def encode_token_lists(params: ModelParams,
                       token_lists: Sequence[CaptionIds]) -> tuple[np.ndarray, TextBatchCache]:
    """Batch text forward over tokenized captions given as bucket ids (see ``TokenIndex``)."""
    B = len(token_lists)
    if B == 0:
        raise ValueError("empty batch")
    uni_lens = [len(uni) for uni, _ in token_lists]
    bi_lens = [len(bi) for _, bi in token_lists]
    if 0 in uni_lens:
        raise ValueError(f"item {uni_lens.index(0)}: caption renders to no tokens")
    uni_counts = np.array(uni_lens, dtype=np.float64)
    bi_counts = np.array(bi_lens, dtype=np.float64)
    rows = np.arange(B)
    uni_rows = np.repeat(rows, uni_lens)
    uni_idx = np.fromiter(chain.from_iterable(uni for uni, _ in token_lists), np.intp,
                          len(uni_rows))
    bi_rows = np.repeat(rows, bi_lens)
    bi_idx = np.fromiter(chain.from_iterable(bi for _, bi in token_lists), np.intp,
                         len(bi_rows))

    x = _pool_rows(params.unigram_table, uni_idx, uni_rows, B)
    x /= uni_counts[:, None]
    if len(bi_idx):
        x_bi = _pool_rows(params.bigram_table, bi_idx, bi_rows, B)
        safe = np.maximum(bi_counts, 1.0)
        x += x_bi / safe[:, None]

    h, o, norms, emb = _mlp_forward(
        x, params.text_hidden_w, params.text_hidden_b, params.text_out_w, params.text_out_b
    )
    cache = TextBatchCache(uni_rows, uni_idx, uni_counts, bi_rows, bi_idx,
                           bi_counts, x, h, o, norms, emb)
    return emb, cache


def encode_text_batch(params: ModelParams, captions: Sequence[Caption],
                      vocab: Vocabulary) -> tuple[np.ndarray, TextBatchCache]:
    index = TokenIndex(vocab, params.dims.hash_buckets)
    return encode_token_lists(params, index.ids(captions))


def encode_audio_batch(params: ModelParams,
                       features: np.ndarray) -> tuple[np.ndarray, AudioBatchCache]:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != params.dims.d_a:
        raise ValueError(f"audio features must be (B, {params.dims.d_a}), got {feats.shape}")
    h, o, norms, emb = _mlp_forward(
        feats, params.audio_hidden_w, params.audio_hidden_b,
        params.audio_out_w, params.audio_out_b,
    )
    return emb, AudioBatchCache(feats, h, o, norms, emb)


def encode_text(params: ModelParams, caption: Caption, vocab: Vocabulary) -> np.ndarray:
    """Unit-norm embedding of one caption."""
    emb, _ = encode_text_batch(params, [caption], vocab)
    return emb[0]


def encode_audio(params: ModelParams, clip: AudioClip | np.ndarray) -> np.ndarray:
    """Unit-norm embedding of one clip (or raw feature vector)."""
    feats = clip.features if isinstance(clip, AudioClip) else np.asarray(clip, dtype=np.float64)
    if feats.ndim != 1 or feats.shape[0] != params.dims.d_a:
        raise ValueError(f"audio features must have dimension {params.dims.d_a}, got {feats.shape}")
    emb, _ = encode_audio_batch(params, feats[None, :])
    return emb[0]


def similarity(e1: np.ndarray, e2: np.ndarray) -> float:
    """Cosine similarity of two unit-norm embeddings (plain dot product)."""
    return float(np.dot(e1, e2))


def _row_grad(ids: list[np.ndarray], values: list[np.ndarray]) -> RowGrad:
    """Per-token table gradients of several passes, summed per row in pass then token order."""
    rows, inverse = np.unique(np.concatenate(ids), return_inverse=True)
    return RowGrad(rows, _scatter_rows(inverse, np.concatenate(values), len(rows)))


def model_backward(
    params: ModelParams,
    text_passes: Sequence[tuple[TextBatchCache, np.ndarray]] = (),
    audio_passes: Sequence[tuple[AudioBatchCache, np.ndarray]] = (),
) -> ParamGrads:
    """Exact parameter gradients for any number of forward passes.

    Each pass pairs a forward cache with the upstream gradient on its
    embeddings.  Accumulation order is fixed (text passes in order, then
    audio passes) for bitwise reproducibility.  The tables' gradients come
    back row-sparse (see ``RowGrad``).  log_temperature is not on any
    encoder path and keeps a zero entry here.
    """
    grads = ParamGrads.zeros_like(params)
    uni_ids, uni_vals, bi_ids, bi_vals = [], [], [], []
    for cache, d_emb in text_passes:
        d_emb = np.asarray(d_emb, dtype=np.float64)
        if d_emb.shape != cache.emb.shape:
            raise ValueError(f"upstream gradient shape {d_emb.shape} != {cache.emb.shape}")
        d_x, d_w1, d_b1, d_w2, d_b2 = _mlp_backward(
            cache.x, cache.h, cache.o, cache.norms, cache.emb, d_emb,
            params.text_hidden_w, params.text_out_w,
        )
        grads.text_hidden_w += d_w1
        grads.text_hidden_b += d_b1
        grads.text_out_w += d_w2
        grads.text_out_b += d_b2
        d_uni = d_x / cache.uni_counts[:, None]
        uni_ids.append(cache.uni_idx)
        uni_vals.append(d_uni[cache.uni_rows])
        d_bi = d_x / np.maximum(cache.bi_counts, 1.0)[:, None]
        bi_ids.append(cache.bi_idx)
        bi_vals.append(d_bi[cache.bi_rows])
    if text_passes:
        grads.unigram_table = _row_grad(uni_ids, uni_vals)
        grads.bigram_table = _row_grad(bi_ids, bi_vals)
    for cache, d_emb in audio_passes:
        d_emb = np.asarray(d_emb, dtype=np.float64)
        if d_emb.shape != cache.emb.shape:
            raise ValueError(f"upstream gradient shape {d_emb.shape} != {cache.emb.shape}")
        _, d_w1, d_b1, d_w2, d_b2 = _mlp_backward(
            cache.feats, cache.h, cache.o, cache.norms, cache.emb, d_emb,
            params.audio_hidden_w, params.audio_out_w,
        )
        grads.audio_hidden_w += d_w1
        grads.audio_hidden_b += d_b1
        grads.audio_out_w += d_w2
        grads.audio_out_b += d_b2
    return grads


def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    """Header line, then per-parameter JSON meta + float32 little-endian payload."""
    dims = params.dims
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": {"d_t": dims.d_t, "d_h": dims.d_h, "d": dims.d, "d_a": dims.d_a},
        "hash_buckets": dims.hash_buckets,
        "seed": params.seed,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for name, arr in params.items():
            arr = np.asarray(arr, dtype=np.float64)
            meta = {"name": name, "shape": list(arr.shape)}
            f.write(json.dumps(meta).encode("utf-8") + b"\n")
            f.write(arr.astype("<f4").tobytes(order="C"))
            f.write(b"\n")


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter array, by field name."""
    table = (dims.hash_buckets, dims.d_t)
    return {
        "unigram_table": table,
        "bigram_table": table,
        "text_hidden_w": (dims.d_t, dims.d_h),
        "text_hidden_b": (dims.d_h,),
        "text_out_w": (dims.d_h, dims.d),
        "text_out_b": (dims.d,),
        "audio_hidden_w": (dims.d_a, dims.d_h),
        "audio_hidden_b": (dims.d_h,),
        "audio_out_w": (dims.d_h, dims.d),
        "audio_out_b": (dims.d,),
        "log_temperature": (),
    }


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``.

    The header must hold the format marker, the version as a JSON integer,
    positive integer dims and hash_buckets and an integer seed; every block
    must have the shape those dims give and hold finite values.  Any
    violation, a line nested too deep for the JSON decoder included, raises
    ``ValueError`` naming the file and the field.
    """
    def bad(message: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {message}")

    def json_object(line: bytes, what: str) -> dict:
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or nested too deep
            raise bad(f"bad {what}: {e}") from e
        if not isinstance(obj, dict):
            raise bad(f"bad {what}: expected a JSON object")
        return obj

    def header_int(obj: dict, key: str, field: str, minimum: int | None = 1) -> int:
        if key not in obj:
            raise bad(f"header lacks {field!r}")
        value = obj[key]
        if type(value) is not int or (minimum is not None and value < minimum):
            kind = "an integer" if minimum is None else f"an integer >= {minimum}"
            raise bad(f"header field {field!r} must be {kind}, got {value!r}")
        return value

    with open(path, "rb") as f:
        header = json_object(f.readline(), "header")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise bad(f"bad format marker {header.get('format')!r}")
        if type(header.get("version")) is not int or header["version"] != CHECKPOINT_VERSION:
            raise bad(f"unsupported version {header.get('version')!r}")
        d = header.get("dims")
        if not isinstance(d, dict):
            raise bad("header field 'dims' must be an object" if "dims" in header
                      else "header lacks 'dims'")
        dims = ModelDims(**{k: header_int(d, k, f"dims.{k}") for k in ("d_t", "d_h", "d", "d_a")},
                         hash_buckets=header_int(header, "hash_buckets", "hash_buckets"))
        seed = header_int(header, "seed", "seed", minimum=None)
        arrays = {}
        for name, shape in param_shapes(dims).items():
            meta_line = f.readline()
            if not meta_line:
                raise bad(f"truncated: missing block for {name!r}")
            meta = json_object(meta_line, f"meta line for {name!r}")
            if meta.get("name") != name:
                raise bad(f"expected block {name!r}, found {meta.get('name')!r}")
            if meta.get("shape") != list(shape):
                raise bad(f"{name!r} has shape {meta.get('shape')!r}, "
                          f"but the header dims give {list(shape)}")
            count = math.prod(shape)
            payload = f.read(count * 4)
            if len(payload) != count * 4:
                raise bad(f"truncated payload for {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise bad(f"{name!r} holds non-finite values")
            arrays[name] = arr
            if f.read(1) != b"\n":
                raise bad(f"missing block terminator after {name!r}")
        if f.read(1):
            raise bad("trailing bytes after the last block")
    return ModelParams(dims=dims, seed=seed, **arrays)
