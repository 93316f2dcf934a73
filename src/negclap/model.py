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

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import Caption, TagMention, TokenIds, Vocabulary, _spans, _starts, tokenize
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
TABLE_FIELDS = ("unigram_table", "bigram_table")
DENSE_FIELDS = tuple(n for n in PARAM_FIELDS if n not in TABLE_FIELDS)
# the flat dense vector holds the text tower's fields, then the audio tower's
# from this field on, then log_temperature as its last entry
_AUDIO_FIELD = DENSE_FIELDS.index("audio_hidden_w")


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


@lru_cache(maxsize=16)
def _dense_layout(dims: ModelDims) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every dense parameter in the flat vector."""
    layout, start = [], 0
    for name in DENSE_FIELDS:
        shape = param_shapes(dims)[name]
        layout.append((name, start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return tuple(layout)


def dense_size(dims: ModelDims) -> int:
    """Number of entries of the flat dense vector."""
    return _dense_layout(dims)[-1][2]


def _dense_views(dims: ModelDims, flat: np.ndarray) -> dict[str, np.ndarray]:
    return {name: flat[a:b].reshape(shape) for name, a, b, shape in _dense_layout(dims)}


def _view(name: str) -> property:
    """A parameter-named view into a buffer; assigning to it writes into the buffer."""
    def set_values(self, value):
        view = self._views[name]
        if value is not view:  # ``+=`` on the view has already updated it in place
            view[...] = value

    return property(lambda self: self._views[name], set_values, doc=f"{name}, a buffer view")


class _DenseViews:
    """The dense parameters' names, as views into a flat vector held in ``_views``."""
    _views: dict[str, np.ndarray]

    text_hidden_w = _view("text_hidden_w")
    text_hidden_b = _view("text_hidden_b")
    text_out_w = _view("text_out_w")
    text_out_b = _view("text_out_b")
    audio_hidden_w = _view("audio_hidden_w")
    audio_hidden_b = _view("audio_hidden_b")
    audio_out_w = _view("audio_out_w")
    audio_out_b = _view("audio_out_b")
    log_temperature = _view("log_temperature")  # shape ()


class ModelParams(_DenseViews):
    """Every weight of the model, held in two buffers.

    ``tables`` is one ``(2 * hash_buckets, d_t)`` table: the unigram buckets
    are its first half and the bigram buckets its second.  ``dense`` is one
    float64 vector holding the other parameters back to back, in
    ``DENSE_FIELDS`` order.  Each parameter is also readable by its name as
    a view into its buffer, so writing through a view updates the model and
    an optimizer can update all dense parameters in one pass over ``dense``.
    """

    def __init__(self, dims: ModelDims, seed: int, tables: np.ndarray, dense: np.ndarray):
        H = dims.hash_buckets
        if tables.shape != (2 * H, dims.d_t) or dense.shape != (dense_size(dims),):
            raise ValueError(f"buffers of shape {tables.shape} and {dense.shape} "
                             f"do not match {dims}")
        self.dims, self.seed, self.tables, self.dense = dims, seed, tables, dense
        self._views = {"unigram_table": tables[:H], "bigram_table": tables[H:],
                       **_dense_views(dims, dense)}

    unigram_table = _view("unigram_table")
    bigram_table = _view("bigram_table")

    def items(self):
        for name in PARAM_FIELDS:
            yield name, self._views[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.seed, self.tables.copy(), self.dense.copy())


@dataclass
class RowGrad:
    """Gradient of a hash table that is zero outside ``rows``.

    ``rows`` holds the sorted, unique table rows a batch's tokens hit (a row
    whose summed value is exactly zero still counts as hit); ``values`` is
    the ``(len(rows), d_t)`` gradient on those rows.
    """
    rows: np.ndarray
    values: np.ndarray


class ParamGrads(_DenseViews):
    """Gradients of every parameter, laid out like ``ModelParams``.

    ``table`` is the row-sparse gradient of ``ModelParams.tables`` (see
    ``RowGrad``).  ``dense`` is laid out like ``ModelParams.dense``, and each
    dense gradient is also readable by its parameter name as a view into it;
    the views are made when a name is first read, since a training step
    reads none.
    """

    def __init__(self, dims: ModelDims, table: RowGrad, dense: np.ndarray):
        self.dims, self.table, self.dense = dims, table, dense

    @cached_property
    def _views(self) -> dict[str, np.ndarray]:
        return _dense_views(self.dims, self.dense)


def init_params(dims: ModelDims, seed: int,
                init_scale: float = DEFAULT_INIT_SCALE) -> ModelParams:
    """Gaussian weights and tables, zero biases, ln(14.3) temperature.

    The embedding tables draw at DEFAULT_TABLE_SCALE, separately from the
    affine weights' init_scale: rows the corpus never touches keep their
    init magnitude forever, and their size is what an untrained model
    "hears" when a caption gains unseen tokens.  One draw fills the joint
    table; it equals a unigram then a bigram draw of half the size.
    """
    rng = seeded_rng(seed, 0)
    tables = rng.normal(0.0, DEFAULT_TABLE_SCALE, size=(2 * dims.hash_buckets, dims.d_t))
    params = ModelParams(dims, seed, tables, np.zeros(dense_size(dims)))
    for name in ("text_hidden_w", "text_out_w", "audio_hidden_w", "audio_out_w"):
        weight = getattr(params, name)
        weight[...] = rng.normal(0.0, init_scale, size=weight.shape)
    params.log_temperature[...] = LOG_TEMPERATURE_INIT
    return params


def hash_bucket(token: str, n_buckets: int) -> int:
    """The bucket of ``token``: its 32-bit hash state after its UTF-8 bytes, mod ``n_buckets``.

    The scalar definition; ``TokenTable.ids`` runs the same arithmetic on
    arrays (``_hash_states``).
    """
    h = _HASH_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return h % n_buckets


def _utf8_columns(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Byte j of string i's UTF-8 text at ``[j, i]`` of a uint64 matrix, 0 past its
    end, and each string's byte count."""
    encoded = [s.encode("utf-8") for s in strings]
    n_bytes = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = int(n_bytes.max(initial=1))
    rows = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return np.ascontiguousarray(rows.T, dtype=np.uint64), n_bytes


def _hash_states(states: np.ndarray, columns: np.ndarray, n_bytes: np.ndarray) -> np.ndarray:
    """``hash_bucket``'s states run on from ``states[i]`` over the first ``n_bytes[i]``
    bytes of column i of ``columns`` (see ``_utf8_columns``).

    A state stays below 2**32 and the multiplier too, so no product wraps.
    """
    for j, byte in enumerate(columns):
        states = np.where(j < n_bytes, ((states ^ byte) * _HASH_MULTIPLIER) & 0xFFFFFFFF, states)
    return states


# bucket ids are stored this narrow; a table of 2**31 rows would not fit in memory
_ID_DTYPE = np.int32
# captions per chunk of ``TokenTable.ids``: their kinds expand into tokens and
# their bigrams hash this many captions at a time
_IDS_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class CaptionIds:
    """Bucket ids of a sequence of captions as rows of the joint table, in CSR form.

    Caption i owns pooled rows 2i and 2i + 1: its unigram buckets, then its
    bigram buckets plus ``n_buckets``, so every id is a row of
    ``ModelParams.tables``.  ``rows`` holds the pooled rows' ids, one pooled
    row after another, and ``lens`` the 2B pooled rows' lengths; a caption
    of n tokens has max(n - 1, 0) bigrams.
    """
    rows: np.ndarray
    lens: np.ndarray

    def __len__(self) -> int:
        return len(self.lens) // 2

    def batches(self, size: int) -> Iterator["CaptionIds"]:
        """Runs of ``size`` consecutive captions, the last one possibly shorter, as views."""
        at = np.concatenate(([0], np.cumsum(self.lens)))
        for a in range(0, len(self), size):
            b = min(a + size, len(self))
            yield CaptionIds(self.rows[at[2 * a]:at[2 * b]], self.lens[2 * a:2 * b])


class TokenTable:
    """Captions as kinds of one vocabulary and word list, and kinds as bucket ids.

    The kinds are those of ``Dataset``: ``mention[t, 0]`` is tag t's plain
    mention, ``mention[t, 1 + n]`` its mention under negator n, and the
    kinds of ``words`` follow.  Each kind is tokenized, and each distinct
    token hashed, once, when the table is made.  A caption's tokens are its
    kinds' tokens in order, which equals tokenizing its text (its kinds'
    texts joined by spaces) since ``tokenize`` splits on whitespace.
    """

    def __init__(self, vocab: Vocabulary, words: Sequence[str] = ()):
        self.vocab, self.words = vocab, tuple(words)
        stride = 1 + len(vocab.negators)
        self.mention = np.arange(len(vocab) * stride).reshape(len(vocab), stride)
        kind = np.arange(self.mention.size + len(self.words))
        # per kind: its tag id (-1 for a word), and whether it is a plain mention
        self._tag = np.where(kind < self.mention.size, kind // stride, -1)
        self._plain = (self._tag >= 0) & (kind % stride == 0)
        pieces = [*vocab.mention_tokens, *map(tokenize, self.words)]
        strings = list(dict.fromkeys(itertools.chain.from_iterable(pieces)))
        token_id = {token: i for i, token in enumerate(strings)}
        self._kind_len = np.fromiter(map(len, pieces), np.intp, len(pieces))
        self._kind_at = _starts(self._kind_len)
        self._kind_ids = np.array([token_id[t] for piece in pieces for t in piece], np.int64)
        self._columns, self._n_bytes = _utf8_columns(strings)
        self._states = _hash_states(np.full(len(strings), _HASH_OFFSET, np.uint64),
                                    self._columns, self._n_bytes)
        # a bigram's hash runs on from its first token's state over the joining space
        self._spaced = ((self._states ^ ord(" ")) * _HASH_MULTIPLIER) & 0xFFFFFFFF

    def tags(self, slots: TokenIds) -> tuple[np.ndarray, np.ndarray]:
        """Per slot: its kind's tag id (-1 for a word), and whether it is a plain mention."""
        return self._tag[slots.ids], self._plain[slots.ids]

    def ids(self, slots: TokenIds, n_buckets: int) -> CaptionIds:
        """Bucket ids over ``n_buckets`` buckets of captions given as kinds.

        A caption's tokens are its kinds' tokens, in order.  A token's
        unigram bucket is ``hash_bucket`` of its string.  The captions go
        through in chunks of ``_IDS_CHUNK``: a chunk's kinds expand into
        token ids, and each adjacent pair's bigram bucket is that of the two
        strings joined by a space, hashed once per distinct pair of the
        chunk: the first token's state runs on over the space and the
        second token's bytes, so no pair string is built.  Each chunk's
        unigram and bigram runs are interleaved into the ``CaptionIds``
        layout and written into the output, sized in advance, so the
        temporaries stay per chunk.
        """
        kind_len, kind_ids, kind_at = self._kind_len, self._kind_ids, self._kind_at
        unigram = (self._states % n_buckets).astype(_ID_DTYPE)
        # a caption's token count: the summed lengths of its kinds' pieces
        slot_at = np.concatenate(([0], np.cumsum(slots.lens)))
        token_end = np.concatenate(([0], np.cumsum(kind_len[slots.ids])))
        n_tokens = np.diff(token_end[slot_at])
        lens = np.stack((n_tokens, np.maximum(n_tokens - 1, 0)), axis=1).ravel()
        row_at = np.concatenate(([0], np.cumsum(lens)))
        rows = np.empty(row_at[-1], _ID_DTYPE)
        for a in range(0, len(slots), _IDS_CHUNK):
            b = min(a + _IDS_CHUNK, len(slots))
            kinds = slots.ids[slot_at[a]:slot_at[b]]
            t = kind_ids[_spans(kind_at[kinds], kind_len[kinds])]
            chunk = n_tokens[a:b]
            # token j and token j + 1 form a pair unless token j ends its caption
            paired = np.ones(max(len(t) - 1, 0), dtype=bool)
            ends = np.cumsum(chunk) - 1
            paired[ends[(chunk > 0) & (ends < len(paired))]] = False
            keys, inverse = np.unique(((t[:-1] << 32) | t[1:])[paired], return_inverse=True)
            first, second = keys >> 32, keys & 0xFFFFFFFF
            buckets = _hash_states(self._spaced[first], self._columns[:, second],
                                   self._n_bytes[second])
            buckets = (buckets % n_buckets).astype(_ID_DTYPE)
            # caption i's unigram run, then its bigram run in the table's second half
            runs = lens[2 * a:2 * b]
            starts = np.stack((_starts(runs[0::2]), len(t) + _starts(runs[1::2])), axis=1).ravel()
            ids = np.concatenate((unigram[t], buckets[inverse] + n_buckets))
            rows[row_at[2 * a]:row_at[2 * b]] = ids[_spans(starts, runs)]
        return CaptionIds(rows, lens)


@dataclass
class TextBatchCache:
    ids: np.ndarray     # rows of ``ModelParams.tables`` the tokens hit (``CaptionIds.rows``)
    lens: np.ndarray    # (2B,) pooled-row lengths: caption i's unigrams at 2i, bigrams at 2i + 1
    counts: np.ndarray  # (2B,) the divisor of each pooled row
    x: np.ndarray
    h: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


@dataclass
class AudioBatchCache:
    feats: np.ndarray
    h: np.ndarray
    norms: np.ndarray
    emb: np.ndarray


def _mlp_forward(x, w1, b1, w2, b2):
    """Hidden activations, pre-normalization norms and unit embeddings.

    Raises ``FloatingPointError`` when a norm is zero or not finite (a
    diverged model overflows there), since the embedding would then be
    meaningless.
    """
    h = np.tanh(x @ w1 + b1)
    o = h @ w2 + b2
    norms = np.sqrt(np.add.reduce(o * o, axis=1, keepdims=True))  # np.linalg.norm's arithmetic
    if len(norms):
        low, high = np.minimum.reduce(norms, axis=None), np.maximum.reduce(norms, axis=None)
        if not 0.0 < low <= high < math.inf:
            raise FloatingPointError(
                "embedding norms before normalization must be finite and positive, "
                f"got values in [{low:g}, {high:g}]")
    return h, norms, o / norms


def _mlp_backward(x, h, norms, emb, d_emb, w2):
    """Gradients of the MLP's parameters, and of its hidden pre-activations."""
    # normalization: d_o = (d_emb - (d_emb . emb) emb) / ||o||
    proj = np.add.reduce(d_emb * emb, axis=1, keepdims=True)
    d_o = (d_emb - proj * emb) / norms
    d_w2 = h.T @ d_o
    d_b2 = np.add.reduce(d_o, axis=0)
    d_h = d_o @ w2.T
    d_pre = d_h * (1.0 - h * h)
    d_w1 = x.T @ d_pre
    d_b1 = np.add.reduce(d_pre, axis=0)
    return d_pre, d_w1, d_b1, d_w2, d_b2


def _scatter_rows(index: np.ndarray, values: np.ndarray, n_out: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` for i in order, into zeros of shape (n_out, d).

    Byte-identical to ``np.add.at``: ``np.bincount`` adds its weights one
    after another in index order, so every output entry sees the same
    additions in the same order.  Builds a flat int index of
    ``values.size`` entries.
    """
    d = values.shape[1]
    flat = np.repeat(index * d, d)
    flat.reshape(-1, d)[...] += np.arange(d)
    return np.bincount(flat, weights=values.ravel(), minlength=n_out * d).reshape(n_out, d)


# pooled rows per chunk of the forward, so a chunk's temporaries stay small
# at evaluation batch sizes
_POOL_CHUNK = 64


def _pool_rows(table: np.ndarray, ids: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum of ``table[ids]`` in runs: pooled row r sums the next ``lens[r]`` ids.

    Every pooled row is 0.0 plus its table rows, added one after another in
    ``ids`` order, so the result is byte-identical to ``np.add.at``.  A chunk
    of pooled rows gathers its table rows into a ``(width, rows, d)`` block
    padded with 0.0 and sums it from 0.0 over its first axis, which numpy
    adds one slice after another.  The padding adds 0.0 to a running sum
    that, having started at 0.0, is never -0.0, and ``v + 0.0 == v`` for
    every other v.  A chunk of one row is scattered instead, since numpy
    would sum a one-column table's lone row pairwise; so is a chunk whose
    padding would more than double its block, so no chunk holds much more
    than its rows.
    """
    n_out = len(lens)
    x = np.empty((n_out, table.shape[1]))
    at = np.concatenate(([0], np.cumsum(lens)))
    # a lone last row joins the chunk before it, so only n_out == 1 makes a one-row chunk
    edges = [0, *range(_POOL_CHUNK, n_out - 1, _POOL_CHUNK), n_out]
    for r0, r1 in zip(edges, edges[1:]):
        a, b = at[r0], at[r1]
        chunk = lens[r0:r1]
        width = np.maximum.reduce(chunk)
        if r1 - r0 == 1 or width * (r1 - r0) > 2 * (b - a):
            owner = np.repeat(np.arange(r1 - r0), chunk)
            x[r0:r1] = _scatter_rows(owner, table[ids[a:b]], r1 - r0)
            continue
        pad = np.arange(width)[:, None] >= chunk  # slot j of pooled row r is padding
        index = np.zeros(pad.shape, dtype=np.intp)
        index.T[~pad.T] = ids[a:b]  # pooled row r's ids fill index[:lens[r], r], in order
        g = table.take(index, axis=0)
        g[pad] = 0.0
        np.add.reduce(g, axis=0, initial=0.0, out=x[r0:r1])
    return x


def encode_token_lists(params: ModelParams,
                       ids: CaptionIds) -> tuple[np.ndarray, TextBatchCache]:
    """Batch text forward over captions given as bucket ids (see ``TokenTable.ids``).

    One pooling pass over the joint table sums each caption's unigram rows
    into pooled row 2i and its bigram rows into row 2i + 1; the input is
    the unigram mean plus the bigram mean.
    """
    if len(ids) == 0:
        raise ValueError("empty batch")
    n_unigrams = ids.lens[0::2]
    if not n_unigrams.all():
        raise ValueError(f"item {int(np.argmin(n_unigrams))}: caption renders to no tokens")
    counts = np.maximum(ids.lens, 1).astype(np.float64)
    pooled = _pool_rows(params.tables, ids.rows, ids.lens)
    pooled /= counts[:, None]
    x = pooled[0::2] + pooled[1::2]
    h, norms, emb = _mlp_forward(
        x, params.text_hidden_w, params.text_hidden_b, params.text_out_w, params.text_out_b
    )
    return emb, TextBatchCache(ids.rows, ids.lens, counts, x, h, norms, emb)


def caption_kinds(captions: Sequence[Caption],
                  vocab: Vocabulary) -> tuple[TokenTable, TokenIds]:
    """A table over ``vocab`` and the captions' words, and the captions as its kinds:
    the route from ``Caption`` objects, such as ``Dataset.pairs`` holds, to ``ids``."""
    stride = 1 + len(vocab.negators)
    negator = {n: 1 + i for i, n in enumerate(vocab.negators)}
    words: dict[str, int] = {}
    kinds = [token.tag_id * stride + negator.get(token.negator, 0)
             if isinstance(token, TagMention)
             else len(vocab) * stride + words.setdefault(token.text, len(words))
             for caption in captions for token in caption.tokens]
    lens = [len(caption.tokens) for caption in captions]
    return TokenTable(vocab, words), TokenIds(np.array(kinds, np.intp), np.array(lens, np.intp))


def encode_text_batch(params: ModelParams, captions: Sequence[Caption],
                      vocab: Vocabulary) -> tuple[np.ndarray, TextBatchCache]:
    """``encode_token_lists`` over ``Caption`` objects (see ``caption_kinds``)."""
    table, slots = caption_kinds(captions, vocab)
    return encode_token_lists(params, table.ids(slots, params.dims.hash_buckets))


def encode_audio_batch(params: ModelParams,
                       features: np.ndarray) -> tuple[np.ndarray, AudioBatchCache]:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != params.dims.d_a:
        raise ValueError(f"audio features must be (B, {params.dims.d_a}), got {feats.shape}")
    h, norms, emb = _mlp_forward(
        feats, params.audio_hidden_w, params.audio_hidden_b,
        params.audio_out_w, params.audio_out_b,
    )
    return emb, AudioBatchCache(feats, h, norms, emb)


def _upstream(cache, d_emb) -> np.ndarray:
    d_emb = np.asarray(d_emb, dtype=np.float64)
    if d_emb.shape != cache.emb.shape:
        raise ValueError(f"upstream gradient shape {d_emb.shape} != {cache.emb.shape}")
    return d_emb


def model_backward(
    params: ModelParams,
    text: tuple[TextBatchCache, np.ndarray] | None = None,
    audio: tuple[AudioBatchCache, np.ndarray] | None = None,
) -> ParamGrads:
    """Exact parameter gradients for at most one forward pass per tower.

    Each pass pairs a forward cache with the upstream gradient on its
    embeddings.  The dense gradient is one concatenation of the two towers'
    gradients, zeros for a tower without a pass; the table's gradient comes
    back row-sparse (see ``RowGrad``), each row summed in caption order and,
    within a caption, token order (unigram and bigram ids hit disjoint
    halves of the table).  log_temperature is not on any encoder path and
    gets a 0.0 entry here.
    """
    layout = _dense_layout(params.dims)
    audio_at, temperature_at = layout[_AUDIO_FIELD][1], layout[-1][1]
    text_grads, audio_grads = [np.zeros(audio_at)], [np.zeros(temperature_at - audio_at)]
    table = RowGrad(np.empty(0, np.intp), np.empty((0, params.dims.d_t)))
    if text is not None:
        cache, d_emb = text
        d_pre, *d_dense = _mlp_backward(cache.x, cache.h, cache.norms, cache.emb,
                                        _upstream(cache, d_emb), params.text_out_w)
        text_grads = [g.ravel() for g in d_dense]
        d_x = d_pre @ params.text_hidden_w.T
        d_pooled = (d_x[:, None] / cache.counts.reshape(-1, 2, 1)).reshape(len(cache.counts), -1)
        # the rows hit, sorted, and each id's place among them, from marks
        # over the table's rows rather than a sort of the ids
        hit = np.zeros(len(params.tables), dtype=bool)
        hit[cache.ids] = True
        rows = np.flatnonzero(hit)
        place = np.empty(len(params.tables), dtype=np.intp)
        place[rows] = np.arange(len(rows))
        table = RowGrad(rows, _scatter_rows(place[cache.ids],
                                            np.repeat(d_pooled, cache.lens, axis=0), len(rows)))
    if audio is not None:
        cache, d_emb = audio
        _, *d_dense = _mlp_backward(cache.feats, cache.h, cache.norms, cache.emb,
                                    _upstream(cache, d_emb), params.audio_out_w)
        audio_grads = [g.ravel() for g in d_dense]
    return ParamGrads(params.dims, table,
                      np.concatenate((*text_grads, *audio_grads, np.zeros(1))))


def save_checkpoint(path: str | Path, params: ModelParams) -> None:
    """Header line, then per-parameter JSON meta + float32 little-endian payload.

    Raises ``ValueError`` naming the parameter, before the file is opened,
    when a value is not finite in float32 (a diverged run overflows there),
    since ``load_checkpoint`` would refuse the file.
    """
    payloads = {}
    for name, arr in params.items():
        with np.errstate(over="ignore"):  # overflow is reported just below
            arr32 = np.asarray(arr, dtype=np.float64).astype("<f4")
        if not np.isfinite(arr32).all():
            raise ValueError(f"cannot save checkpoint {path}: parameter {name!r} "
                             "holds values that are not finite in float32")
        payloads[name] = arr32
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
        for name, arr32 in payloads.items():
            meta = {"name": name, "shape": list(arr32.shape)}
            f.write(json.dumps(meta).encode("utf-8") + b"\n")
            f.write(arr32.tobytes(order="C"))
            f.write(b"\n")


def _read_at_most(f, size: int) -> bytes:
    """The next ``size`` bytes of ``f`` or all that are left, read in 1 MiB chunks
    so a claim larger than the file or pipe allocates only what the input holds."""
    parts = []
    while size > 0 and (part := f.read(min(size, 1 << 20))):
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``.

    The header must hold the format marker, the version as a JSON integer,
    positive integer dims and hash_buckets and an integer seed; every block
    must have the shape those dims give, be whole (a block is read in
    chunks, so a claim longer than the file or pipe is refused without
    allocating it), and hold finite values.  Any violation, a line nested
    too deep for the JSON decoder included, raises ``ValueError`` naming
    the file and the field.
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
            size = 4 * math.prod(shape)
            payload = _read_at_most(f, size)
            if len(payload) != size:
                raise bad(f"truncated payload for {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
            if not np.isfinite(arr).all():
                raise bad(f"{name!r} holds non-finite values")
            arrays[name] = arr
            if f.read(1) != b"\n":
                raise bad(f"missing block terminator after {name!r}")
        if f.read(1):
            raise bad("trailing bytes after the last block")
    # the buffers are allocated only once every block has been read and checked
    params = ModelParams(dims, seed, np.empty((2 * dims.hash_buckets, dims.d_t)),
                         np.empty(dense_size(dims)))
    for name, arr in arrays.items():
        getattr(params, name)[...] = arr
    return params
