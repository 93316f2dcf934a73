"""Gathering, joining and comparing ``CaptionIds`` for tests that lay out a step's captions by hand."""

import numpy as np

from negclap.model import CaptionIds


def take_ids(ids, captions):
    """The captions of ``ids`` at ``captions``, in that order."""
    pooled = (2 * np.asarray(captions)[:, None] + np.arange(2)).ravel()
    lens = ids.lens[pooled]
    starts = (np.cumsum(ids.lens) - ids.lens)[pooled]
    rows = [ids.rows[a:a + n] for a, n in zip(starts.tolist(), lens.tolist())]
    return CaptionIds(np.concatenate([ids.rows[:0], *rows]), lens)


def concat_ids(parts):
    """The captions of ``parts``, one part after another."""
    return CaptionIds(np.concatenate([p.rows for p in parts]),
                      np.concatenate([p.lens for p in parts]))


def stepwise(blocks, step):
    """The captions of the equally long ``blocks`` in step order: per run of ``step``
    consecutive captions, that run of every block, one block after another."""
    return concat_ids([take_ids(block, np.arange(a, a + step))
                       for a in range(0, len(blocks[0]), step) for block in blocks])


def assert_same_ids(got, want, what=""):
    for field in ("rows", "lens"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f"{what}.{field}"
