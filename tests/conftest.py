import os

import numpy as np
import pytest
from hypothesis import settings

from negclap.corpus import Caption, TagMention, Vocabulary, Word
from negclap.model import ModelDims, init_params

# a CI run (GitHub sets CI) draws the same examples every time, so a red run
# replays locally with CI=1
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

SONG_WORDS = ("rock", "guitar", "bass", "pop", "drums", "piano", "jazz", "synth")


@pytest.fixture
def song_vocab():
    """Small vocabulary whose first tags match the worked caption examples."""
    return Vocabulary(SONG_WORDS, negators=("not", "no", "without"))


@pytest.fixture
def tune_caption():
    """'a rock tune with guitar and bass' over song_vocab ids (0, 1, 2)."""
    return Caption(tokens=(
        Word("a"), TagMention(0), Word("tune"), Word("with"),
        TagMention(1), Word("and"), TagMention(2),
    ))


@pytest.fixture
def small_dims():
    return ModelDims(d_t=16, d_h=16, d=8, d_a=12, hash_buckets=64)


@pytest.fixture
def small_params(small_dims):
    params = init_params(small_dims, seed=11)
    # nonzero biases give a generic test point
    rng = np.random.default_rng(5)
    for name in ("text_hidden_b", "text_out_b", "audio_hidden_b", "audio_out_b"):
        arr = getattr(params, name)
        arr += rng.normal(0.0, 0.1, size=arr.shape)
    return params
