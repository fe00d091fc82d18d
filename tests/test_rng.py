"""Labelled stream fan-out: reproducible, independent, and keyed."""

import numpy as np
import pytest

from edgefed.rng import STREAMS, keyed_stream, substream


def test_substream_is_reproducible():
    a = substream(42, "data").random(8)
    b = substream(42, "data").random(8)
    assert np.array_equal(a, b)


def test_labels_are_independent():
    draws = {label: substream(7, label).random(4).tolist() for label in STREAMS}
    flat = [tuple(v) for v in draws.values()]
    assert len(set(flat)) == len(flat)


def test_seeds_change_every_stream():
    for label in STREAMS:
        assert not np.array_equal(
            substream(1, label).random(4), substream(2, label).random(4)
        )


def test_unknown_label_raises():
    with pytest.raises(KeyError):
        substream(1, "weather")
    with pytest.raises(KeyError, match="unknown stream label 'nope'"):
        keyed_stream(1, "nope", 3)


def test_keyed_stream_distinguishes_entities():
    a = keyed_stream(5, "data", 0).random(4)
    b = keyed_stream(5, "data", 1).random(4)
    again = keyed_stream(5, "data", 0).random(4)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)


def test_keyed_stream_does_not_collide_with_substream():
    plain = substream(5, "data").random(4)
    keyed = keyed_stream(5, "data", 0).random(4)
    assert not np.array_equal(plain, keyed)
