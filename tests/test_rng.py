"""Labelled stream fan-out: reproducible, independent, and keyed."""

import numpy as np
import pytest

from edgefed.rng import STREAMS, substream


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
        substream(1, "nope", 3)


def test_keyed_stream_distinguishes_entities():
    a = substream(5, "data", 0).random(4)
    b = substream(5, "data", 1).random(4)
    again = substream(5, "data", 0).random(4)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)


def test_keyed_stream_does_not_collide_with_substream():
    plain = substream(5, "data").random(4)
    keyed = substream(5, "data", 0).random(4)
    assert not np.array_equal(plain, keyed)


def test_substream_keys_are_the_seed_sequence_spawn_keys():
    # the stream map every emitted byte depends on: label index first, then
    # the entity key as a Python int, so a numpy integer key opens the same
    # stream as its int
    for label, index in STREAMS.items():
        for key in ((), (0,), (7,), (np.int64(7),)):
            ref = np.random.default_rng(
                np.random.SeedSequence(3, spawn_key=(index, *(int(k) for k in key)))
            )
            assert np.array_equal(substream(3, label, *key).random(4), ref.random(4))
