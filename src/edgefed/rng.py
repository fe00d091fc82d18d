"""Deterministic random-stream management.

A single scenario seed fans out into labelled, statistically independent
sub-streams so that changing, say, the scheduler policy never perturbs the
draws used for topology placement or feature synthesis.
"""

from __future__ import annotations

import numpy as np

# Fixed fan-out indices. Adding new labels at the end keeps old streams stable.
STREAMS = {
    "topology": 0,
    "data": 1,
    "scheduler": 2,
    "training": 3,
    "eval": 4,
    "iid": 5,
}


def _stream(seed: int, label: str, *key: int) -> np.random.Generator:
    try:
        index = STREAMS[label]
    except KeyError:
        raise KeyError(f"unknown stream label {label!r}") from None
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, *key)))


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the independent generator for one labelled stream.

    Args:
        seed: top-level scenario seed.
        label: one of the keys in ``STREAMS``.

    Returns:
        A ``numpy.random.Generator`` whose draws are independent of every
        other label's stream under the same seed.
    """
    return _stream(seed, label)


def keyed_stream(seed: int, label: str, key: int) -> np.random.Generator:
    """Generator for a per-entity child stream (for example one device).

    Entity keys under different labels never collide, so device feature
    draws are stable no matter how many other entities exist.
    """
    return _stream(seed, label, int(key))
