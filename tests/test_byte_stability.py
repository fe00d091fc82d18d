"""Pinned digests of the emitted artifacts that do not depend on BLAS.

``trace.csv``, ``plan.json`` and ``power.csv`` come from the population,
the scheduler and the power pricing, which are pure float64 element
operations and so repeat bit for bit on any machine. ``metrics.csv``
depends on BLAS's matmul blocking and ``summary.json`` records package
versions, so neither is pinned.

A change to any digest below is a byte change of the simulator's output: it
must be declared in CHANGES.md, with the files and the reason, in the same
change that re-pins it.
"""

import hashlib
from pathlib import Path

import pytest

from edgefed import federated
from edgefed.harness import ScenarioConfig, desk_config, emit, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"

PINNED = {
    "desk_seed_1": {
        "trace.csv": "d31adbc3392b12322634fd17bd9164ce2d1cc01a2d2d4ec4cdd90724bde8ad84",
        "plan.json": "ff520014765a9bb3276996a33c8092d4a3af3e6df7ff10124fe558e14ec9fec5",
        "power.csv": "21bb8a300658bff644e439d7cd903cc93487ff4f7d029331ea7dd5ba561bed74",
    },
    "full_offload": {
        "trace.csv": "24b2152b5bc55a9f820e1f01f9ff4b3ea79bdf313367571903b6b5739e02ba79",
        "plan.json": "69c603ae62198acadbba7361bb80c5f6ae011127249e517b0560543c5c63290a",
        "power.csv": "42539e0e80d94224092ad4025d28222baecda545936fdb1f979f2e8a03e04bec",
    },
}


def _config(name):
    if name == "desk_seed_1":
        return desk_config(seed=1)
    return ScenarioConfig.from_json(SCENARIOS / f"{name}.json")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_emitted_artifacts_match_their_pinned_digests(name, tmp_path):
    emit(run_scenario(_config(name)), tmp_path)
    got = {
        f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in PINNED[name]
    }
    assert got == PINNED[name]


def test_small_chunks_emit_the_same_bytes(tmp_path, monkeypatch):
    """Splitting the training pass into chunks moves no emitted byte.

    This covers ``metrics.csv`` and the audit in ``summary.json``, which the
    digests above leave out, by comparing two runs in one process.
    """
    written = {}
    for chunk_columns in (federated._CHUNK_COLUMNS, 64):
        monkeypatch.setattr(federated, "_CHUNK_COLUMNS", chunk_columns)
        out = tmp_path / str(chunk_columns)
        paths = emit(run_scenario(desk_config(seed=1)), out)
        written[chunk_columns] = {Path(p).name: Path(p).read_bytes() for p in paths}
    default, small = written.values()
    assert len(default) == 5
    assert small == default
