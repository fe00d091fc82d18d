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
from edgefed.distributions import DirichletProfile
from edgefed.harness import (
    DataParams,
    ScenarioConfig,
    SchedulerParams,
    desk_config,
    emit,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"

PINNED = {
    "desk_seed_1": {
        "trace.csv": "d31adbc3392b12322634fd17bd9164ce2d1cc01a2d2d4ec4cdd90724bde8ad84",
        "plan.json": "ff520014765a9bb3276996a33c8092d4a3af3e6df7ff10124fe558e14ec9fec5",
        "power.csv": "21bb8a300658bff644e439d7cd903cc93487ff4f7d029331ea7dd5ba561bed74",
    },
    "desk_dirichlet": {
        "trace.csv": "c169399ec67646948f66db310af04bda698adc2a5f7eac3f68f0b4bd53513f54",
        "plan.json": "3d993d5ad2d256cafa06da1359ac6b39d9b4b662ce479b3a960b7db4e49ec538",
        "power.csv": "826387d0bf297b4b92167530534289c94d91f5dae1f856357367d30ac5405bbb",
    },
    "desk_random_stop": {
        "trace.csv": "724ff91509b61edb7595436458480d4fe244727d6f5462b3d4f3511a3f20819f",
        "plan.json": "853a39ec97700d600e852ee9ebe97ed965c94b4016d4e19b64d41fafb8efda95",
        "power.csv": "00e4ae35d4d20134d239e96cdd2e3d37a963e0a0a2d4689d48406d7fe882875d",
    },
    "full_offload": {
        "trace.csv": "24b2152b5bc55a9f820e1f01f9ff4b3ea79bdf313367571903b6b5739e02ba79",
        "plan.json": "69c603ae62198acadbba7361bb80c5f6ae011127249e517b0560543c5c63290a",
        "power.csv": "42539e0e80d94224092ad4025d28222baecda545936fdb1f979f2e8a03e04bec",
    },
    "golden": {
        "trace.csv": "425b8d2ac9c5361f151e7588dbaf71acf66e3d02de285da409590e04a89643a9",
        "plan.json": "62baef2d8cb27f379b8c440a2de58b9f44e26d6d4915fbe11c052c1556c07dd1",
        "power.csv": "930b3158ba1dd9de2f55d0275f388d0eee28278599f603c943a8bf3258e48736",
    },
}


def _config(name):
    if name == "desk_seed_1":
        return desk_config(seed=1)
    if name == "desk_dirichlet":
        # the Dirichlet profile, which no benchmark workload runs
        return desk_config(
            seed=1, data=DataParams(profile=DirichletProfile(alpha=(0.5,) * 10))
        )
    if name == "desk_random_stop":
        # the random policy and the stop rule, which no benchmark workload runs
        return desk_config(
            seed=1, scheduler=SchedulerParams(policy="random", stop_at_threshold=True)
        )
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
