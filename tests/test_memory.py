"""Allocation guards: building server data, training stacks, the IID twin and
the drift audit copies no data.

Each guard traces numpy's allocations with ``tracemalloc`` around one call
and bounds the call's peak by what it must hold.
"""

import tracemalloc

import numpy as np

from edgefed import divergence, federated
from edgefed.distributions import (
    Dataset,
    materialize,
    separated_feature_model,
    uniform_distribution,
)
from edgefed.harness import DataParams, build_population, desk_config, server_datasets_from_plan
from edgefed.network import TopologyParams
from edgefed.scheduler import Policy, SchedulerConfig, run_scheduler, uniform_target

# Per-call bookkeeping that does not grow with the sample count: one server's
# device streams and histogram list, and the small index arrays.
BOOKKEEPING_BYTES = 32 * 1024


def _peak_bytes(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_materialising_a_plan_holds_the_data_and_one_device_block():
    """Each server's set is drawn into one buffer, never into per-device
    datasets that are then concatenated into a second copy."""
    cfg = desk_config(
        seed=3,
        topology=TopologyParams(num_servers=2, devices_per_server=10),
        data=DataParams(feat_dim=64),
    )
    _, topo = build_population(cfg)
    target = uniform_target(2, 10**7, 10)
    plan, _ = run_scheduler(SchedulerConfig(10**7, target, Policy.NEAREST), topo, cfg.radio)
    parts, peak = _peak_bytes(lambda: server_datasets_from_plan(cfg, topo, plan))
    data = sum(p.features.nbytes + p.labels.nbytes for p in parts)
    rows = max(topo.device(e.device).dist.total() for e in plan.entries)
    device_block = rows * (cfg.data.feat_dim + 1) * 8
    # A second copy of a server's data would exceed the bound by several blocks.
    assert min(map(len, parts)) > 5 * rows
    assert peak <= data + device_block + BOOKKEEPING_BYTES


def test_stack_over_one_wide_dataset_allocates_no_per_sample_array():
    """A one-dataset chunk keeps that dataset's labels; label cells are made
    per pass, not stored."""
    n = federated._CHUNK_COLUMNS + 1
    labels = np.arange(n, dtype=np.int64) % 3
    dataset = Dataset(np.zeros((n, 2)), labels)
    stack, peak = _peak_bytes(lambda: federated._Stack([dataset], 3))
    assert len(stack.chunks) == 1
    assert peak < n  # less than one byte per sample


def _servers(sizes=(2000, 1500, 2000, 1200)):
    model = separated_feature_model(4, 16, 3.0, 1.0)
    rng = np.random.default_rng(5)
    return [materialize([uniform_distribution(4, n)], model, [rng]) for n in sizes]


def test_iid_counterpart_holds_the_twin_and_two_index_arrays():
    """Each server's rows are scattered straight into the permuted copy: the
    union of the servers is never built, and the twin is not copied again."""
    parts = _servers()
    n = sum(map(len, parts))
    twin, peak = _peak_bytes(lambda: federated.iid_counterpart(parts, np.random.default_rng(6)))
    held = sum(t.features.nbytes + t.labels.nbytes for t in twin)
    assert peak <= held + 2 * 8 * n + BOOKKEEPING_BYTES


def test_audit_allocates_one_server_square_at_most():
    """The audit averages the paired run's server gradients into the pooled
    gradient, so it builds no union and takes no pass over the data. Its only
    per-sample arrays are ``lipschitz_bound``'s square of one server's
    features and that square's row sums."""
    parts = _servers()
    twin = federated.iid_counterpart(parts, np.random.default_rng(6))
    paired = federated.run_paired(parts, twin, federated.TrainConfig(phi=0.05, rounds=3))
    report, peak = _peak_bytes(lambda: divergence.audit_drift_bound(paired, parts))
    assert len(report.checks) == 3
    largest = max(parts, key=len)
    assert peak <= largest.features.nbytes + 8 * len(largest) + BOOKKEEPING_BYTES
