"""Offloading policies: candidate bookkeeping, greedy selection, full runs."""

import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import (
    GroupedProfile,
    LabelDistribution,
    generate_clients,
    normalize,
    uniform_distribution,
)
from edgefed.divergence import complement, kl
from edgefed.errors import DimensionMismatchError, InvalidParameterError
from edgefed.network import RadioConfig, TopologyParams, TransferRecord, place_topology
from edgefed.scheduler import (
    Policy,
    SchedulerConfig,
    _candidate_probs,
    _kl_scores,
    _min_kl_picker,
    run_scheduler,
    serviceable_set,
    uniform_target,
)


def _stub_solver(pair, smap, topo, radio):
    """Pricing stand-in for tests that only care about the plan shape."""
    u, s = pair
    return TransferRecord(
        device=u,
        server=s,
        subcarrier=smap.subcarrier(pair),
        power=radio.rated_power,
        sinr=1.0,
        rate=radio.subcarrier_bandwidth,
        transfer_seconds=1.0,
        energy_joules=radio.rated_power,
    )


def _grouped_topology(seed, servers=4, per_server=15):
    profile = GroupedProfile()
    dists = generate_clients(profile, servers * per_server, default_rng(seed))
    layout = TopologyParams(num_servers=servers, devices_per_server=per_server, cell_radius=400.0)
    topo = place_topology(layout, default_rng(seed + 1), dists=dists)
    return topo


# ------------------------------------------------------------ parsing/targets


def test_policy_parse_is_case_insensitive():
    assert Policy.parse("MKLCO") is Policy.MIN_KL
    assert Policy.parse("iojr") is Policy.NEAREST
    assert Policy.parse("Random") is Policy.RANDOM
    with pytest.raises(InvalidParameterError):
        Policy.parse("greedy")


def test_uniform_target_total():
    target = uniform_target(10, 200, 10)
    assert target.total() == 2000
    assert int(target.counts.max() - target.counts.min()) <= 1
    with pytest.raises(InvalidParameterError):
        uniform_target(0, 200, 10)


def test_scheduler_config_validation():
    target = uniform_target(2, 10, 4)
    with pytest.raises(InvalidParameterError):
        SchedulerConfig(gamma=0, target=target)
    with pytest.raises(InvalidParameterError):
        SchedulerConfig(gamma=5, target=LabelDistribution([0, 0]))


# ---------------------------------------------------------------- candidates


@pytest.mark.parametrize("policy", list(Policy))
def test_scheduler_rejects_histograms_over_other_classes(policy):
    topo = _grouped_topology(3, servers=2, per_server=5)  # ten classes
    cfg = SchedulerConfig(gamma=50, target=uniform_target(2, 50, 4), policy=policy)
    with pytest.raises(DimensionMismatchError):
        run_scheduler(cfg, topo, RadioConfig(), default_rng(0), _stub_solver)


def test_serviceable_set_filters():
    topo = _grouped_topology(3, servers=2, per_server=5)
    home0 = serviceable_set(0, topo)
    assert home0 == sorted(home0)
    assert all(topo.device(u).home_server == 0 for u in home0)
    # devices without samples are never candidates
    dists = [d.dist for d in topo.devices]
    dists[home0[0]] = LabelDistribution.zeros(dists[0].num_classes)
    layout = TopologyParams(num_servers=2, devices_per_server=5, cell_radius=400.0)
    emptied = place_topology(layout, default_rng(4), dists=dists)
    assert serviceable_set(0, emptied) == home0[1:]


# ------------------------------------------------------------ greedy choice


def _min_kl_pick(candidates, dists, server, target):
    """The device the scheduler's min-KL picker takes first for ``server``."""
    return _min_kl_picker(sorted(candidates), dists, target.counts)(server.counts)


def test_min_kl_prefers_the_missing_class():
    target = uniform_target(1, 300, 3)
    server = LabelDistribution([100, 100, 0])
    dists = {
        7: LabelDistribution([0, 0, 50]),  # candidate A: exactly what's missing
        8: LabelDistribution([25, 25, 0]),  # candidate B: more of the same
    }
    assert _min_kl_pick([7, 8], dists, server, target) == 7


def test_min_kl_single_candidate_is_forced():
    target = uniform_target(1, 100, 2)
    dists = {3: LabelDistribution([0, 90])}
    assert _min_kl_pick([3], dists, LabelDistribution([90, 0]), target) == 3


def _assert_scores_match_oracle(candidates, dists, server, target):
    """The array scores equal the scalar ``kl`` of each candidate, bit for bit."""
    ids = sorted(candidates)
    scores = _kl_scores(_candidate_probs(ids, dists), server.counts, target.counts)
    demand = normalize(complement(target, server))
    oracle = [kl(normalize(dists[u]), demand) for u in ids]
    assert [float(x) for x in scores] == oracle
    return dict(zip(ids, oracle))


def test_min_kl_tie_goes_to_lower_id():
    target = uniform_target(1, 100, 2)
    dists = {5: LabelDistribution([10, 10]), 2: LabelDistribution([10, 10])}
    assert _min_kl_pick([5, 2], dists, LabelDistribution.zeros(2), target) == 2

    # identical histograms among worse ones: the lowest id of the pair wins
    target = uniform_target(1, 600, 4)
    server = LabelDistribution([150, 40, 150, 90])
    dists = {
        1: LabelDistribution([30, 0, 5, 0]),
        4: LabelDistribution([0, 40, 0, 20]),
        9: LabelDistribution([0, 40, 0, 20]),
        6: LabelDistribution([5, 5, 5, 5]),
    }
    scores = _assert_scores_match_oracle(dists, dists, server, target)
    assert scores[4] == scores[9] < min(scores[1], scores[6])
    assert _min_kl_pick([9, 6, 4, 1], dists, server, target) == 4

    # a copy of the demand scores exactly 0; twice the demand rounds to a
    # slightly negative sum that the clamp also sends to 0, so the two tie
    target = uniform_target(1, 100, 6)
    server = LabelDistribution.zeros(6)
    dists = {
        3: LabelDistribution(target.counts * 2),
        8: LabelDistribution(target.counts),
        0: LabelDistribution([40, 0, 0, 0, 0, 60]),
    }
    p, q = normalize(dists[3]).probs, normalize(target).probs
    assert np.sum(p * np.log(p / q)) < 0.0
    scores = _assert_scores_match_oracle(dists, dists, server, target)
    assert scores[3] == scores[8] == 0.0 < scores[0]
    assert _min_kl_pick([8, 3, 0], dists, server, target) == 3


def test_min_kl_agrees_with_exhaustive_oracle():
    """Recompute every candidate KL independently on random instances."""
    rng = default_rng(19)
    for num_classes in (2, 6, 10, 37):
        target = uniform_target(1, 2000, num_classes)
        for _ in range(50):
            counts = rng.integers(0, 40, size=(20, num_classes))
            # zero-count classes: blank a random subset of every histogram
            counts[rng.random(counts.shape) < 0.3] = 0
            dists = {u: LabelDistribution(c) for u, c in enumerate(counts)}
            candidates = [u for u in dists if dists[u].total() > 0]
            server = LabelDistribution(rng.integers(0, 120, size=num_classes))
            picked = _min_kl_pick(candidates, dists, server, target)
            scores = _assert_scores_match_oracle(candidates, dists, server, target)
            scored = sorted((d, u) for u, d in scores.items())
            assert picked == scored[0][1]


# ------------------------------------------------------------------ full runs


def test_tiny_gamma_takes_one_device_per_server():
    topo = _grouped_topology(5)
    cfg = SchedulerConfig(gamma=1, target=uniform_target(4, 1, 10))
    plan, _ = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    servers = [e.server for e in plan.entries]
    assert sorted(servers) == [0, 1, 2, 3]


def test_plan_respects_the_threshold():
    topo = _grouped_topology(6)
    cfg = SchedulerConfig(gamma=400, target=uniform_target(4, 400, 10))
    plan, _ = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    totals = {}
    for e in plan.entries:
        totals.setdefault(e.server, []).append(topo.device(e.device).dist.total())
    for server, sizes in totals.items():
        # strictly below gamma before the last merge, so the plan is minimal
        assert sum(sizes[:-1]) < 400
        assert sum(sizes) >= 400 or len(sizes) == len(serviceable_set(server, topo))


def test_plan_devices_are_disjoint():
    topo = _grouped_topology(7)
    cfg = SchedulerConfig(gamma=300, target=uniform_target(4, 300, 10))
    plan, _ = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    devices = [e.device for e in plan.entries]
    assert len(devices) == len(set(devices))


def test_greedy_beats_random_on_final_kl():
    topo = _grouped_topology(8, servers=4, per_server=20)
    target = uniform_target(4, 600, 10)
    radio = RadioConfig()

    def final_mean_kl(policy, rng=None):
        cfg = SchedulerConfig(
            gamma=600, target=target, policy=policy, stop_at_threshold=True
        )
        _, trace = run_scheduler(cfg, topo, radio, rng=rng, power_solver=_stub_solver)
        last = {}
        for row in trace.rows:
            last[row.server] = row.kl
        return float(np.mean(list(last.values())))

    greedy = final_mean_kl(Policy.MIN_KL)
    random = final_mean_kl(Policy.RANDOM, default_rng(100))
    assert greedy <= random + 1e-12


def test_random_policy_is_reproducible():
    topo = _grouped_topology(9)
    cfg = SchedulerConfig(
        gamma=300, target=uniform_target(4, 300, 10), policy=Policy.RANDOM
    )
    a, _ = run_scheduler(cfg, topo, RadioConfig(), default_rng(55), power_solver=_stub_solver)
    b, _ = run_scheduler(cfg, topo, RadioConfig(), default_rng(55), power_solver=_stub_solver)
    assert a.pairs() == b.pairs()
    with pytest.raises(InvalidParameterError):
        run_scheduler(cfg, topo, RadioConfig(), rng=None, power_solver=_stub_solver)


def _with_device(topo, device_id, **changes):
    """The topology with one device's fields replaced."""
    devices = tuple(
        dataclasses.replace(d, **changes) if d.id == device_id else d
        for d in topo.devices
    )
    return dataclasses.replace(topo, devices=devices)


def test_trace_replay_confirms_every_greedy_choice():
    """Walk the emitted trace and re-derive each pick from scratch."""
    placed = _grouped_topology(10)
    target = uniform_target(4, 500, 10)
    cfg = SchedulerConfig(gamma=500, target=target)
    # crafted tie: server 0's highest id gets its lowest id's histogram, so
    # whenever one of the two is the best pick the other ties it
    home = serviceable_set(0, placed)
    lo, hi = home[0], home[-1]
    tied = _with_device(placed, hi, dist=placed.device(lo).dist)
    for topo in (placed, tied):
        _, trace = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
        dists = {d.id: d.dist for d in topo.devices}
        for server in range(4):
            remaining = set(serviceable_set(server, topo))
            held = LabelDistribution.zeros(10)
            for row in trace.per_server(server):
                demand = normalize(complement(target, held))
                best = min(
                    (kl(normalize(dists[u]), demand), u) for u in sorted(remaining)
                )
                assert row.device == best[1]
                held = held.merge(dists[row.device])
                remaining.remove(row.device)
                assert row.total == held.total()
            assert not remaining  # trace continues through the whole pool
    order = [r.device for r in trace.per_server(0)]
    assert order.index(lo) < order.index(hi)


def _replay_nearest(topo, trace, num_servers):
    """Each pick is the remaining candidate nearest the server, lowest id on ties."""
    for server in range(num_servers):
        remaining = set(serviceable_set(server, topo))
        for row in trace.per_server(server):
            best = min((topo.distance(u, server), u) for u in remaining)
            assert row.device == best[1]
            remaining.remove(row.device)
        assert not remaining  # trace continues through the whole pool


def test_trace_replay_confirms_every_nearest_choice():
    """Walk the nearest policy's trace and re-derive each pick from distances."""
    topo = _grouped_topology(13)
    cfg = SchedulerConfig(
        gamma=500, target=uniform_target(4, 500, 10), policy=Policy.NEAREST
    )
    _, trace = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    _replay_nearest(topo, trace, 4)

    # crafted tie: move server 0's lowest id onto its highest id's spot, so
    # the two sit at equal distance and the lower id must be taken first
    home = serviceable_set(0, topo)
    lo, hi = home[0], home[-1]
    tied = _with_device(topo, lo, position=topo.device(hi).position)
    assert tied.distance(lo, 0) == tied.distance(hi, 0)
    _, trace = run_scheduler(cfg, tied, RadioConfig(), power_solver=_stub_solver)
    _replay_nearest(tied, trace, 4)
    order = [r.device for r in trace.per_server(0)]
    assert order.index(hi) == order.index(lo) + 1


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("policy", list(Policy))
def test_trace_rows_equal_the_per_merge_kl(policy, stop):
    """Each trace row is ``kl(normalize(running), target)`` of the server's
    running histogram after that merge, bit for bit."""
    grouped = _grouped_topology(14, servers=5, per_server=30)
    # one device without samples: it is never a candidate, so never traced
    grouped = _with_device(grouped, 7, dist=LabelDistribution.zeros(10))
    # uniform histograms: every running histogram matches the uniform target,
    # and the raw KL sums round to -1.1e-16 for some, so the clamp matters
    uniform = dataclasses.replace(
        grouped,
        devices=tuple(
            dataclasses.replace(d, dist=LabelDistribution([1 + d.id % 7] * 10))
            for d in grouped.devices
        ),
    )
    target = uniform_target(5, 400, 10)
    cfg = SchedulerConfig(gamma=400, target=target, policy=policy, stop_at_threshold=stop)
    target_probs = normalize(target)
    for topo in (grouped, uniform):
        _, trace = run_scheduler(
            cfg, topo, RadioConfig(), rng=default_rng(3), power_solver=_stub_solver
        )
        for server in range(5):
            rows = trace.per_server(server)
            assert rows and (stop or len(rows) == len(serviceable_set(server, topo)))
            held = LabelDistribution.zeros(10)
            for k, row in enumerate(rows, start=1):
                held = held.merge(topo.device(row.device).dist)
                assert row.round == k
                assert row.total == held.total() and type(row.total) is int
                assert row.kl == kl(normalize(held), target_probs)
                assert type(row.kl) is float


def test_trace_kl_improves_under_threshold_stop():
    # golden-seed check: while chasing the target the greedy KL never ends
    # above where it started
    topo = _grouped_topology(11)
    cfg = SchedulerConfig(
        gamma=500, target=uniform_target(4, 500, 10), stop_at_threshold=True
    )
    _, trace = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    for server in range(4):
        rows = trace.per_server(server)
        assert rows[-1].kl <= rows[0].kl + 1e-9


def test_mean_kl_by_round_and_threshold_helpers():
    topo = _grouped_topology(12)
    cfg = SchedulerConfig(gamma=500, target=uniform_target(4, 500, 10))
    _, trace = run_scheduler(cfg, topo, RadioConfig(), power_solver=_stub_solver)
    means = trace.mean_kl_by_round(4)
    assert len(means) == max(r.round for r in trace.rows)
    hit = trace.rounds_to_threshold(0.05, 4)
    if hit is not None:
        assert means[hit - 1] < 0.05
        assert all(m >= 0.05 for m in means[: hit - 1])
