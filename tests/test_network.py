"""Topology placement, channel model, OFDMA bookkeeping, and plan costing."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import GroupedProfile, generate_clients, uniform_distribution
from edgefed.errors import (
    InvalidInputError,
    InvalidParameterError,
    UnknownPairError,
    UnreachableDeviceError,
)
from edgefed import network
from edgefed.network import (
    OffloadPlan,
    RadioConfig,
    Server,
    Topology,
    TopologyParams,
    TransferRecord,
    assign_subcarriers,
    channel_gain,
    place_topology,
    rate,
    system_cost,
    transfer_time,
)

from edgefed.harness import ScenarioConfig, build_population, desk_config
from edgefed.rng import substream
from edgefed.scheduler import Policy, SchedulerConfig, run_scheduler, uniform_target

from oracles import effective_interference, sinr

SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"


def _single_cell_topology(gain_matrix, bits=100_000, num_servers=1):
    """Hand-built topology: one device per gain row, servers on the x axis."""
    servers = tuple(Server(s, (1000.0 * s, 0.0)) for s in range(num_servers))
    n = len(gain_matrix)
    return Topology(
        servers,
        positions=[(10.0 + u, 0.0) for u in range(n)],
        counts=np.tile(uniform_distribution(2, 10).counts, (n, 1)),
        home=np.zeros(n, dtype=np.int64),
        data_bits=np.full(n, bits),
        gains=np.asarray(gain_matrix, dtype=np.float64),
    )


def _one_per_class(params):
    """One sample of each of ten classes for every device of a layout."""
    return np.ones((params.num_servers * params.devices_per_server, 10), dtype=np.int64)


# ----------------------------------------------------------------- placement


def test_single_cell_containment():
    params = TopologyParams(num_servers=1, devices_per_server=30, cell_radius=300.0, fading=False)
    topo = place_topology(params, default_rng(1), counts=_one_per_class(params))
    assert len(topo.counts) == 30
    for u in range(30):
        assert topo.distance(u, 0) <= 300.0 + 1e-9
        assert topo.home[u] == 0


def test_large_layout_counts_and_homes():
    params = TopologyParams(num_servers=10, devices_per_server=100, fading=False)
    topo = place_topology(params, default_rng(2), counts=_one_per_class(params))
    assert len(topo.counts) == 1000
    assert len(topo.servers) == 10
    # home server is the nearest server for every single device
    for u in range(1000):
        dists = [topo.distance(u, s.id) for s in topo.servers]
        assert int(np.argmin(dists)) == topo.home[u]


def test_placement_determinism():
    layout = TopologyParams(num_servers=3, devices_per_server=10, cell_radius=400.0)
    counts = _one_per_class(layout)
    a = place_topology(layout, default_rng(7), counts=counts)
    b = place_topology(layout, default_rng(7), counts=counts)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.gains, b.gains)
    c = place_topology(layout, default_rng(8), counts=counts)
    assert not np.array_equal(a.gains, c.gains)


def test_placement_custom_histograms_set_payloads():
    counts = np.tile(uniform_distribution(4, 12).counts, (6, 1))
    topo = place_topology(
        TopologyParams(num_servers=2, devices_per_server=3, cell_radius=200.0),
        default_rng(3),
        counts=counts,
        bits_per_sample=520,
    )
    for bits in topo.data_bits:
        assert bits == 12 * 520


def test_placement_validation():
    with pytest.raises(InvalidParameterError):
        place_topology(TopologyParams(num_servers=0, devices_per_server=5), default_rng(0))
    with pytest.raises(InvalidParameterError):
        place_topology(TopologyParams(num_servers=1, cell_radius=-10.0), default_rng(0))
    with pytest.raises(InvalidInputError):
        place_topology(
            TopologyParams(num_servers=1, devices_per_server=5),
            default_rng(0),
            counts=[uniform_distribution(4, 5).counts],
        )


def test_topology_ids_are_positions():
    topo = _single_cell_topology([[1e-9, 2e-9], [3e-9, 4e-9]], num_servers=2)
    assert topo.gain(1, 0) == 3e-9 and topo.device(1).id == 1
    assert not topo.gains.flags.writeable
    shifted = tuple(Server(s + 1, (0.0, 0.0)) for s in range(2))
    with pytest.raises(InvalidInputError, match="server at position 0 has id 1"):
        dataclasses.replace(topo, servers=shifted)
    with pytest.raises(InvalidInputError, match="gains shape mismatch"):
        dataclasses.replace(topo, gains=topo.gains.T[:1])
    # a negative id must not wrap to the last row
    for lookup in (
        lambda: topo.device(-1),
        lambda: topo.device(2),
        lambda: topo.gain(-1, 0),
        lambda: topo.gain(2, 0),
        lambda: topo.gain(0, -1),
        lambda: topo.gain(0, 2),
        lambda: topo.distance(0, -1),
        lambda: topo.distance(0, 2),
    ):
        with pytest.raises(UnknownPairError):
            lookup()


def test_topology_indexes_counts_and_homes_once():
    counts = [[u, 2 * u, 3] for u in range(6)]
    topo = place_topology(
        TopologyParams(num_servers=2, devices_per_server=3, cell_radius=200.0),
        default_rng(5),
        counts=counts,
    )
    assert topo.counts.dtype == np.int64 and topo.home.dtype == np.int64
    assert not topo.counts.flags.writeable and not topo.home.flags.writeable
    assert topo.counts.tolist() == [topo.device(u).dist.counts.tolist() for u in range(6)]
    assert topo.home.tolist() == [topo.device(u).home_server for u in range(6)]
    assert topo.counts.tolist() == counts and topo.home.tolist() == [0, 0, 0, 1, 1, 1]
    assert topo.counts[4].tolist() == [4, 8, 3] and topo.home[4] == 1
    empty = Topology(topo.servers, np.zeros((0, 2)), np.zeros((0, 0)), [], [], np.zeros((0, 2)))
    assert empty.counts.shape == (0, 0) and empty.home.shape == (0,)


def test_topology_checks_its_arrays_in_one_line():
    topo = _single_cell_topology([[1e-9, 2e-9], [3e-9, 4e-9], [5e-9, 6e-9]], num_servers=2)
    for name, bad in (
        ("positions", np.zeros((3, 3))),
        ("counts", np.ones(3, dtype=np.int64)),
        ("home", np.zeros(2, dtype=np.int64)),
        ("data_bits", np.zeros((3, 1), dtype=np.int64)),
        ("gains", np.ones((3, 1))),
    ):
        with pytest.raises(InvalidInputError, match=rf"^{name} shape mismatch: .*, expected"):
            dataclasses.replace(topo, **{name: bad})
    for home in ([0, 2, 1], [0, 0, -1]):
        bad = home.index(2) if 2 in home else home.index(-1)
        one_line = rf"^device {bad}: no home server with id {home[bad]}$"
        with pytest.raises(InvalidInputError, match=one_line):
            dataclasses.replace(topo, home=home)
    negative = np.array([[1, 1], [0, -1], [2, 2]])
    with pytest.raises(InvalidInputError, match=r"^device 1 has a negative label count$"):
        dataclasses.replace(topo, counts=negative)
    # a device record views its count row; nothing is copied or writeable
    dist = topo.device(2).dist
    assert np.shares_memory(dist.counts, topo.counts) and not dist.counts.flags.writeable
    assert topo.device(2).position == (12.0, 0.0) and topo.device(2).data_bits == 100_000


@pytest.mark.parametrize("high_mean", [4e18, 1e17])
def test_placement_rejects_a_payload_past_int64(high_mean):
    # At 4e18 the three high classes already wrap an int64 row total; at 1e17
    # the total fits and only its product with bits_per_sample passes 2**63.
    profile = GroupedProfile(high_mean=high_mean, high_std=0.0, num_high_classes=3, group_size=3)
    counts = generate_clients(profile, 4, default_rng(1))
    one_line = r"^device 0: \d+ payload bits at bits_per_sample 520 do not fit in int64$"
    with pytest.raises(InvalidInputError, match=one_line):
        place_topology(
            TopologyParams(num_servers=2, devices_per_server=2),
            default_rng(2),
            counts=counts,
            bits_per_sample=520,
        )


def test_placement_keeps_the_largest_int64_payload():
    params = TopologyParams(num_servers=1, devices_per_server=2)
    fits = [[2**62, 2**62 - 1], [1, 0]]
    topo = place_topology(params, default_rng(3), counts=fits, bits_per_sample=1)
    assert topo.data_bits.tolist() == [2**63 - 1, 1]
    with pytest.raises(InvalidInputError, match="^device 1: 9223372036854775808 payload bits"):
        place_topology(params, default_rng(3), counts=[[0, 1], [2**62, 2**62]], bits_per_sample=1)


def _place_pairwise(num_servers, devices_per_server, cell_radius, rng, **kw):
    """The array-per-attempt formulation: numpy nearest-server test during
    placement, then per pair, row by row, the scalar ``channel_gain`` path
    loss times one Exp(1) fading draw."""
    centers = np.asarray(network._hex_centers(num_servers, cell_radius))
    positions = []
    for s in range(num_servers):
        cx, cy = centers[s]
        for _ in range(devices_per_server):
            while True:
                radius = cell_radius * math.sqrt(float(rng.random()))
                angle = 2.0 * math.pi * float(rng.random())
                px = cx + radius * math.cos(angle)
                py = cy + radius * math.sin(angle)
                d2 = np.sum((centers - (px, py)) ** 2, axis=1)
                if int(np.argmin(d2)) == s:
                    break
            positions.append((px, py))
    gains = np.empty((len(positions), num_servers))
    for u, (px, py) in enumerate(positions):
        for s in range(num_servers):
            dist_m = math.dist((px, py), tuple(centers[s]))
            gain = channel_gain(
                max(dist_m, kw["reference_distance"]),
                kw["exponent"],
                reference_gain=kw["reference_gain"],
                reference_distance=kw["reference_distance"],
            )
            if kw["fading"]:
                gain *= float(rng.exponential(1.0))
            gains[u, s] = gain
    return positions, gains


@pytest.mark.parametrize("fading", [True, False])
@pytest.mark.parametrize(
    "layout",
    [
        dict(num_servers=10, devices_per_server=40, cell_radius=500.0),
        # the reference distance exceeds many device-server distances
        dict(num_servers=4, devices_per_server=60, cell_radius=30.0, reference_distance=12.0),
        dict(num_servers=1, devices_per_server=25, cell_radius=80.0, exponent=2.7),
    ],
)
def test_placement_equals_the_pairwise_formulation(layout, fading):
    kw = dict(exponent=3.0, reference_gain=1e-3, reference_distance=1.0, fading=fading)
    kw.update({k: v for k, v in layout.items() if k in kw})
    shape = (layout["num_servers"], layout["devices_per_server"], layout["cell_radius"])
    fresh, old = default_rng(21), default_rng(21)
    params = TopologyParams(
        *shape,
        path_loss_exponent=kw["exponent"],
        reference_gain=kw["reference_gain"],
        reference_distance=kw["reference_distance"],
        fading=kw["fading"],
    )
    topo = place_topology(params, fresh, counts=_one_per_class(params))
    positions, gains = _place_pairwise(*shape, old, **kw)
    assert [tuple(p) for p in topo.positions.tolist()] == positions
    assert topo.gains.tobytes() == gains.tobytes()
    assert fresh.random() == old.random()
    if layout.get("reference_distance", 1.0) > 1.0 and not fading:
        assert (topo.gains == kw["reference_gain"]).any()


# -------------------------------------------------------------- channel gain


def test_channel_gain_reference_point():
    assert channel_gain(1.0, 3.0) == 1e-3


def test_channel_gain_power_law():
    g1 = channel_gain(50.0, 2.0)
    g2 = channel_gain(100.0, 2.0)
    assert math.isclose(g1 / g2, 4.0, rel_tol=1e-12)


def test_channel_gain_saturates_inside_reference():
    assert channel_gain(0.25, 3.0) == 1e-3


def test_placement_fading_is_unit_mean():
    # Fading draws come after placement, so one seed places the same devices
    # with fading on and off, and the gain ratio is the fading factor alone.
    faded, bare = (
        place_topology(
            TopologyParams(10, 200, fading=fading),
            default_rng(17),
            counts=_one_per_class(TopologyParams(10, 200)),
        )
        for fading in (True, False)
    )
    assert faded.positions.tolist() == bare.positions.tolist()
    assert abs((faded.gains / bare.gains).mean() - 1.0) <= 0.03


def test_channel_gain_validation():
    with pytest.raises(InvalidParameterError):
        channel_gain(0.0, 3.0)
    # one non-positive entry rejects the whole array
    for bad in (0.0, -1.0):
        with pytest.raises(InvalidParameterError, match="distance must be positive"):
            channel_gain(np.array([[5.0, 12.0], [bad, 40.0]]), 3.0)


@pytest.mark.parametrize("exponent", [3.0, 2.7])
def test_channel_gain_on_an_array_equals_the_scalar_call(exponent):
    kw = dict(reference_gain=2e-3, reference_distance=4.0)
    # inside, at and just past the reference distance, then a spread of links
    grid = np.concatenate(
        [
            [0.25, 1.0, 3.999, 4.0, 4.000001],
            np.geomspace(4.0, 2500.0, 400),
            default_rng(8).uniform(0.01, 2500.0, 595),
        ]
    ).reshape(40, 25)
    gains = channel_gain(grid, exponent, **kw)
    assert gains.shape == grid.shape
    g0, d0 = kw["reference_gain"], kw["reference_distance"]
    for d, g in zip(grid.ravel().tolist(), gains.ravel().tolist()):
        # the Python-float rule: np.power differs from ``**`` on ~5% of these
        assert g == channel_gain(d, exponent, **kw) == g0 * (d0 / max(d, d0)) ** exponent
    assert (gains.ravel()[:4] == g0).all()


# --------------------------------------------------------------- subcarriers


def test_single_pair_has_no_cochannel_company():
    smap = assign_subcarriers([(0, 0)], 128)
    k = smap.subcarrier((0, 0))
    assert smap.cochannel[k] == ((0, 0),)


def test_round_robin_restarts_per_cell():
    # one pair in each of two cells: both land on subcarrier 0
    smap = assign_subcarriers([(0, 0), (5, 1)], 8)
    assert smap.subcarrier((0, 0)) == 0
    assert smap.subcarrier((5, 1)) == 0
    assert set(smap.cochannel[0]) == {(0, 0), (5, 1)}


def test_no_intra_cell_sharing_below_capacity():
    pairs = [(u, 0) for u in range(6)]
    smap = assign_subcarriers(pairs, 8)
    seen = {smap.subcarrier(p) for p in pairs}
    assert len(seen) == 6  # pigeonhole not reached, all distinct


def test_subcarrier_wraparound_and_duplicates():
    pairs = [(u, 0) for u in range(5)]
    smap = assign_subcarriers(pairs, 4)
    assert smap.subcarrier((4, 0)) == 0
    with pytest.raises(InvalidInputError):
        assign_subcarriers([(1, 0), (1, 1)], 4)
    with pytest.raises(UnknownPairError):
        smap.subcarrier((99, 0))
    with pytest.raises(InvalidParameterError):
        assign_subcarriers(pairs, 0)


# ---------------------------------------------------------------------- sinr


def test_sinr_zero_power():
    topo = _single_cell_topology([[1e-9]])
    smap = assign_subcarriers([(0, 0)], 128)
    assert sinr((0, 0), 0.0, smap, topo, RadioConfig()) == 0.0


def test_sinr_quotient_hand_value():
    # 1e-9 * 0.5 / 1e-13 = 5000 with nobody else on the carrier
    topo = _single_cell_topology([[1e-9]])
    smap = assign_subcarriers([(0, 0)], 128)
    value = sinr((0, 0), 0.5, smap, topo, RadioConfig(noise_power=1e-13))
    assert math.isclose(value, 5000.0, rel_tol=1e-12)


def test_sinr_drops_with_cochannel_traffic():
    topo = _single_cell_topology([[1e-9], [5e-10]])
    cfg = RadioConfig(subcarriers=1)
    alone = sinr((0, 0), 0.5, assign_subcarriers([(0, 0)], 1), topo, cfg)
    crowded = sinr((0, 0), 0.5, assign_subcarriers([(0, 0), (1, 0)], 1), topo, cfg)
    assert crowded < alone


def test_sinr_interferer_power_sources():
    # every interferer transmits at the rated power
    topo = _single_cell_topology([[1e-9], [4e-10]])
    cfg = RadioConfig(subcarriers=1, noise_power=1e-13)
    smap = assign_subcarriers([(0, 0), (1, 0)], 1)
    rated = sinr((0, 0), 0.5, smap, topo, cfg)
    assert math.isclose(rated, 0.5e-9 / (1e-13 + 0.5 * 4e-10), rel_tol=1e-12)


def test_sinr_sums_interferers_before_the_noise():
    # with these gains (noise + a) + b and noise + (a + b) differ in the last
    # bit, so only the interferers-first order reproduces emitted SINRs
    noise, a, b = 1e-13, 0.5 * 3e-13, 0.5 * 7e-13
    assert (noise + a) + b != noise + (a + b)
    topo = _single_cell_topology([[1e-9], [3e-13], [7e-13]])
    cfg = RadioConfig(subcarriers=1, noise_power=noise, rated_power=0.5)
    smap = assign_subcarriers([(0, 0), (1, 0), (2, 0)], 1)
    assert effective_interference((0, 0), smap, topo, cfg) == noise + (a + b)
    assert network.noise_floors([(0, 0)], smap, topo, cfg).tolist() == [noise + (a + b)]
    assert sinr((0, 0), 0.5, smap, topo, cfg) == 1e-9 * 0.5 / (noise + (a + b))


def test_sinr_validation():
    topo = _single_cell_topology([[1e-9]])
    smap = assign_subcarriers([(0, 0)], 4)
    with pytest.raises(InvalidParameterError):
        sinr((0, 0), -0.1, smap, topo, RadioConfig())
    with pytest.raises(UnknownPairError):
        sinr((3, 0), 0.5, smap, topo, RadioConfig())


# -------------------------------------------------------------- rate and time


def test_rate_landmarks():
    cfg = RadioConfig()  # 5 MHz over 128 carriers -> 39062.5 Hz each
    assert rate(0.0, cfg) == 0.0
    assert math.isclose(rate(1.0, cfg), 39062.5, rel_tol=1e-12)
    assert math.isclose(rate(3.0, cfg), 78125.0, rel_tol=1e-12)
    with pytest.raises(InvalidParameterError, match="SINR must be non-negative"):
        rate(-1e-12, cfg)


def test_transfer_time_basics():
    assert transfer_time(1000.0, 1000.0) == 1.0
    assert transfer_time(0.0, 5.0) == 0.0
    with pytest.raises(UnreachableDeviceError):
        transfer_time(10.0, 0.0)
    with pytest.raises(InvalidParameterError):
        transfer_time(-1.0, 10.0)


def test_transfer_time_hand_computation():
    # one megabit at SINR 3 on a default subcarrier: 1e6 / 78125 = 12.8 s
    cfg = RadioConfig()
    seconds = transfer_time(1e6, rate(3.0, cfg))
    assert math.isclose(seconds, 12.8, rel_tol=1e-12)


# --------------------------------------------------------------- noise floors


def _plan_config(name):
    if name == "desk_3_subcarriers":
        return desk_config(seed=2, radio=RadioConfig(subcarriers=3))
    if name == "desk_1_subcarrier":
        return desk_config(seed=4, radio=RadioConfig(subcarriers=1))
    if name == "desk_no_fading":
        return desk_config(seed=3, topology=TopologyParams(fading=False))
    return ScenarioConfig.from_json(SCENARIOS / f"{name}.json")


def _planned(name, policy):
    """A scenario's topology, radio and planned pairs under ``policy``."""
    cfg = _plan_config(name)
    _, topo = build_population(cfg)
    gamma = cfg.scheduler.gamma
    target = uniform_target(cfg.topology.num_servers, gamma, cfg.data.num_classes)
    sched = SchedulerConfig(gamma=gamma, target=target, policy=policy)
    plan, _ = run_scheduler(sched, topo, cfg.radio, substream(cfg.seed, "scheduler"))
    return topo, cfg.radio, plan.pairs()


@pytest.mark.parametrize(
    "name, policy",
    [
        ("golden", Policy.MIN_KL),
        ("golden", Policy.NEAREST),
        ("full_offload", Policy.NEAREST),
        ("desk_3_subcarriers", Policy.MIN_KL),
        ("desk_no_fading", Policy.RANDOM),
        ("desk_1_subcarrier", Policy.NEAREST),
    ],
)
def test_noise_floors_equal_the_scalar_oracle(name, policy):
    """One array op per subcarrier gives every pair's ``effective_interference``
    bit for bit, aligned with the pairs in any order."""
    topo, radio, pairs = _planned(name, policy)
    smap = assign_subcarriers(pairs, radio.subcarriers)
    want = np.array([effective_interference(p, smap, topo, radio) for p in pairs])
    got = network.noise_floors(pairs, smap, topo, radio)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert (want > radio.noise_power).any()  # the groups interfere
    backwards = network.noise_floors(pairs[::-1], smap, topo, radio)
    assert backwards.tobytes() == want[::-1].tobytes()


@pytest.mark.parametrize("rows", [1, 4])
def test_noise_floors_price_a_large_group_in_row_slices(rows, monkeypatch):
    """With one subcarrier every pair shares a group; priced ``rows`` receivers
    at a time, each floor still has the oracle's bits."""
    topo, radio, pairs = _planned("desk_1_subcarrier", Policy.NEAREST)
    smap = assign_subcarriers(pairs, radio.subcarriers)
    assert len(pairs) % 4 and len(smap.cochannel) == 1  # the last slice is short
    monkeypatch.setattr(network, "_FLOOR_BLOCK_VALUES", rows * len(pairs))
    want = np.array([effective_interference(p, smap, topo, radio) for p in pairs])
    assert network.noise_floors(pairs, smap, topo, radio).tobytes() == want.tobytes()


def test_noise_floors_add_left_to_right_where_a_pairwise_sum_differs():
    """full_offload's groups hold ~16 pairs each, where ``np.sum`` along a row
    adds pairwise and misses the oracle's bits, so the order is pinned there."""
    topo, radio, pairs = _planned("full_offload", Policy.NEAREST)
    smap = assign_subcarriers(pairs, radio.subcarriers)
    assert max(map(len, smap.cochannel.values())) > 8
    differ = 0
    for group in smap.cochannel.values():
        ids, servers = np.array(group).T
        block = radio.rated_power * topo.gains[ids[None, :], servers[:, None]]
        np.fill_diagonal(block, 0.0)
        pairwise = np.sum(block, axis=1) + radio.noise_power
        differ += sum(
            x != effective_interference(p, smap, topo, radio) for x, p in zip(pairwise, group)
        )
    assert differ > 0


def test_noise_floor_of_a_lone_pair_is_the_noise():
    topo = _single_cell_topology([[1e-9], [3e-13]])
    cfg = RadioConfig(noise_power=1e-13)
    smap = assign_subcarriers([(1, 0)], 4)
    assert network.noise_floors([(1, 0)], smap, topo, cfg).tolist() == [1e-13]
    assert network.noise_floors([], smap, topo, cfg).shape == (0,)


def test_noise_floors_reject_pairs_without_a_subcarrier_or_a_topology_row():
    topo = _single_cell_topology([[1e-9], [3e-13]], num_servers=1)
    cfg = RadioConfig(subcarriers=1)
    smap = assign_subcarriers([(0, 0), (1, 0)], 1)
    with pytest.raises(UnknownPairError, match=r"pair \(2, 0\) has no subcarrier"):
        network.noise_floors([(0, 0), (2, 0)], smap, topo, cfg)
    with pytest.raises(UnknownPairError, match=r"pair \(1, 1\) has no subcarrier"):
        network.noise_floors([(1, 1)], smap, topo, cfg)
    outside = assign_subcarriers([(0, 0), (5, 0)], 1)
    with pytest.raises(UnknownPairError, match="no device with id 5"):
        network.noise_floors([(0, 0)], outside, topo, cfg)
    negative = assign_subcarriers([(0, 0), (1, -1)], 1)
    with pytest.raises(UnknownPairError, match="no server with id -1"):
        network.noise_floors([(0, 0)], negative, topo, cfg)


# --------------------------------------------------------------- system cost


def _record(u, s, k=0):
    return TransferRecord(
        device=u,
        server=s,
        subcarrier=k,
        power=0.5,
        sinr=1.0,
        rate=39062.5,
        transfer_seconds=2.0,
        energy_joules=1.0,
    )


def test_system_cost_empty_plan():
    topo = _single_cell_topology([[2e-13]])
    smap = assign_subcarriers([], 4)
    assert system_cost(OffloadPlan(()), {}, topo, RadioConfig(), smap) == 0.0


def test_system_cost_single_pair_product():
    # gain tuned so SINR(0.5 W) = 1, bits tuned so the transfer takes 2 s
    cfg = RadioConfig(noise_power=1e-13)
    topo = _single_cell_topology([[2e-13]], bits=78_125)
    smap = assign_subcarriers([(0, 0)], 128)
    plan = OffloadPlan((_record(0, 0),))
    cost = system_cost(plan, {(0, 0): 0.5}, topo, cfg, smap)
    assert math.isclose(cost, 1.0, rel_tol=1e-12)


def test_system_cost_additive_over_disjoint_plans():
    cfg = RadioConfig(noise_power=1e-13)
    topo = _single_cell_topology([[2e-13], [3e-13], [4e-13]], bits=50_000)
    pairs = [(0, 0), (1, 0), (2, 0)]
    smap = assign_subcarriers(pairs, 8)
    powers = {(0, 0): 0.5, (1, 0): 0.25, (2, 0): 0.125}
    whole = OffloadPlan(tuple(_record(u, 0) for u, _ in pairs))
    total = system_cost(whole, powers, topo, cfg, smap)
    split = sum(
        system_cost(OffloadPlan((_record(u, 0),)), powers, topo, cfg, smap)
        for u, _ in pairs
    )
    assert math.isclose(total, split, rel_tol=1e-12)


def test_system_cost_missing_power():
    topo = _single_cell_topology([[2e-13]])
    smap = assign_subcarriers([(0, 0)], 4)
    plan = OffloadPlan((_record(0, 0),))
    with pytest.raises(UnknownPairError):
        system_cost(plan, {}, topo, RadioConfig(), smap)


def test_radio_config_validation():
    with pytest.raises(InvalidParameterError):
        RadioConfig(subcarriers=0)
    with pytest.raises(InvalidParameterError, match="bandwidth must be positive"):
        RadioConfig(bandwidth_hz=0.0)
    with pytest.raises(InvalidParameterError, match="noise power must be positive"):
        RadioConfig(noise_power=0.0)
    with pytest.raises(InvalidParameterError):
        RadioConfig(rated_power=2.0, max_power=1.0)
    # pricing puts every pair at the 1 mW floor, so the ceiling must lie above it
    with pytest.raises(InvalidParameterError, match="transmit floor"):
        RadioConfig(max_power=1e-3, rated_power=1e-3)
    assert RadioConfig().subcarrier_bandwidth == 39062.5


@pytest.mark.parametrize("gain", [2e-13, 0.0])
def test_system_cost_rejects_negative_power(gain):
    # a zero gain makes the SINR -0.0, which rate accepts, so the power
    # itself must be checked
    topo = _single_cell_topology([[gain]])
    smap = assign_subcarriers([(0, 0)], 4)
    plan = OffloadPlan((_record(0, 0),))
    with pytest.raises(InvalidParameterError, match="transmit power must be non-negative"):
        system_cost(plan, {(0, 0): -0.1}, topo, RadioConfig(), smap)
