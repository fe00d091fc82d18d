"""Topology placement, channel model, OFDMA bookkeeping, and plan costing."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import uniform_distribution
from edgefed.errors import (
    InvalidInputError,
    InvalidParameterError,
    UnknownPairError,
    UnreachableDeviceError,
)
from edgefed import network
from edgefed.network import (
    Device,
    OffloadPlan,
    RadioConfig,
    Server,
    Topology,
    TopologyParams,
    TransferRecord,
    assign_subcarriers,
    channel_gain,
    effective_interference,
    place_topology,
    rate,
    system_cost,
    transfer_time,
)

from oracles import sinr


def _single_cell_topology(gain_matrix, bits=100_000, num_servers=1):
    """Hand-built topology: one device per gain row, servers on the x axis."""
    servers = tuple(Server(s, (1000.0 * s, 0.0)) for s in range(num_servers))
    devices = tuple(
        Device(
            id=u,
            position=(10.0 + u, 0.0),
            data_bits=bits,
            dist=uniform_distribution(2, 10),
            home_server=0,
        )
        for u in range(len(gain_matrix))
    )
    return Topology(servers, devices, np.asarray(gain_matrix, dtype=np.float64))


# ----------------------------------------------------------------- placement


def test_single_cell_containment():
    topo = place_topology(
        TopologyParams(num_servers=1, devices_per_server=30, cell_radius=300.0, fading=False),
        default_rng(1),
    )
    assert len(topo.devices) == 30
    for d in topo.devices:
        assert topo.distance(d.id, 0) <= 300.0 + 1e-9
        assert d.home_server == 0


def test_large_layout_counts_and_homes():
    topo = place_topology(
        TopologyParams(num_servers=10, devices_per_server=100, fading=False), default_rng(2)
    )
    assert len(topo.devices) == 1000
    assert len(topo.servers) == 10
    # home server is the nearest server for every single device
    for d in topo.devices:
        dists = [topo.distance(d.id, s.id) for s in topo.servers]
        assert int(np.argmin(dists)) == d.home_server


def test_placement_determinism():
    layout = TopologyParams(num_servers=3, devices_per_server=10, cell_radius=400.0)
    a = place_topology(layout, default_rng(7))
    b = place_topology(layout, default_rng(7))
    assert all(x.position == y.position for x, y in zip(a.devices, b.devices))
    assert np.array_equal(a.gains, b.gains)
    c = place_topology(layout, default_rng(8))
    assert not np.array_equal(a.gains, c.gains)


def test_placement_custom_histograms_set_payloads():
    dists = [uniform_distribution(4, 12) for _ in range(6)]
    topo = place_topology(
        TopologyParams(num_servers=2, devices_per_server=3, cell_radius=200.0),
        default_rng(3),
        dists=dists,
        bits_per_sample=520,
    )
    for d in topo.devices:
        assert d.data_bits == 12 * 520


def test_placement_validation():
    with pytest.raises(InvalidParameterError):
        place_topology(TopologyParams(num_servers=0, devices_per_server=5), default_rng(0))
    with pytest.raises(InvalidParameterError):
        place_topology(TopologyParams(num_servers=1, cell_radius=-10.0), default_rng(0))
    with pytest.raises(InvalidInputError):
        place_topology(
            TopologyParams(num_servers=1, devices_per_server=5),
            default_rng(0),
            dists=[uniform_distribution(4, 5)],
        )


def test_topology_ids_are_positions():
    topo = _single_cell_topology([[1e-9, 2e-9], [3e-9, 4e-9]], num_servers=2)
    assert topo.gain(1, 0) == 3e-9 and topo.device(1).id == 1
    assert not topo.gains.flags.writeable
    swapped = (topo.devices[1], topo.devices[0])
    with pytest.raises(InvalidInputError, match="device at position 0 has id 1"):
        Topology(topo.servers, swapped, topo.gains)
    shifted = tuple(Server(s + 1, (0.0, 0.0)) for s in range(2))
    with pytest.raises(InvalidInputError, match="server at position 0 has id 1"):
        Topology(shifted, topo.devices, topo.gains)
    # a negative id must not wrap to the last row
    for lookup in (
        lambda: topo.device(-1),
        lambda: topo.device(2),
        lambda: topo.gain(-1, 0),
        lambda: topo.gain(2, 0),
        lambda: topo.gain(0, -1),
        lambda: topo.gain(0, 2),
    ):
        with pytest.raises(UnknownPairError):
            lookup()


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
    topo = place_topology(params, fresh)
    positions, gains = _place_pairwise(*shape, old, **kw)
    assert [d.position for d in topo.devices] == positions
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
        place_topology(TopologyParams(10, 200, fading=fading), default_rng(17))
        for fading in (True, False)
    )
    assert [d.position for d in faded.devices] == [d.position for d in bare.devices]
    assert abs((faded.gains / bare.gains).mean() - 1.0) <= 0.03


def test_channel_gain_validation():
    with pytest.raises(InvalidParameterError):
        channel_gain(0.0, 3.0)


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
