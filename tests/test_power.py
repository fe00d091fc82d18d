"""Per-pair energy objective, closed-form pricing, and the shape probe."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import uniform_distribution
from edgefed.errors import InvalidParameterError
from edgefed.network import (
    RadioConfig,
    Server,
    Topology,
    TopologyParams,
    assign_subcarriers,
    effective_interference,
    place_topology,
    rate,
)
from edgefed.power import (
    PairParams,
    allocate_power,
    feasibility,
    objective,
    solve_pair,
)

from oracles import pair_params, quasiconvexity_probe, sinr


def _one_server_topo(gain_rows, bits=100_000):
    n = len(gain_rows)
    return Topology(
        (Server(0, (0.0, 0.0)),),
        positions=[(10.0 + u, 0.0) for u in range(n)],
        counts=np.tile(uniform_distribution(2, 10).counts, (n, 1)),
        home=np.zeros(n, dtype=np.int64),
        data_bits=np.full(n, bits),
        gains=np.asarray(gain_rows, dtype=np.float64),
    )


def _random_params(rng):
    return PairParams(
        epsilon=10.0 ** rng.uniform(-2, 2),
        kappa=10.0 ** rng.uniform(2, 9),
        p_min=1e-3,
        p_max=10.0 ** rng.uniform(-1, 1),
    )


# -------------------------------------------------------------- noise floor


def test_effective_interference_alone_is_noise():
    topo = _one_server_topo([[1e-9]])
    smap = assign_subcarriers([(0, 0)], 16)
    cfg = RadioConfig(noise_power=1e-13)
    assert effective_interference((0, 0), smap, topo, cfg) == 1e-13


def test_effective_interference_one_cochannel_user():
    # rated 0.5 W through a 2e-13 gain adds 1e-13 on top of 1e-13 noise
    topo = _one_server_topo([[1e-9], [2e-13]])
    smap = assign_subcarriers([(0, 0), (1, 0)], 1)
    cfg = RadioConfig(subcarriers=1, noise_power=1e-13, rated_power=0.5)
    floor = effective_interference((0, 0), smap, topo, cfg)
    assert math.isclose(floor, 2e-13, rel_tol=1e-12)


def test_pair_params_from_radio_picture():
    topo = _one_server_topo([[1e-9]], bits=390_625)
    smap = assign_subcarriers([(0, 0)], 128)
    cfg = RadioConfig(noise_power=1e-13)
    params = pair_params((0, 0), smap, topo, cfg)
    assert math.isclose(params.epsilon, 390_625 / 39062.5, rel_tol=1e-12)
    assert math.isclose(params.kappa, 1e-9 / 1e-13, rel_tol=1e-12)
    assert params.p_max == cfg.max_power


def test_pair_params_needs_payload():
    topo = _one_server_topo([[1e-9]], bits=0)
    smap = assign_subcarriers([(0, 0)], 4)
    with pytest.raises(InvalidParameterError):
        pair_params((0, 0), smap, topo, RadioConfig())


# ----------------------------------------------------------------- objective


def test_objective_hand_values():
    assert objective(PairParams(1.0, 1.0, 1e-3, 2.0), 1.0) == 1.0
    assert objective(PairParams(1.0, 3.0, 1e-3, 2.0), 1.0) == 0.5


def test_objective_small_power_limit():
    # log2(1 + x) ~ x / ln 2, so energy tends to epsilon * ln2 / kappa
    params = PairParams(2.0, 5.0, 1e-12, 1.0)
    limit = 2.0 * math.log(2.0) / 5.0
    assert math.isclose(objective(params, 1e-9), limit, rel_tol=1e-6)


def test_objective_rejects_nonpositive_power():
    params = PairParams(1.0, 1.0, 1e-3, 1.0)
    with pytest.raises(InvalidParameterError):
        objective(params, 0.0)
    with pytest.raises(InvalidParameterError):
        objective(params, -1.0)
    with pytest.raises(InvalidParameterError, match="power must be positive"):
        feasibility(params, 0.0, 1.0)


def test_pair_params_validation():
    with pytest.raises(InvalidParameterError):
        PairParams(0.0, 1.0, 1e-3, 1.0)
    with pytest.raises(InvalidParameterError):
        PairParams(1.0, -1.0, 1e-3, 1.0)
    with pytest.raises(InvalidParameterError):
        PairParams(1.0, 1.0, 0.5, 0.5)


# --------------------------------------------------------------- feasibility


def test_feasibility_definitional_zero():
    params = PairParams(3.0, 200.0, 1e-3, 1.0)
    p = 0.02
    t = objective(params, p)
    assert abs(feasibility(params, p, t)) < 1e-12


def test_feasibility_large_t_is_achievable():
    params = PairParams(3.0, 200.0, 1e-3, 1.0)
    t = params.epsilon * params.p_max
    grid = np.geomspace(params.p_min, params.p_max, 200)
    assert min(feasibility(params, float(p), t) for p in grid) < 0.0


def test_feasibility_t_zero_is_infeasible():
    params = PairParams(3.0, 200.0, 1e-3, 1.0)
    for p in (1e-3, 0.1, 1.0):
        assert feasibility(params, p, 0.0) == params.epsilon * p


# ------------------------------------------------------------------ pricing


def test_allocate_power_matches_grid_oracle():
    """Closed-form value against a brute-force grid, 25 random instances."""
    rng = default_rng(31)
    for _ in range(25):
        params = _random_params(rng)
        res = allocate_power(params)
        grid = np.linspace(params.p_min, params.p_max, 200_001)
        values = params.epsilon * grid / np.log2(1.0 + params.kappa * grid)
        gmin = float(values.min())
        step = (params.p_max - params.p_min) / 200_000
        tau = 1e-9 * (objective(params, params.p_min) - params.epsilon * math.log(2.0) / params.kappa)
        slack = tau + abs(gmin) * 1e-9 + params.epsilon * params.kappa * step
        assert res.value <= gmin + slack
        assert abs(res.power - float(grid[int(values.argmin())])) <= step + 1e-12


def test_allocate_power_finds_the_floor():
    # strictly increasing objective: the best power is the box's lower edge
    rng = default_rng(32)
    for _ in range(25):
        params = _random_params(rng)
        res = allocate_power(params)
        floor_value = objective(params, params.p_min)
        assert res.power == params.p_min
        assert res.value == floor_value


# -------------------------------------------------------------- shape probe


def test_probe_accepts_the_real_objective():
    rng = default_rng(33)
    for _ in range(200):
        report = quasiconvexity_probe(_random_params(rng))
        assert report.unimodal
        assert report.violations == ()


def test_probe_flags_a_bump():
    # W-shaped stand-in: two valleys split the sublevel sets
    params = PairParams(1.0, 1e4, 1e-3, 1.0)

    def wavy(p):
        u = (math.log10(p) + 1.5) / 1.5  # maps the box onto [-1, 1]
        return (u * u - 0.5) ** 2

    report = quasiconvexity_probe(params, num_samples=257, fn=wavy)
    assert not report.unimodal
    assert len(report.violations) > 0


def test_probe_grid_floor():
    with pytest.raises(InvalidParameterError):
        quasiconvexity_probe(PairParams(1.0, 1.0, 1e-3, 1.0), num_samples=2)


# ------------------------------------------------------------ radio wrapper


def test_solve_pair_record_is_consistent():
    cfg = RadioConfig(noise_power=1e-13)
    topo = _one_server_topo([[1e-9]], bits=200_000)
    smap = assign_subcarriers([(0, 0)], 128)
    rec = solve_pair((0, 0), smap, topo, cfg)
    assert rec.device == 0 and rec.server == 0
    assert rec.power == 1e-3  # the monotone objective hits the floor
    assert math.isclose(rec.energy_joules, rec.power * rec.transfer_seconds, rel_tol=1e-12)
    assert rec.transfer_seconds == topo.device(0).data_bits / rec.rate


def test_solve_pair_sinr_equals_network_sinr():
    """One noise floor per pair serves the coefficients and the SINR, bit for bit."""
    cfg = RadioConfig(subcarriers=4)
    layout = TopologyParams(num_servers=5, devices_per_server=12, cell_radius=300.0)
    topo = place_topology(layout, default_rng(4), counts=np.ones((60, 10), dtype=np.int64))
    pairs = list(enumerate(topo.home.tolist()))
    smap = assign_subcarriers(pairs, cfg.subcarriers)
    for pair in pairs:
        rec = solve_pair(pair, smap, topo, cfg)
        assert rec.sinr == sinr(pair, rec.power, smap, topo, cfg)
        assert rec.rate == rate(rec.sinr, cfg)
        assert rec.energy_joules == rec.power * rec.transfer_seconds
    # the pairs share subcarriers across cells, so the floors carry interference
    assert any(effective_interference(p, smap, topo, cfg) > cfg.noise_power for p in pairs)
