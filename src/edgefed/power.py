"""Per-pair transmit-power allocation at the transmit floor.

Interference from co-channel transfers is folded into an effective noise
floor per pair, ``network.noise_floors``, which prices the interferers at
their rated power and so decouples the pairs: each transfer then minimises
its own energy ``epsilon * p / log2(1 + kappa * p)`` subject to a box
constraint on p. That energy is strictly increasing in p
(``log2(1 + x) / x`` falls for x > 0), so the optimum is the box floor
``p_min`` and needs no search. A static circuit-power term added to p would
create an interior optimum, which Dinkelbach's (1967) fractional programming
would then find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError
from .network import (
    DEFAULT_P_MIN,
    RadioConfig,
    SubcarrierMap,
    Topology,
    TransferRecord,
    transfer_record,
)


@dataclass(frozen=True)
class PairParams:
    """Decoupled energy-objective coefficients for one transfer.

    Attributes:
        epsilon: payload bits divided by subcarrier bandwidth (seconds per
            unit of log-throughput).
        kappa: channel gain over the effective noise floor (1/watt).
        p_min: lower transmit-power box edge, positive.
        p_max: upper transmit-power box edge.
    """

    epsilon: float
    kappa: float
    p_min: float
    p_max: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be positive")
        if self.kappa <= 0:
            raise InvalidParameterError("kappa must be positive")
        if not (0 < self.p_min < self.p_max):
            raise InvalidParameterError("need 0 < p_min < p_max")


def _pair_params(pair, noise_floor: float, topo: Topology, cfg: RadioConfig) -> PairParams:
    u, s = pair
    kappa = topo.gain(u, s) / noise_floor
    bits = int(topo.data_bits[u])
    if bits <= 0:
        raise InvalidParameterError(f"device {u} has no data to transfer")
    return PairParams(
        epsilon=bits / cfg.subcarrier_bandwidth,
        kappa=kappa,
        p_min=DEFAULT_P_MIN,
        p_max=cfg.max_power,
    )


def objective(params: PairParams, p: float) -> float:
    """Transfer energy ``epsilon * p / log2(1 + kappa * p)`` in joules."""
    if p <= 0:
        raise InvalidParameterError("power must be positive")
    return params.epsilon * p / math.log2(1.0 + params.kappa * p)


def feasibility(params: PairParams, p: float, t: float) -> float:
    """Convex surrogate ``epsilon * p - t * log2(1 + kappa * p)``.

    Non-positive at some p exactly when the objective value t is achievable.
    No pipeline path calls it; it stays because the benchmark's tracer wraps
    it by name.
    """
    if p <= 0:
        raise InvalidParameterError("power must be positive")
    return params.epsilon * p - t * math.log2(1.0 + params.kappa * p)


@dataclass(frozen=True)
class PowerResult:
    """Power chosen for one pair and its transfer energy.

    ``iterations`` is always 0; it stays only because the benchmark's tracer
    reads it by name.
    """

    power: float
    value: float
    iterations: int = 0


def allocate_power(params: PairParams) -> PowerResult:
    """Price one pair at the transmit floor, the exact energy minimiser.

    ``epsilon * p / log2(1 + kappa * p)`` is strictly increasing in p, so the
    minimum over ``[p_min, p_max]`` sits at ``p_min``.
    """
    return PowerResult(power=params.p_min, value=objective(params, params.p_min))


def solve_pair(
    pair, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig, noise_floor: float
) -> TransferRecord:
    """Allocate power for one pair and compute its radio record.

    ``noise_floor`` is the pair's entry of ``network.noise_floors``; it
    serves both the objective coefficients and the ``transfer_record``.
    """
    result = allocate_power(_pair_params(pair, noise_floor, topo, cfg))
    return transfer_record(pair, result.power, noise_floor, smap, topo, cfg)
