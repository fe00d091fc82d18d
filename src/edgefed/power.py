"""Per-pair transmit-power allocation by quasi-convex bisection.

Interference from co-channel transfers is folded into an effective noise
floor using the interferers' rated power, which decouples the pairs: each
transfer then minimises its own energy ``epsilon * p / log2(1 + kappa * p)``
subject to a box constraint on p. The objective's sublevel sets are
intervals, so bisection on the objective value with a convex feasibility
subproblem converges to the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError
from .network import (
    RadioConfig,
    SubcarrierMap,
    Topology,
    TransferRecord,
    rate,
    sinr,
    transfer_time,
)

# Transmit floor in watts. The energy objective is strictly increasing in p,
# so the optimum sits on the lower box edge; a zero floor would push the
# solver toward p = 0 and an unbounded transfer time.
DEFAULT_P_MIN = 1e-3

_GOLDEN_TOL = 1e-12
_BRACKET_GUARD = 1.0 - 1e-6


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


def effective_interference(
    pair, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig
) -> float:
    """Noise floor seen by one pair with co-channel users at rated power."""
    u, s = pair
    k = smap.subcarrier(pair)
    acc = cfg.noise_power
    for v, _sv in smap.cochannel[k]:
        if v == u:
            continue
        acc += cfg.rated_power * topo.gain(v, s)
    return acc


def pair_params(
    pair,
    smap: SubcarrierMap,
    topo: Topology,
    cfg: RadioConfig,
    p_min: float = DEFAULT_P_MIN,
) -> PairParams:
    """Build the decoupled objective coefficients for one planned pair."""
    u, s = pair
    noise_floor = effective_interference(pair, smap, topo, cfg)
    bits = topo.device(u).data_bits
    if bits <= 0:
        raise InvalidParameterError(f"device {u} has no data to transfer")
    return PairParams(
        epsilon=bits / cfg.subcarrier_bandwidth,
        kappa=topo.gain(u, s) / noise_floor,
        p_min=p_min,
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
    """
    if p <= 0:
        raise InvalidParameterError("power must be positive")
    return params.epsilon * p - t * math.log2(1.0 + params.kappa * p)


def _golden_min(fn: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section minimisation over [lo, hi]; returns (argmin, min)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x = c if fc <= fd else d
    fx = min(fc, fd)
    flo, fhi = fn(lo), fn(hi)
    if flo <= fx:
        x, fx = lo, flo
    if fhi < fx:
        x, fx = hi, fhi
    return x, fx


@dataclass(frozen=True)
class PowerResult:
    """Outcome of one bisection solve."""

    power: float
    value: float
    iterations: int
    bracket: tuple


def allocate_power(params: PairParams, tol: float | None = None) -> PowerResult:
    """Minimise transfer energy over the power box by value bisection.

    The search brackets the optimal objective between an analytic lower
    bound just under the p -> 0 infimum ``epsilon * ln2 / kappa`` and the
    energy at the transmit floor. Each bisection step asks whether a
    candidate value t is achievable by minimising the convex feasibility
    surrogate over the box with golden-section search.

    Args:
        params: decoupled objective coefficients.
        tol: absolute stopping width on the objective value; defaults to
            1e-9 of the initial bracket width.

    Returns:
        ``PowerResult`` with the best feasible power, its exact energy, the
        bisection step count, and the final bracket.
    """
    lower = params.epsilon * math.log(2.0) / params.kappa * _BRACKET_GUARD
    upper = objective(params, params.p_min)
    width = upper - lower
    if tol is None:
        tol = 1e-9 * width
    if tol <= 0:
        raise InvalidParameterError("tolerance must be positive")
    best_p = params.p_min
    lo, hi = lower, upper
    iterations = 0
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        p_at, phi_min = _golden_min(
            lambda p: feasibility(params, p, mid),
            params.p_min,
            params.p_max,
            _GOLDEN_TOL,
        )
        if phi_min <= 0.0:
            hi = mid
            best_p = p_at
        else:
            lo = mid
        iterations += 1
    return PowerResult(
        power=best_p,
        value=objective(params, best_p),
        iterations=iterations,
        bracket=(lo, hi),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Sublevel-interval check of the energy objective on a sampled grid."""

    unimodal: bool
    violations: tuple
    grid_size: int


def quasiconvexity_probe(
    params: PairParams,
    num_samples: int = 256,
    fn: Callable[[float], float] | None = None,
) -> ProbeReport:
    """Test that every sublevel set of the objective is an interval.

    Samples the objective (or a supplied stand-in) on a log-spaced power
    grid and flags every index that rises above some value both to its left
    and to its right, which would split a sublevel set in two.

    Args:
        params: coefficients defining the grid and default objective.
        num_samples: grid resolution, at least 3.
        fn: optional replacement for the objective, used to verify the
            probe itself catches shape defects.
    """
    if num_samples < 3:
        raise InvalidParameterError("need at least three grid points")
    grid = np.geomspace(params.p_min, params.p_max, num_samples)
    f = fn if fn is not None else (lambda p: objective(params, p))
    values = np.asarray([f(float(p)) for p in grid])
    tol = 1e-12 * float(np.max(np.abs(values))) if values.size else 0.0
    prefix = np.minimum.accumulate(values)
    suffix = np.minimum.accumulate(values[::-1])[::-1]
    bad = []
    for j in range(1, num_samples - 1):
        if prefix[j - 1] < values[j] - tol and suffix[j + 1] < values[j] - tol:
            bad.append(j)
    return ProbeReport(unimodal=not bad, violations=tuple(bad), grid_size=num_samples)


def solve_pair(
    pair,
    smap: SubcarrierMap,
    topo: Topology,
    cfg: RadioConfig,
    *,
    p_min: float = DEFAULT_P_MIN,
    tol: float | None = None,
) -> TransferRecord:
    """Allocate power for one pair and compute its radio record."""
    params = pair_params(pair, smap, topo, cfg, p_min=p_min)
    result = allocate_power(params, tol)
    u, s = pair
    snr = sinr(pair, result.power, smap, topo, cfg)
    r = rate(snr, cfg)
    seconds = transfer_time(topo.device(u).data_bits, r)
    return TransferRecord(
        device=u,
        server=s,
        subcarrier=smap.subcarrier(pair),
        power=result.power,
        sinr=snr,
        rate=r,
        transfer_seconds=seconds,
        energy_joules=result.power * seconds,
    )
