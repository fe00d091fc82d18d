"""Cell topology, channel model, subcarrier assignment, and transfer cost.

Edge servers sit on a hexagonal lattice and each serves the devices whose
nearest server it is. Uplinks share an OFDMA band: every transfer occupies
one subcarrier, assigned round robin inside each cell, and co-channel
transfers in other cells appear as interference at the receiving server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .distributions import LabelDistribution, _frozen_array, uniform_distribution
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UnknownPairError,
    UnreachableDeviceError,
)

# Default payload per sample: 16 float32 features plus one label byte.
DEFAULT_BITS_PER_SAMPLE = 8 * (16 * 4 + 1)

# Transmit floor in watts. The energy objective is strictly increasing in p,
# so every pair is priced here; a zero floor would mean p = 0 and an
# unbounded transfer time.
DEFAULT_P_MIN = 1e-3


@dataclass(frozen=True)
class RadioConfig:
    """OFDMA uplink parameters.

    Attributes:
        bandwidth_hz: total band shared by all subcarriers.
        subcarriers: number of equal-width subcarriers.
        noise_power: receiver noise power in watts.
        max_power: device transmit-power ceiling in watts.
        rated_power: nominal transmit power assumed for interferers.
    """

    bandwidth_hz: float = 5e6
    subcarriers: int = 128
    noise_power: float = 1e-13
    max_power: float = 1.0
    rated_power: float = 0.5

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise InvalidParameterError("bandwidth must be positive")
        if self.subcarriers < 1:
            raise InvalidParameterError("need at least one subcarrier")
        if self.noise_power <= 0:
            raise InvalidParameterError("noise power must be positive")
        if self.max_power <= DEFAULT_P_MIN:
            raise InvalidParameterError(
                f"max power must exceed the {DEFAULT_P_MIN} W transmit floor"
            )
        if not (0 < self.rated_power <= self.max_power):
            raise InvalidParameterError("rated power must lie in (0, max_power]")

    @property
    def subcarrier_bandwidth(self) -> float:
        return self.bandwidth_hz / self.subcarriers


@dataclass(frozen=True)
class TopologyParams:
    num_servers: int = 10
    devices_per_server: int = 20
    cell_radius: float = 500.0
    path_loss_exponent: float = 3.0
    reference_gain: float = 1e-3
    reference_distance: float = 1.0
    fading: bool = True

    def __post_init__(self):
        for name in ("num_servers", "devices_per_server"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be at least 1")
        for name in ("cell_radius", "path_loss_exponent", "reference_gain", "reference_distance"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")


@dataclass(frozen=True)
class Server:
    id: int
    position: tuple


@dataclass(frozen=True)
class Device:
    """One user device: location, payload size, and label histogram."""

    id: int
    position: tuple
    data_bits: int
    dist: LabelDistribution
    home_server: int


@dataclass(frozen=True)
class Topology:
    """Placed servers and devices with frozen channel gains.

    Every device and server id is its position in ``devices`` or
    ``servers``, so ``gains[u, s]`` is the linear power gain from device
    ``u`` to server ``s``.
    """

    servers: tuple
    devices: tuple
    gains: np.ndarray

    def __post_init__(self):
        g = _frozen_array(self.gains, np.float64)
        if g.shape != (len(self.devices), len(self.servers)):
            raise InvalidInputError("gain matrix shape mismatch")
        for kind, items in (("device", self.devices), ("server", self.servers)):
            for i, item in enumerate(items):
                if item.id != i:
                    raise InvalidInputError(f"{kind} at position {i} has id {item.id}")
        object.__setattr__(self, "gains", g)

    def device(self, device_id: int) -> Device:
        if not (0 <= device_id < len(self.devices)):
            raise UnknownPairError(f"no device with id {device_id}")
        return self.devices[device_id]

    def gain(self, device_id: int, server_id: int) -> float:
        if not (0 <= server_id < len(self.servers)):
            raise UnknownPairError(f"no server with id {server_id}")
        if not (0 <= device_id < len(self.devices)):
            raise UnknownPairError(f"no device with id {device_id}")
        return float(self.gains[device_id, server_id])

    def distance(self, device_id: int, server_id: int) -> float:
        d = self.device(device_id)
        s = self.servers[server_id]
        return math.dist(d.position, s.position)


def channel_gain(
    distance: float,
    exponent: float = 3.0,
    *,
    reference_gain: float = 1e-3,
    reference_distance: float = 1.0,
) -> float:
    """Log-distance path gain; ``place_topology`` draws the fading.

    Args:
        distance: transmitter-receiver separation in metres, positive.
        exponent: path-loss exponent.

    Returns:
        Linear power gain ``g0 * (d0 / d)^exponent``. Distances inside the
        reference distance saturate at the reference gain.
    """
    if distance <= 0:
        raise InvalidParameterError("distance must be positive")
    d = max(distance, reference_distance)
    return reference_gain * (reference_distance / d) ** exponent


def _hex_centers(num_servers: int, cell_radius: float) -> list:
    """Hexagonal lattice centers, row by row, spaced sqrt(3) * radius."""
    cols = math.ceil(math.sqrt(num_servers))
    centers = []
    j = 0
    while len(centers) < num_servers:
        for i in range(cols):
            if len(centers) == num_servers:
                break
            x = (i + 0.5 * (j % 2)) * math.sqrt(3.0) * cell_radius
            y = j * 1.5 * cell_radius
            centers.append((x, y))
        j += 1
    return centers


def place_topology(
    params: TopologyParams,
    rng: np.random.Generator,
    *,
    dists: Sequence[LabelDistribution] | None = None,
    bits_per_sample: int = DEFAULT_BITS_PER_SAMPLE,
) -> Topology:
    """Place servers on a hex lattice and scatter devices inside their cells.

    Each device is drawn uniformly in its home server's cell disc and
    re-drawn until that server is also its nearest one, so home membership
    and nearest-server membership coincide. Channel gains for every
    device/server pair are computed once here and frozen: the path loss
    pair by pair on Python floats, then, after placement, one
    (devices x servers) block of Exp(1) fading draws multiplied in.

    Args:
        params: lattice size, cell radius and channel model; a scenario's
            ``topology`` section, whose constructor checks every range.
        rng: placement and fading randomness.
        dists: optional per-device label histograms, server-major order;
            defaults to one sample per class over ten classes.
        bits_per_sample: payload bits per histogram sample.

    Returns:
        The placed, immutable topology.
    """
    num_servers, cell_radius = params.num_servers, params.cell_radius
    total_devices = num_servers * params.devices_per_server
    if dists is None:
        dists = [uniform_distribution(10, 10) for _ in range(total_devices)]
    if len(dists) != total_devices:
        raise InvalidInputError(
            f"expected {total_devices} device histograms, got {len(dists)}"
        )
    centers = _hex_centers(num_servers, cell_radius)
    servers = tuple(Server(i, c) for i, c in enumerate(centers))
    devices = []
    device_id = 0
    for s, (cx, cy) in enumerate(centers):
        for _ in range(params.devices_per_server):
            while True:
                radius = cell_radius * math.sqrt(float(rng.random()))
                angle = 2.0 * math.pi * float(rng.random())
                px = cx + radius * math.cos(angle)
                py = cy + radius * math.sin(angle)
                d2 = [(x - px) * (x - px) + (y - py) * (y - py) for x, y in centers]
                if d2.index(min(d2)) == s:
                    break
            d = dists[device_id]
            devices.append(
                Device(
                    id=device_id,
                    position=(px, py),
                    data_bits=d.total() * bits_per_sample,
                    dist=d,
                    home_server=s,
                )
            )
            device_id += 1
    gains = np.array(
        [
            channel_gain(
                max(math.dist(dev.position, c), params.reference_distance),
                params.path_loss_exponent,
                reference_gain=params.reference_gain,
                reference_distance=params.reference_distance,
            )
            for dev in devices
            for c in centers
        ]
    ).reshape(total_devices, num_servers)
    if params.fading:
        gains *= rng.exponential(1.0, size=gains.shape)
    return Topology(servers, tuple(devices), gains)


@dataclass(frozen=True)
class SubcarrierMap:
    """Frozen subcarrier assignment for a set of active transfers.

    Attributes:
        assignment: (device, server) -> subcarrier index.
        cochannel: subcarrier index -> tuple of (device, server) pairs
            sorted by device id.
    """

    assignment: Mapping
    cochannel: Mapping

    def subcarrier(self, pair) -> int:
        try:
            return self.assignment[pair]
        except KeyError:
            raise UnknownPairError(f"pair {pair} has no subcarrier") from None


def assign_subcarriers(pairs: Sequence, num_subcarriers: int) -> SubcarrierMap:
    """Round-robin subcarrier assignment, restarting at zero in every cell.

    Pairs are processed in the given order; the n-th transfer inside one
    cell lands on subcarrier ``n % num_subcarriers``. Co-channel sets are
    derived from the finished assignment.
    """
    if num_subcarriers < 1:
        raise InvalidParameterError("need at least one subcarrier")
    seen_devices = set()
    counters: dict = {}
    assignment = {}
    for u, s in pairs:
        if u in seen_devices:
            raise InvalidInputError(f"device {u} appears in more than one pair")
        seen_devices.add(u)
        k = counters.get(s, 0)
        assignment[(u, s)] = k % num_subcarriers
        counters[s] = k + 1
    cochannel: dict = {}
    for pair, k in assignment.items():
        cochannel.setdefault(k, []).append(pair)
    frozen = {k: tuple(sorted(v)) for k, v in cochannel.items()}
    return SubcarrierMap(dict(assignment), frozen)


def effective_interference(
    pair, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig
) -> float:
    """Noise plus the received power of every co-channel transfer at rated power.

    The interferers are summed from 0.0 and the noise is added last; SINR
    values depend on that order bit for bit.
    """
    u, s = pair
    interference = 0.0
    for v, _sv in smap.cochannel[smap.subcarrier(pair)]:
        if v != u:
            interference += cfg.rated_power * topo.gain(v, s)
    return cfg.noise_power + interference


def rate(sinr_value: float, cfg: RadioConfig) -> float:
    """Achievable uplink rate in bits per second on one subcarrier."""
    if sinr_value < 0:
        raise InvalidParameterError("SINR must be non-negative")
    return cfg.subcarrier_bandwidth * math.log2(1.0 + sinr_value)


def transfer_time(data_bits: float, rate_bps: float) -> float:
    """Seconds needed to move ``data_bits`` at ``rate_bps``."""
    if rate_bps <= 0:
        raise UnreachableDeviceError("link rate is zero")
    if data_bits < 0:
        raise InvalidParameterError("data volume must be non-negative")
    return data_bits / rate_bps


@dataclass(frozen=True)
class TransferRecord:
    """Radio outcome of one planned device-to-server transfer."""

    device: int
    server: int
    subcarrier: int
    power: float
    sinr: float
    rate: float
    transfer_seconds: float
    energy_joules: float


def transfer_record(
    pair, power: float, noise_floor: float, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig
) -> TransferRecord:
    """Radio record of one transfer at ``power``.

    ``noise_floor`` is the pair's ``effective_interference``, and the SINR is
    ``gain * power / noise_floor``.
    """
    if power < 0:
        raise InvalidParameterError("transmit power must be non-negative")
    u, s = pair
    snr = topo.gain(u, s) * power / noise_floor
    r = rate(snr, cfg)
    seconds = transfer_time(topo.device(u).data_bits, r)
    return TransferRecord(
        device=u,
        server=s,
        subcarrier=smap.subcarrier(pair),
        power=power,
        sinr=snr,
        rate=r,
        transfer_seconds=seconds,
        energy_joules=power * seconds,
    )


@dataclass(frozen=True)
class OffloadPlan:
    """The set of transfers selected by a scheduling run."""

    entries: tuple

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.device in seen:
                raise InvalidInputError(
                    f"device {e.device} assigned to more than one server"
                )
            seen.add(e.device)
            if e.rate <= 0:
                raise UnreachableDeviceError(
                    f"planned transfer for device {e.device} has zero rate"
                )

    def pairs(self) -> list:
        return [(e.device, e.server) for e in self.entries]

    def powers(self) -> dict:
        return {(e.device, e.server): e.power for e in self.entries}

    def to_dict(self) -> dict:
        names = [f.name for f in fields(TransferRecord)]
        return {"entries": [{n: getattr(e, n) for n in names} for e in self.entries]}


def system_cost(
    plan: OffloadPlan,
    powers: Mapping,
    topo: Topology,
    cfg: RadioConfig,
    smap: SubcarrierMap,
) -> float:
    """Total transfer energy of a plan in joules.

    Each pair contributes ``power * transfer_time`` with the time recomputed
    from the given powers, so the same plan can be costed under different
    power policies.
    """
    total = 0.0
    for e in plan.entries:
        pair = (e.device, e.server)
        if pair not in powers:
            raise UnknownPairError(f"no power allocated for pair {pair}")
        floor = effective_interference(pair, smap, topo, cfg)
        total += transfer_record(pair, float(powers[pair]), floor, smap, topo, cfg).energy_joules
    return total
