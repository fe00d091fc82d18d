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

from .distributions import LabelDistribution, _frozen_array, _trusted
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
    """Placed servers and a population of devices held as arrays, one row each.

    Every server id is its position in ``servers``, and device ``u`` is
    row ``u`` of every array: ``positions[u]`` its (x, y), ``counts[u]``
    its label histogram, ``home[u]`` its home server, ``data_bits[u]`` its
    payload and ``gains[u, s]`` the linear power gain from it to server
    ``s``. Each array is kept as a read-only copy.
    """

    servers: tuple
    positions: np.ndarray
    counts: np.ndarray
    home: np.ndarray
    data_bits: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        for i, server in enumerate(self.servers):
            if server.id != i:
                raise InvalidInputError(f"server at position {i} has id {server.id}")
        n, classes = len(self.counts), np.shape(self.counts)[-1]
        for name, dtype, shape in (
            ("positions", np.float64, (n, 2)),
            ("counts", np.int64, (n, classes)),
            ("home", np.int64, (n,)),
            ("data_bits", np.int64, (n,)),
            ("gains", np.float64, (n, len(self.servers))),
        ):
            arr = _frozen_array(getattr(self, name), dtype)
            if arr.shape != shape:
                raise InvalidInputError(f"{name} shape mismatch: {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        bad = np.flatnonzero((self.counts < 0).any(axis=1))
        if bad.size:
            raise InvalidInputError(f"device {bad[0]} has a negative label count")
        bad = np.flatnonzero((self.home < 0) | (self.home >= len(self.servers)))
        if bad.size:
            raise InvalidInputError(f"device {bad[0]}: no home server with id {self.home[bad[0]]}")

    def device(self, device_id: int) -> Device:
        """Device ``device_id``'s record, built from its rows."""
        if not (0 <= device_id < len(self.home)):
            raise UnknownPairError(f"no device with id {device_id}")
        return Device(
            id=device_id,
            position=tuple(self.positions[device_id].tolist()),
            data_bits=int(self.data_bits[device_id]),
            dist=_trusted(LabelDistribution, counts=self.counts[device_id]),
            home_server=int(self.home[device_id]),
        )

    def check_pair(self, device_id: int, server_id: int) -> None:
        if not (0 <= server_id < len(self.servers)):
            raise UnknownPairError(f"no server with id {server_id}")
        if not (0 <= device_id < len(self.home)):
            raise UnknownPairError(f"no device with id {device_id}")

    def gain(self, device_id: int, server_id: int) -> float:
        self.check_pair(device_id, server_id)
        return float(self.gains[device_id, server_id])

    def distance(self, device_id: int, server_id: int) -> float:
        self.check_pair(device_id, server_id)
        return math.dist(self.positions[device_id].tolist(), self.servers[server_id].position)


def channel_gain(
    distance: float | np.ndarray,
    exponent: float = 3.0,
    *,
    reference_gain: float = 1e-3,
    reference_distance: float = 1.0,
) -> float | np.ndarray:
    """Log-distance path gain; ``place_topology`` draws the fading.

    Args:
        distance: transmitter-receiver separation in metres, positive; a
            float or an array of them.
        exponent: path-loss exponent.

    Returns:
        Linear power gain ``g0 * (d0 / d)^exponent``, elementwise for an
        array. Distances inside the reference distance saturate at the
        reference gain.
    """
    if np.any(np.asarray(distance) <= 0):
        raise InvalidParameterError("distance must be positive")
    d = np.maximum(distance, reference_distance)
    # float_power calls C pow as Python's ** does; np.power differs in the last bit.
    return reference_gain * np.float_power(reference_distance / d, exponent)


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
    counts: np.ndarray,
    bits_per_sample: int = DEFAULT_BITS_PER_SAMPLE,
) -> Topology:
    """Place servers on a hex lattice and scatter devices inside their cells.

    Each device is drawn uniformly in its home server's cell disc and
    re-drawn until that server is also its nearest one, so home membership
    and nearest-server membership coincide. Each accepted draw keeps the
    row of ``math.dist`` distances its nearest test used, and channel gains
    are computed once here and frozen: one ``channel_gain`` call on those
    (devices x servers) rows, then one block of Exp(1) fading draws.

    Args:
        params: lattice size, cell radius and channel model; a scenario's
            ``topology`` section, whose constructor checks every range.
        rng: placement and fading randomness.
        counts: (devices, C) label-count matrix, one row per device in
            server-major order.
        bits_per_sample: payload bits per histogram sample.

    Returns:
        The placed, immutable topology.
    """
    num_servers, cell_radius = params.num_servers, params.cell_radius
    total_devices = num_servers * params.devices_per_server
    if len(counts) != total_devices:
        raise InvalidInputError(f"expected {total_devices} device histograms, got {len(counts)}")
    # Summed and multiplied as Python ints, so a payload past int64 cannot wrap.
    data_bits = np.sum(counts, axis=1, dtype=object) * bits_per_sample
    over = np.flatnonzero(data_bits >= 2**63)
    if over.size:
        raise InvalidInputError(
            f"device {over[0]}: {data_bits[over[0]]} payload bits at bits_per_sample "
            f"{bits_per_sample} do not fit in int64"
        )
    centers = _hex_centers(num_servers, cell_radius)
    servers = tuple(Server(i, c) for i, c in enumerate(centers))
    positions, rows = [], []
    for s, (cx, cy) in enumerate(centers):
        for _ in range(params.devices_per_server):
            while True:
                radius = cell_radius * math.sqrt(float(rng.random()))
                angle = 2.0 * math.pi * float(rng.random())
                px = cx + radius * math.cos(angle)
                py = cy + radius * math.sin(angle)
                row = [math.dist((px, py), c) for c in centers]
                if row.index(min(row)) == s:
                    break
            positions.append((px, py))
            rows.append(row)
    gains = channel_gain(
        np.array(rows),
        params.path_loss_exponent,
        reference_gain=params.reference_gain,
        reference_distance=params.reference_distance,
    )
    if params.fading:
        gains *= rng.exponential(1.0, size=gains.shape)
    home = np.repeat(np.arange(num_servers), params.devices_per_server)
    return Topology(servers, positions, counts, home, data_bits, gains)


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


# Most entries one ``noise_floors`` block holds: 8 MB of float64.
_FLOOR_BLOCK_VALUES = 1 << 20


def noise_floors(
    pairs: Sequence, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig
) -> np.ndarray:
    """Each pair's noise plus the received power of its co-channel transfers.

    Every other transfer on a pair's subcarrier interferes at the rated
    power. One array op prices a subcarrier's co-channel group, ascending by
    device id: row j of ``rated_power * gains`` holds every group member's
    power at receiver j's server, with its own entry zeroed, and
    ``np.cumsum`` along the row adds those left to right, as a Python loop
    from 0.0 would (``np.sum`` along a row is pairwise and changes bits). The
    noise is added last. A group is priced at most ``_FLOOR_BLOCK_VALUES``
    entries at a time, a slice of receiver rows each, so one subcarrier
    shared by thousands of pairs stays small. Returns a float64 array
    aligned with ``pairs``; a pair with no subcarrier raises
    ``UnknownPairError``.
    """
    floor_of = {}
    for k in sorted({smap.subcarrier(pair) for pair in pairs}):
        group = smap.cochannel[k]
        ids, servers = np.array(group, dtype=np.int64).T
        outside = (ids < 0) | (ids >= len(topo.home))
        bad = np.flatnonzero(outside | (servers < 0) | (servers >= len(topo.servers)))
        if bad.size:
            topo.check_pair(*group[bad[0]])
        rows = max(1, _FLOOR_BLOCK_VALUES // len(group))
        for lo in range(0, len(group), rows):
            block = topo.gains[ids[None, :], servers[lo : lo + rows, None]]
            block *= cfg.rated_power
            np.fill_diagonal(block[:, lo:], 0.0)
            np.cumsum(block, axis=1, out=block)
            floor_of.update(zip(group[lo : lo + rows], (block[:, -1] + cfg.noise_power).tolist()))
    return np.array([floor_of[pair] for pair in pairs], dtype=np.float64)


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

    ``noise_floor`` is the pair's entry of ``noise_floors``, and the SINR is
    ``gain * power / noise_floor``.
    """
    if power < 0:
        raise InvalidParameterError("transmit power must be non-negative")
    u, s = pair
    snr = topo.gain(u, s) * power / noise_floor
    r = rate(snr, cfg)
    seconds = transfer_time(int(topo.data_bits[u]), r)
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
    pairs = plan.pairs()
    total = 0.0
    for pair, floor in zip(pairs, noise_floors(pairs, smap, topo, cfg).tolist()):
        if pair not in powers:
            raise UnknownPairError(f"no power allocated for pair {pair}")
        total += transfer_record(pair, float(powers[pair]), floor, smap, topo, cfg).energy_joules
    return total
