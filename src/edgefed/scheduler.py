"""Offload scheduling: which device sends its data to which edge server.

The divergence-aware policy greedily hands each server the candidate whose
label distribution is closest, in KL divergence, to what the server still
needs to reach the global target. Each server's candidates are smoothed once
into an (n x C) probability matrix, and every step scores all remaining rows
in one array op. Two baselines are provided: nearest device first, ordered
by one sort per server, and uniformly random order, one draw per step. All
policies trace the KL divergence of the growing server dataset against the
global target after every merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .distributions import LabelDistribution, normalize, uniform_distribution
from .divergence import complement, kl
from .errors import InvalidParameterError
from .network import (
    OffloadPlan,
    RadioConfig,
    Topology,
    assign_subcarriers,
)
from .power import solve_pair


class Policy(str, Enum):
    """Device-selection rule used by the scheduler."""

    MIN_KL = "mklco"
    NEAREST = "iojr"
    RANDOM = "random"

    @staticmethod
    def parse(name: str) -> "Policy":
        for p in Policy:
            if p.value == name.lower():
                return p
        raise InvalidParameterError(f"unknown policy {name!r}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling inputs.

    Attributes:
        gamma: per-server sample threshold; a server stops adding devices to
            the transfer plan once its planned total reaches it.
        target: global label target the servers collectively chase.
        policy: device-selection rule.
        stop_at_threshold: when True the per-server loop (and its KL trace)
            ends as soon as the plan threshold is reached; when False the
            trace continues through the remaining candidates so the policy's
            long-run matching behaviour stays observable, while the plan is
            still cut at the threshold.
    """

    gamma: int
    target: LabelDistribution
    policy: Policy = Policy.MIN_KL
    stop_at_threshold: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise InvalidParameterError("gamma must be positive")
        if self.target.total() <= 0:
            raise InvalidParameterError("target must contain samples")


@dataclass(frozen=True)
class TraceRow:
    """One merge event: the state of a server after absorbing a device."""

    round: int
    server: int
    kl: float
    total: int
    device: int


@dataclass(frozen=True)
class OffloadTrace:
    """All merge events of a scheduling run, in execution order."""

    rows: tuple

    def per_server(self, server_id: int) -> list:
        return [r for r in self.rows if r.server == server_id]

    def mean_kl_by_round(self, num_servers: int) -> list:
        """Across-server mean KL after each round, carrying finished servers.

        A server that ran out of candidates holds its last value, so the
        mean stays defined for as many rounds as the longest server ran.
        """
        series = [
            [r.kl for r in self.per_server(s)] for s in range(num_servers)
        ]
        series = [s for s in series if s]
        if not series:
            return []
        horizon = max(len(s) for s in series)
        means = []
        for t in range(horizon):
            means.append(
                float(np.mean([s[min(t, len(s) - 1)] for s in series]))
            )
        return means

    def rounds_to_threshold(self, threshold: float, num_servers: int):
        """First round whose across-server mean KL drops below ``threshold``.

        Returns None when the trace never gets there.
        """
        for i, m in enumerate(self.mean_kl_by_round(num_servers)):
            if m < threshold:
                return i + 1
        return None


def uniform_target(num_servers: int, gamma: int, num_classes: int) -> LabelDistribution:
    """Uniform global target sized to ``num_servers * gamma`` samples."""
    if num_servers < 1:
        raise InvalidParameterError("need at least one server")
    if gamma <= 0:
        raise InvalidParameterError("gamma must be positive")
    return uniform_distribution(num_classes, num_servers * gamma)


def serviceable_set(server_id: int, topo: Topology, taken=frozenset()) -> list:
    """Device ids a server may still pull data from, ascending.

    A device qualifies when the server is its home (nearest) server, it has
    not been claimed yet, and it actually holds samples.
    """
    out = [
        d.id
        for d in topo.devices
        if d.home_server == server_id and d.id not in taken and d.dist.total() > 0
    ]
    return sorted(out)


def _candidate_probs(ids: Sequence[int], dists: Mapping) -> np.ndarray:
    """Smoothed label distributions of ``ids``, one row per device, in order."""
    return np.array([normalize(dists[u]).probs for u in ids])


def _kl_scores(
    probs: np.ndarray, server_dist: LabelDistribution, target: LabelDistribution
) -> np.ndarray:
    """KL divergence of every row of ``probs`` to the server's remaining demand.

    The demand is the smoothed complement of the target against what the
    server already holds. Each entry equals ``kl(row, demand)`` bit for bit:
    smoothed rows have no zero entries, so no term is masked, and a row sum
    adds its terms in the same order as the scalar sum.
    """
    demand = normalize(complement(target, server_dist)).probs
    return np.maximum(np.sum(probs * np.log(probs / demand), axis=1), 0.0)


def _min_kl_picker(ids, dists, target):
    """Greedy min-KL order: one array op over the remaining candidates per step.

    ``argmin`` returns the first minimum and rows are in ascending id, so
    ties go to the lowest id.
    """
    probs = _candidate_probs(ids, dists)
    taken = np.zeros(len(ids), dtype=bool)

    def pick(server_dist):
        scores = _kl_scores(probs, server_dist, target)
        scores[taken] = np.inf
        i = int(np.argmin(scores))
        taken[i] = True
        return ids[i]

    return pick


def _nearest_picker(ids, topo, server_id):
    """Nearest device first, lowest id on equal distance: one sort per server."""
    order = iter(sorted(ids, key=lambda u: (topo.distance(u, server_id), u)))
    return lambda server_dist: next(order)


def _random_picker(ids, rng):
    """Uniformly random order, one draw over the remaining ids per step."""
    remaining = list(ids)

    def pick(server_dist):
        u = int(rng.choice(remaining))
        remaining.remove(u)
        return u

    return pick


def run_scheduler(
    cfg: SchedulerConfig,
    topo: Topology,
    radio: RadioConfig,
    rng: np.random.Generator | None = None,
    power_solver: Callable | None = None,
):
    """Run the selected policy over every server and price the plan.

    Servers are processed sequentially by ascending id. Each server merges
    one candidate per round; merges made while the server's planned total is
    still below ``cfg.gamma`` enter the transfer plan. Once every server has
    finished, subcarriers are assigned round robin over the plan in selection
    order and the power solver prices each planned pair against the complete
    co-channel picture.

    Args:
        cfg: scheduling inputs.
        topo: placed topology.
        radio: uplink parameters (subcarrier count, powers, noise).
        rng: required by the random policy only.
        power_solver: optional override with signature
            ``(pair, smap, topo, radio) -> TransferRecord``.

    Returns:
        Tuple ``(plan, trace)``.
    """
    if cfg.policy == Policy.RANDOM and rng is None:
        raise InvalidParameterError("the random policy needs an rng")
    dists = {d.id: d.dist for d in topo.devices}
    target_probs = normalize(cfg.target)
    trace_rows = []
    plan_pairs = []
    for server in topo.servers:
        s = server.id
        ids = serviceable_set(s, topo)
        if cfg.policy == Policy.MIN_KL:
            pick = _min_kl_picker(ids, dists, cfg.target)
        elif cfg.policy == Policy.NEAREST:
            pick = _nearest_picker(ids, topo, s)
        else:
            pick = _random_picker(ids, rng)
        server_dist = LabelDistribution.zeros(cfg.target.num_classes)
        plan_total = 0
        for round_no in range(1, len(ids) + 1):
            device = pick(server_dist)
            if plan_total < cfg.gamma:
                plan_pairs.append((device, s))
                plan_total += dists[device].total()
            server_dist = server_dist.merge(dists[device])
            trace_rows.append(
                TraceRow(
                    round=round_no,
                    server=s,
                    kl=kl(normalize(server_dist), target_probs),
                    total=server_dist.total(),
                    device=device,
                )
            )
            if cfg.stop_at_threshold and plan_total >= cfg.gamma:
                break
    smap = assign_subcarriers(plan_pairs, radio.subcarriers)
    solver = power_solver or solve_pair
    entries = tuple(solver(pair, smap, topo, radio) for pair in plan_pairs)
    return OffloadPlan(entries), OffloadTrace(tuple(trace_rows))
