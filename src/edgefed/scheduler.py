"""Offload scheduling: which device sends its data to which edge server.

The divergence-aware policy greedily hands each server the candidate whose
label distribution is closest, in KL divergence, to what the server still
needs to reach the global target, scoring all remaining candidates in one
array op per pick. Two baselines are provided: nearest device first, one
sort per server, and uniformly random order, one draw per step. Each policy
is an order of device ids over the topology's (N x C) count matrix.
All policies trace the KL divergence of the growing server dataset
against the global target after every merge; each server's trace and plan
cut come from one cumulative sum over its picked devices' count rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import (
    LabelDistribution,
    normalize,
    smoothed_rows,
    uniform_distribution,
)
# ``kl`` is not called here, but the benchmark's tracer wraps ``scheduler.kl``
# by name, so it stays importable from this module.
from .divergence import kl  # noqa: F401
from .errors import DimensionMismatchError, InvalidParameterError
from .network import (
    OffloadPlan,
    RadioConfig,
    Topology,
    assign_subcarriers,
    noise_floors,
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


def uniform_target(num_servers: int, gamma: int, num_classes: int) -> LabelDistribution:
    """Uniform global target sized to ``num_servers * gamma`` samples."""
    if num_servers < 1:
        raise InvalidParameterError("need at least one server")
    if gamma <= 0:
        raise InvalidParameterError("gamma must be positive")
    return uniform_distribution(num_classes, num_servers * gamma)


def serviceable_set(server_id: int, topo: Topology) -> list:
    """Device ids a server may pull data from, ascending.

    A device qualifies when the server is its home (nearest) server and it
    actually holds samples.
    """
    return np.flatnonzero((topo.home == server_id) & (topo.counts.sum(axis=1) > 0)).tolist()


def _kl_rows(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl(row, q)`` for every smoothed row of ``probs``, bit for bit.

    Smoothed rows have no zero entries, so no term is masked, and a row sum
    adds its terms in the same order as the scalar sum.
    """
    return np.maximum(np.sum(probs * np.log(probs / q), axis=1), 0.0)


def _kl_scores(probs: np.ndarray, held: np.ndarray, target_counts: np.ndarray) -> np.ndarray:
    """KL divergence of every row of ``probs`` to the server's remaining demand.

    The demand is the server's shortfall ``max(target - held, 0)``, smoothed
    as ``normalize`` smooths a histogram. Each entry equals
    ``kl(row, demand)`` bit for bit.
    """
    demand = smoothed_rows(np.maximum(target_counts - held, 0)[None])[0]
    return _kl_rows(probs, demand)


def _min_kl_order(counts, target_counts):
    """Greedy min-KL order of the rows of ``counts``: one array op per pick.

    ``argmin`` returns the first minimum and rows are in ascending id, so
    ties go to the lowest id. Once the held counts reach ``target_counts``
    in every class, the demand is the zero row for good and every remaining
    score is fixed. The rest of the order is then one stable ``argsort`` of
    that step's scores, taken rows scored ``inf`` to sort last and be cut
    off; equal scores keep ascending id, as successive ``argmin`` would.
    """
    n = len(counts)
    probs = smoothed_rows(counts)
    held = np.zeros_like(target_counts)
    taken = np.zeros(n, dtype=bool)
    for k in range(n):
        scores = _kl_scores(probs, held, target_counts)
        scores[taken] = np.inf
        if (held >= target_counts).all():
            yield from np.argsort(scores, kind="stable")[: n - k].tolist()
            return
        i = int(np.argmin(scores))
        taken[i] = True
        held += counts[i]
        yield i


def _nearest_order(ids, topo, server_id):
    """Nearest device first, lowest id on equal distance: one sort per server."""
    return sorted(ids, key=lambda u: (topo.distance(u, server_id), u))


def _random_order(ids, rng):
    """Uniformly random order, one draw per step: a stopped server draws no more."""
    remaining = list(ids)
    while remaining:
        yield remaining.pop(int(rng.integers(len(remaining))))


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
    order, the noise floors of the complete co-channel picture are computed
    once, and the power solver prices each planned pair at its floor.

    Args:
        cfg: scheduling inputs.
        topo: placed topology.
        radio: uplink parameters (subcarrier count, powers, noise).
        rng: required by the random policy only.
        power_solver: optional override with signature
            ``(pair, smap, topo, radio, noise_floor) -> TransferRecord``,
            called with each pair's entry of ``noise_floors``.

    Returns:
        Tuple ``(plan, trace)``.
    """
    if cfg.policy == Policy.RANDOM and rng is None:
        raise InvalidParameterError("the random policy needs an rng")
    counts = topo.counts
    if len(counts) and counts.shape[1] != cfg.target.num_classes:
        raise DimensionMismatchError("device histograms and target differ in class count")
    sizes = counts.sum(axis=1).tolist()
    target_probs = normalize(cfg.target)
    trace_rows = []
    plan_pairs = []
    for server in topo.servers:
        s = server.id
        ids = serviceable_set(s, topo)
        if not ids:
            continue
        if cfg.policy == Policy.MIN_KL:
            order = (ids[i] for i in _min_kl_order(counts[ids], cfg.target.counts))
        elif cfg.policy == Policy.NEAREST:
            order = _nearest_order(ids, topo, s)
        else:
            order = _random_order(ids, rng)
        picked, total = [], 0
        for u in order:
            picked.append(u)
            total += sizes[u]
            if cfg.stop_at_threshold and total >= cfg.gamma:
                break
        held = np.cumsum(counts[picked], axis=0)
        kls = _kl_rows(smoothed_rows(held), target_probs).tolist()
        totals = held.sum(axis=1).tolist()
        # A pick is planned while the total before it is below gamma.
        plan_pairs.extend((u, s) for u in picked[: bisect_left(totals, cfg.gamma) + 1])
        trace_rows.extend(
            TraceRow(round=k + 1, server=s, kl=kls[k], total=totals[k], device=u)
            for k, u in enumerate(picked)
        )
    smap = assign_subcarriers(plan_pairs, radio.subcarriers)
    floors = noise_floors(plan_pairs, smap, topo, radio).tolist()
    solver = power_solver or solve_pair
    entries = tuple(
        solver(pair, smap, topo, radio, floor) for pair, floor in zip(plan_pairs, floors)
    )
    return OffloadPlan(entries), OffloadTrace(tuple(trace_rows))
