"""Offload scheduling: which device sends its data to which edge server.

The divergence-aware policy greedily hands each server the candidate whose
label distribution is closest, in KL divergence, to what the server still
needs to reach the global target. Each server's candidates are smoothed once
into an (n x C) probability matrix, and every step scores all remaining rows
in one array op against the demand left by the server's held count row.
Two baselines are provided: nearest device first, ordered by one sort per
server, and uniformly random order, one draw per step. All policies trace
the KL divergence of the growing server dataset against the global target
after every merge; each server's trace is one array op over the cumulative
counts of its picked devices, after its pick loop.
"""

from __future__ import annotations

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
    return [
        d.id for d in topo.devices if d.home_server == server_id and d.dist.total() > 0
    ]


def _kl_rows(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl(row, q)`` for every smoothed row of ``probs``, bit for bit.

    Smoothed rows have no zero entries, so no term is masked, and a row sum
    adds its terms in the same order as the scalar sum.
    """
    return np.maximum(np.sum(probs * np.log(probs / q), axis=1), 0.0)


def _kl_scores(probs: np.ndarray, held: np.ndarray, target_counts: np.ndarray) -> np.ndarray:
    """KL divergence of every row of ``probs`` to the server's remaining demand.

    The demand is the smoothed shortfall of the target counts against the
    counts the server already holds, ``normalize(complement(target, held))``
    bit for bit. Each entry equals ``kl(row, demand)`` bit for bit.
    """
    demand = smoothed_rows(np.maximum(target_counts - held, 0)[None])[0]
    return _kl_rows(probs, demand)


def _min_kl_picker(ids, dists, target_counts):
    """Greedy min-KL order: one array op over the remaining candidates per step.

    ``argmin`` returns the first minimum and rows are in ascending id, so
    ties go to the lowest id. Once the held counts reach ``target_counts``
    in every class, the demand is the zero row for good and every remaining
    score is fixed. The rest of the order is then one stable ``argsort`` of
    that step's scores, taken rows scored ``inf`` so they sort last; equal
    scores keep ascending id, as successive ``argmin`` calls would.
    """
    probs = smoothed_rows(np.array([dists[u].counts for u in ids]))
    taken = np.zeros(len(ids), dtype=bool)
    tail = None

    def pick(held):
        nonlocal tail
        if tail is None:
            scores = _kl_scores(probs, held, target_counts)
            scores[taken] = np.inf
            if not (held >= target_counts).all():
                i = int(np.argmin(scores))
                taken[i] = True
                return ids[i]
            tail = iter(np.argsort(scores, kind="stable").tolist())
        return ids[next(tail)]

    return pick


def _nearest_picker(ids, topo, server_id):
    """Nearest device first, lowest id on equal distance: one sort per server."""
    order = iter(sorted(ids, key=lambda u: (topo.distance(u, server_id), u)))
    return lambda held: next(order)


def _random_picker(ids, rng):
    """Uniformly random order, one draw over the remaining ids per step."""
    remaining = list(ids)

    def pick(held):
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
    if any(d.num_classes != cfg.target.num_classes for d in dists.values()):
        raise DimensionMismatchError("device histograms and target differ in class count")
    target_probs = normalize(cfg.target).probs
    trace_rows = []
    plan_pairs = []
    for server in topo.servers:
        s = server.id
        ids = serviceable_set(s, topo)
        if not ids:
            continue
        if cfg.policy == Policy.MIN_KL:
            pick = _min_kl_picker(ids, dists, cfg.target.counts)
        elif cfg.policy == Policy.NEAREST:
            pick = _nearest_picker(ids, topo, s)
        else:
            pick = _random_picker(ids, rng)
        held = np.zeros(cfg.target.num_classes, dtype=np.int64)
        plan_total = 0
        picked = []
        for _ in ids:
            device = pick(held)
            if plan_total < cfg.gamma:
                plan_pairs.append((device, s))
                plan_total += dists[device].total()
            held = held + dists[device].counts
            picked.append(device)
            if cfg.stop_at_threshold and plan_total >= cfg.gamma:
                break
        held = np.cumsum([dists[u].counts for u in picked], axis=0)
        kls = _kl_rows(smoothed_rows(held), target_probs).tolist()
        totals = held.sum(axis=1).tolist()
        trace_rows.extend(
            TraceRow(round=k + 1, server=s, kl=kls[k], total=totals[k], device=u)
            for k, u in enumerate(picked)
        )
    smap = assign_subcarriers(plan_pairs, radio.subcarriers)
    solver = power_solver or solve_pair
    entries = tuple(solver(pair, smap, topo, radio) for pair in plan_pairs)
    return OffloadPlan(entries), OffloadTrace(tuple(trace_rows))
