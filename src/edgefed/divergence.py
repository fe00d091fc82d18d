"""Statistical-distance measures and the heterogeneity drift bound.

KL divergence between label distributions drives the offload scheduler.
Gradient divergence measures how far one server's loss gradient sits from
the population gradient; together with per-server smoothness constants it
feeds a per-round upper bound on the parameter gap between a heterogeneous
federated run and its shuffled twin.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .distributions import Dataset
from .errors import (
    DimensionMismatchError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
)
from .federated import PairedRun, loss_and_grad

BOUND_SLACK = 1e-9


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback-Leibler divergence KL(p || q) in nats.

    Terms with ``p[c] == 0`` contribute zero. ``q`` must be strictly
    positive, which smoothed histograms always are.

    Args:
        p: left distribution, a float64 probability row.
        q: right (reference) distribution of the same shape, strictly positive.

    Returns:
        The divergence, clamped at zero against rounding noise.
    """
    if p.shape != q.shape:
        raise DimensionMismatchError("distributions cover different class counts")
    if np.any(q <= 0.0):
        raise InvalidInputError("reference distribution must be strictly positive")
    mask = p > 0.0
    value = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(value, 0.0)


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Per-server gradient smoothness constants and their size-weighted mix."""

    per_server: tuple
    sizes: tuple
    combined: float


def lipschitz_bound(datasets: Sequence[Dataset]) -> SmoothnessEstimate:
    """Conservative smoothness constants for softmax cross-entropy.

    For each dataset the constant is ``max_i ||x_i||^2``, the largest squared
    feature norm, which upper-bounds the loss curvature under mean reduction.
    The combined constant is the data-size weighted average, matching how the
    population loss mixes the server losses.
    """
    if len(datasets) == 0:
        raise InvalidInputError("need at least one dataset")
    per_server = []
    sizes = []
    for d in datasets:
        if len(d) == 0:
            raise InvalidInputError("smoothness of an empty dataset is undefined")
        norms = np.sum(d.features * d.features, axis=1)
        per_server.append(float(norms.max()))
        sizes.append(len(d))
    total = float(sum(sizes))
    combined = float(sum(s * l for s, l in zip(sizes, per_server)) / total)
    return SmoothnessEstimate(tuple(per_server), tuple(sizes), combined)


def drift_bound(
    prev: float,
    phi: float,
    sizes: Sequence[int],
    gammas: Sequence[float],
    lipschitz: Sequence[float],
    t: int,
) -> float:
    """One recurrence step of the heterogeneity drift bound.

    Args:
        prev: bound value carried in from the previous round.
        phi: learning rate.
        sizes: per-server data sizes.
        gammas: per-server gradient-divergence levels.
        lipschitz: per-server smoothness constants.
        t: round index (the growth exponent), at least 1.

    Returns:
        ``prev + phi * sum_s sizes[s] * gammas[s] * (phi * L[s] + 1)^t / total``.
    """
    if not (len(sizes) == len(gammas) == len(lipschitz)):
        raise DimensionMismatchError("sizes, gammas, and lipschitz must align")
    if phi < 0:
        raise InvalidParameterError("learning rate must be non-negative")
    if t < 1:
        raise InvalidParameterError("round index must be at least 1")
    total = float(sum(sizes))
    if total <= 0:
        raise InvalidInputError("total data size must be positive")
    acc = 0.0
    for s, g, l in zip(sizes, gammas, lipschitz):
        acc += s * g * (phi * l + 1.0) ** t
    return prev + phi * acc / total


@dataclass(frozen=True)
class BoundCheck:
    """One audited round: measured gap versus the drift bound."""

    round: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class DivergenceReport:
    """Audit result across all rounds of a paired run."""

    checks: tuple
    gammas: tuple
    lipschitz: SmoothnessEstimate
    phi: float

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "phi": self.phi,
            "gammas": list(self.gammas),
            "lipschitz": list(self.lipschitz.per_server),
            "combined_lipschitz": self.lipschitz.combined,
            "all_hold": self.all_hold,
            "rounds": [
                {f.name: getattr(c, f.name) for f in fields(BoundCheck)}
                for c in self.checks
            ],
        }


def audit_drift_bound(
    paired: PairedRun, server_datasets: Sequence[Dataset]
) -> DivergenceReport:
    """Check the drift bound against a paired run, round by round.

    The divergence level entering round t is the running maximum of the
    per-server gradient divergences at the start-of-round models of the
    heterogeneous (left) trajectory. Server s's divergence at a snapshot is
    the distance between its gradient there, which ``paired.gradients``
    holds, and the ``loss_and_grad`` gradient on the union of the server
    datasets, one pooled pass per snapshot. The smoothness constants come from
    :func:`lipschitz_bound` over the same datasets. The bound accumulates
    through the recurrence in :func:`drift_bound`; a round holds when the
    measured gap does not exceed the bound beyond a small slack.

    Args:
        paired: lock-step trajectories from :func:`federated.run_paired`.
        server_datasets: the heterogeneous server datasets of the left run.
    """
    rounds = len(paired.distances)
    if len(paired.left_params) != len(paired.right_params):
        raise InvalidComparisonError("paired trajectories differ in length")
    if len(paired.left_params) != rounds + 1:
        raise InvalidComparisonError("trajectory snapshots do not match round count")
    if len(server_datasets) == 0:
        raise InvalidInputError("need the heterogeneous server datasets")
    if len(paired.gradients) != rounds:
        raise InvalidComparisonError("server gradients do not match round count")
    if any(len(grads) != len(server_datasets) for grads in paired.gradients):
        raise InvalidComparisonError("need one server gradient per server dataset")
    smoothness = lipschitz_bound(server_datasets)
    union = Dataset.concat(list(server_datasets))
    phi = paired.cfg.phi
    sizes = smoothness.sizes
    running = np.zeros(len(server_datasets))
    bound = 0.0
    checks = []
    for t in range(1, rounds + 1):
        _, pooled = loss_and_grad(paired.left_params[t - 1], union)
        gammas = [g.distance(pooled) for g in paired.gradients[t - 1]]
        running = np.maximum(running, gammas)
        bound = float(
            drift_bound(bound, phi, sizes, running, smoothness.per_server, t)
        )
        lhs = float(paired.distances[t - 1])
        checks.append(
            BoundCheck(
                round=t, lhs=lhs, rhs=bound, holds=bool(lhs <= bound + BOUND_SLACK)
            )
        )
    return DivergenceReport(
        checks=tuple(checks),
        gammas=tuple(float(g) for g in running),
        lipschitz=smoothness,
        phi=phi,
    )
