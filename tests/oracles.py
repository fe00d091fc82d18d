"""Reference computations that only the tests use.

Each is the plain, one-object form of something the pipeline computes in
bulk, or a reading of its outputs that no artifact needs.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from edgefed.distributions import Dataset, LabelDistribution, _trusted
from edgefed.errors import DimensionMismatchError, InvalidInputError, InvalidParameterError
from edgefed.federated import ModelParams, _average, _softmax_pass, _Stack, loss_and_grad
from edgefed.network import (
    OffloadPlan,
    RadioConfig,
    SubcarrierMap,
    Topology,
    effective_interference,
)
from edgefed.power import PairParams, _pair_params, objective
from edgefed.scheduler import OffloadTrace


def sample_dirichlet(alpha: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Draw one proportion vector from Dir(alpha).

    Args:
        alpha: positive concentration per class, at least two entries.
        rng: source of randomness.

    Returns:
        The drawn point on the simplex, a float64 row.
    """
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidParameterError("alpha needs at least two classes")
    if np.any(arr <= 0):
        raise InvalidParameterError("Dirichlet concentrations must be positive")
    draw = rng.dirichlet(arr)
    # numpy's draw can miss a unit sum by rounding; renormalise it.
    return draw / draw.sum()


def merge(dist: LabelDistribution, other: LabelDistribution) -> LabelDistribution:
    """Elementwise sum of two histograms over the same class set."""
    if other.num_classes != dist.num_classes:
        raise DimensionMismatchError(
            f"cannot merge histograms over {dist.num_classes} and "
            f"{other.num_classes} classes"
        )
    return LabelDistribution(dist.counts + other.counts)


def zeros(num_classes: int) -> LabelDistribution:
    # A list, not np.zeros, so a negative count meets the constructor's check.
    return LabelDistribution([0] * num_classes)


def complement(target: LabelDistribution, server: LabelDistribution) -> LabelDistribution:
    """Remaining per-class demand of a server against a global target.

    Classes the server already holds in excess contribute zero demand.
    """
    if target.num_classes != server.num_classes:
        raise DimensionMismatchError("target and server class counts differ")
    return LabelDistribution(np.maximum(target.counts - server.counts, 0))


def aggregate(models: Sequence[ModelParams], sizes: Sequence[int]) -> ModelParams:
    """Data-size weighted average of server models."""
    if len(models) == 0:
        raise InvalidInputError("nothing to aggregate")
    if len(models) != len(sizes):
        raise DimensionMismatchError("one size per model required")
    if float(sum(sizes)) <= 0:
        raise InvalidInputError("total data size must be positive")
    if any(m.weights.shape != models[0].weights.shape for m in models):
        raise DimensionMismatchError("models disagree on parameter shape")
    return _average(
        np.stack([m.weights for m in models]), np.stack([m.bias for m in models]), sizes
    )


def concat(parts: Sequence[Dataset]) -> Dataset:
    """The datasets' rows stacked in order, as one read-only dataset that owns
    its arrays."""
    if not parts:
        raise InvalidInputError("cannot concatenate zero datasets")
    feats = np.concatenate([p.features for p in parts], axis=0)
    labels = np.concatenate([p.labels for p in parts], axis=0)
    return _trusted(Dataset, features=feats, labels=labels)


def powers(plan: OffloadPlan) -> dict:
    return {(e.device, e.server): e.power for e in plan.entries}


def gradient_divergence(
    params: ModelParams, server_data: Dataset, global_data: Dataset
) -> float:
    """Euclidean norm of the gap between server and population gradients.

    Both gradients are evaluated at the same parameters; the norm runs over
    weights and bias jointly.
    """
    _, g_server = loss_and_grad(params, server_data)
    _, g_global = loss_and_grad(params, global_data)
    return g_server.distance(g_global)


def server_gradients(snapshots: Sequence[ModelParams], datasets: Sequence[Dataset]):
    """Yield, per snapshot, each dataset's ``loss_and_grad`` gradient there.

    One stacked pass per snapshot covers every dataset.
    """
    if len(snapshots) == 0:
        return
    stack = _Stack(datasets, snapshots[0].num_classes)
    for w in snapshots:
        _, grad_w, grad_b = _softmax_pass(
            np.stack([w.weights] * len(datasets)), np.stack([w.bias] * len(datasets)), stack
        )
        yield [ModelParams(w, b) for w, b in zip(grad_w, grad_b)]


def measure_gradient_divergences(
    snapshots: Sequence[ModelParams], server_datasets: Sequence[Dataset]
) -> np.ndarray:
    """Per-snapshot, per-server gradient divergences against the pooled data.

    Entry (i, s) is the distance between ``loss_and_grad``'s gradients on
    server s and on the union, both at snapshot i. A snapshot costs one pass
    over the union plus one stacked pass that takes every server's gradient
    at once: 2N rows for a union of N samples.

    Returns a matrix of shape (len(snapshots), num_servers).
    """
    if len(server_datasets) == 0:
        raise InvalidInputError("need at least one server dataset")
    union = concat(list(server_datasets))
    out = np.empty((len(snapshots), len(server_datasets)))
    per_snapshot = server_gradients(snapshots, server_datasets)
    for i, (w, grads) in enumerate(zip(snapshots, per_snapshot)):
        _, g_global = loss_and_grad(w, union)
        out[i] = [g.distance(g_global) for g in grads]
    return out

def per_server(trace: OffloadTrace, server_id: int) -> list:
    return [r for r in trace.rows if r.server == server_id]


def mean_kl_by_round(trace: OffloadTrace, num_servers: int) -> list:
    """Across-server mean KL after each round, carrying finished servers.

    A server that ran out of candidates holds its last value, so the
    mean stays defined for as many rounds as the longest server ran.
    """
    series = [
        [r.kl for r in per_server(trace, s)] for s in range(num_servers)
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


def rounds_to_threshold(trace: OffloadTrace, threshold: float, num_servers: int):
    """First round whose across-server mean KL drops below ``threshold``.

    Returns None when the trace never gets there.
    """
    for i, m in enumerate(mean_kl_by_round(trace, num_servers)):
        if m < threshold:
            return i + 1
    return None


def flatten(params: ModelParams) -> np.ndarray:
    return np.concatenate([params.weights.ravel(), params.bias])


def label_histogram(dataset: Dataset, num_classes: int) -> LabelDistribution:
    counts = np.bincount(dataset.labels, minlength=num_classes)
    return LabelDistribution(counts)


def sinr(
    pair,
    power: float,
    smap: SubcarrierMap,
    topo: Topology,
    cfg: RadioConfig,
) -> float:
    """Signal-to-interference-plus-noise ratio of one transfer.

    Every co-channel transfer interferes at the rated power.
    """
    if power < 0:
        raise InvalidParameterError("transmit power must be non-negative")
    u, s = pair
    return topo.gain(u, s) * power / effective_interference(pair, smap, topo, cfg)


def pair_params(
    pair, smap: SubcarrierMap, topo: Topology, cfg: RadioConfig
) -> PairParams:
    """Build the decoupled objective coefficients for one planned pair."""
    return _pair_params(pair, effective_interference(pair, smap, topo, cfg), topo, cfg)


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
