"""Reference computations that only the tests use.

Each is the plain, one-object form of something the pipeline computes in
bulk, or a reading of its outputs that no artifact needs.
"""

import numpy as np

from edgefed.distributions import Dataset, LabelDistribution
from edgefed.errors import InvalidParameterError
from edgefed.federated import ModelParams, loss_and_grad
from edgefed.network import RadioConfig, SubcarrierMap, Topology, effective_interference
from edgefed.power import PairParams, _pair_params
from edgefed.scheduler import OffloadTrace


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
