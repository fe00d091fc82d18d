"""Multinomial logistic model, local updates, and federated averaging.

The model is softmax regression with a bias term, trained by full-batch or
minibatch gradient steps. Aggregation is the data-size weighted average of
server models. A paired runner trains two server populations in lock step
from a shared initialisation so their parameter trajectories can be compared
round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Dataset
from .errors import (
    DimensionMismatchError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ModelParams:
    """Softmax-regression parameters: class weight matrix plus bias vector."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionMismatchError("weights must be (C, d) with bias (C,)")
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "bias", _frozen(b))

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def feat_dim(self) -> int:
        return int(self.weights.shape[1])

    @staticmethod
    def zeros(num_classes: int, feat_dim: int) -> "ModelParams":
        return ModelParams(np.zeros((num_classes, feat_dim)), np.zeros(num_classes))

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    def distance(self, other: "ModelParams") -> float:
        """Euclidean distance over all parameters jointly."""
        if other.weights.shape != self.weights.shape:
            raise DimensionMismatchError("cannot compare models of different shape")
        dw = self.weights - other.weights
        db = self.bias - other.bias
        return float(np.sqrt(np.sum(dw * dw) + np.sum(db * db)))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for local updates and the federated loop.

    Attributes:
        phi: learning-rate for each local gradient step.
        local_steps: sequential gradient steps per round on each server.
        rounds: number of aggregation rounds.
        batch_size: minibatch size per step, or None for full batch.
    """

    phi: float = 0.05
    local_steps: int = 1
    rounds: int = 10
    batch_size: int | None = None

    def __post_init__(self):
        if self.phi < 0:
            raise InvalidParameterError("learning rate must be non-negative")
        if self.local_steps < 1:
            raise InvalidParameterError("local_steps must be at least 1")
        if self.rounds < 0:
            raise InvalidParameterError("rounds must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidParameterError("batch_size must be positive when set")


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round training record.

    ``global_loss`` is the size-weighted mean of each server's loss at its
    own local model, before aggregation.
    """

    round: int
    global_loss: float
    accuracy: float


def _logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return features @ params.weights.T + params.bias


def loss_and_grad(params: ModelParams, dataset: Dataset):
    """Mean softmax cross-entropy and its exact gradient.

    Args:
        params: model to evaluate.
        dataset: non-empty labelled data.

    Returns:
        Tuple ``(loss, grad)`` where ``grad`` is a ``ModelParams`` holding
        the gradient with respect to weights and bias.
    """
    n = len(dataset)
    if n == 0:
        raise InvalidInputError("cannot evaluate a model on an empty dataset")
    x = dataset.features
    y = dataset.labels
    if np.any(y >= params.num_classes):
        raise InvalidInputError("label outside the model's class range")
    z = _logits(params, x)
    z_shift = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z_shift)
    denom = expz.sum(axis=1, keepdims=True)
    log_probs = z_shift - np.log(denom)
    loss = float(-log_probs[np.arange(n), y].mean())
    probs = expz / denom
    probs[np.arange(n), y] -= 1.0
    grad_w = probs.T @ x / n
    grad_b = probs.mean(axis=0)
    if not (np.isfinite(loss) and np.all(np.isfinite(grad_w))):
        raise NumericalFailureError("non-finite loss or gradient")
    return loss, ModelParams(grad_w, grad_b)


def evaluate_accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    if len(dataset) == 0:
        raise InvalidInputError("cannot evaluate accuracy on an empty dataset")
    pred = _logits(params, dataset.features).argmax(axis=1)
    return float((pred == dataset.labels).mean())


def local_update(
    params: ModelParams,
    dataset: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Run ``cfg.local_steps`` sequential gradient steps starting at ``params``.

    Each step applies a full gradient descent update with rate ``cfg.phi``,
    so the returned model equals the start point minus phi times the sum of
    the step gradients taken along the way. Minibatch mode subsamples the
    dataset independently per step and requires an rng.
    """
    if cfg.batch_size is not None and rng is None:
        raise InvalidParameterError("minibatch training needs an rng")
    current = params
    for _ in range(cfg.local_steps):
        batch = dataset
        if cfg.batch_size is not None and cfg.batch_size < len(dataset):
            idx = rng.choice(len(dataset), size=cfg.batch_size, replace=False)
            batch = Dataset(dataset.features[idx], dataset.labels[idx])
        _, grad = loss_and_grad(current, batch)
        current = ModelParams(
            current.weights - cfg.phi * grad.weights,
            current.bias - cfg.phi * grad.bias,
        )
    if not np.all(np.isfinite(current.weights)):
        raise NumericalFailureError("local update diverged")
    return current


def aggregate(models: Sequence[ModelParams], sizes: Sequence[int]) -> ModelParams:
    """Data-size weighted average of server models."""
    if len(models) == 0:
        raise InvalidInputError("nothing to aggregate")
    if len(models) != len(sizes):
        raise DimensionMismatchError("one size per model required")
    total = float(sum(sizes))
    if total <= 0:
        raise InvalidInputError("total data size must be positive")
    shape = models[0].weights.shape
    w = np.zeros(shape)
    b = np.zeros(shape[0])
    for m, s in zip(models, sizes):
        if m.weights.shape != shape:
            raise DimensionMismatchError("models disagree on parameter shape")
        w += (s / total) * m.weights
        b += (s / total) * m.bias
    return ModelParams(w, b)


def run_fl(
    server_datasets: Sequence[Dataset],
    cfg: TrainConfig,
    eval_set: Dataset,
    init: ModelParams | None = None,
    rng: np.random.Generator | None = None,
):
    """Federated-averaging loop over the given server datasets.

    Args:
        server_datasets: one non-empty dataset per edge server.
        cfg: training hyperparameters.
        eval_set: held-out data scored after every aggregation.
        init: starting model; zeros when omitted.
        rng: consumed only in minibatch mode.

    Returns:
        Tuple ``(metrics, final_model)`` with one ``RoundMetrics`` per round.
    """
    if not server_datasets:
        raise InvalidInputError("need at least one server dataset")
    for d in server_datasets:
        if len(d) == 0:
            raise InvalidInputError("server datasets must be non-empty")
    feat_dim = server_datasets[0].feat_dim
    num_classes = int(max(int(d.labels.max()) for d in server_datasets)) + 1
    if eval_set is not None and len(eval_set) > 0:
        num_classes = max(num_classes, int(eval_set.labels.max()) + 1)
    current = init if init is not None else ModelParams.zeros(num_classes, feat_dim)
    sizes = [len(d) for d in server_datasets]
    total = float(sum(sizes))
    metrics = []
    for t in range(1, cfg.rounds + 1):
        locals_ = [local_update(current, d, cfg, rng) for d in server_datasets]
        current = aggregate(locals_, sizes)
        per_server = tuple(
            loss_and_grad(m, d)[0] for m, d in zip(locals_, server_datasets)
        )
        g_loss = float(sum((s / total) * l for s, l in zip(sizes, per_server)))
        acc = evaluate_accuracy(current, eval_set) if eval_set is not None else float("nan")
        metrics.append(RoundMetrics(round=t, global_loss=g_loss, accuracy=acc))
    return metrics, current


def iid_counterpart(
    datasets: Sequence[Dataset], rng: np.random.Generator
) -> list:
    """Reshuffle the union of the datasets into same-sized uniform parts.

    The returned list has one dataset per input dataset with identical sizes,
    drawn without replacement from the pooled samples, which makes each part
    an unbiased sample of the pooled distribution.
    """
    union = Dataset.concat(list(datasets))
    order = rng.permutation(len(union))
    feats = union.features[order]
    labels = union.labels[order]
    out = []
    start = 0
    for d in datasets:
        stop = start + len(d)
        out.append(Dataset(feats[start:stop], labels[start:stop]))
        start = stop
    return out


@dataclass(frozen=True)
class PairedRun:
    """Lock-step trajectories of two federated runs from one initialisation.

    ``left_params``/``right_params`` hold T+1 snapshots each (index 0 is the
    shared initialisation). ``distances[t-1]`` is the parameter distance
    after round t.
    """

    left_params: tuple
    right_params: tuple
    distances: tuple
    cfg: TrainConfig


def run_paired(
    left_datasets: Sequence[Dataset],
    right_datasets: Sequence[Dataset],
    cfg: TrainConfig,
    init: ModelParams | None = None,
) -> PairedRun:
    """Train two server populations in lock step and record their gap.

    Both populations must have the same server count and the same per-server
    sizes so the aggregation weights coincide. Training is full batch to keep
    the two trajectories free of sampling noise.
    """
    if len(left_datasets) != len(right_datasets):
        raise InvalidComparisonError("paired runs need equal server counts")
    for a, b in zip(left_datasets, right_datasets):
        if len(a) != len(b):
            raise InvalidComparisonError("paired runs need matching dataset sizes")
    if cfg.batch_size is not None:
        raise InvalidComparisonError("paired runs are full batch only")
    feat_dim = left_datasets[0].feat_dim
    num_classes = (
        int(
            max(
                max(int(d.labels.max()) for d in left_datasets),
                max(int(d.labels.max()) for d in right_datasets),
            )
        )
        + 1
    )
    start = init if init is not None else ModelParams.zeros(num_classes, feat_dim)
    sizes = [len(d) for d in left_datasets]
    w, v = start, start
    left_snaps, right_snaps, gaps = [start], [start], []
    for _ in range(cfg.rounds):
        w = aggregate([local_update(w, d, cfg) for d in left_datasets], sizes)
        v = aggregate([local_update(v, d, cfg) for d in right_datasets], sizes)
        left_snaps.append(w)
        right_snaps.append(v)
        gaps.append(w.distance(v))
    return PairedRun(tuple(left_snaps), tuple(right_snaps), tuple(gaps), cfg)

