"""Multinomial logistic model, local updates, and federated averaging.

The model is softmax regression with a bias term, trained by full-batch or
minibatch gradient steps. Each local step evaluates every server's model in
one class-major pass over the server data, a bounded chunk of servers at a
time. Aggregation is the data-size weighted average of server models. A
paired runner trains two server populations in lock step from a shared
initialisation so their parameter trajectories can be compared round by
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Dataset, _frozen_array, _trusted
from .errors import (
    DimensionMismatchError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)


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
        object.__setattr__(self, "weights", _frozen_array(w, np.float64))
        object.__setattr__(self, "bias", _frozen_array(b, np.float64))

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @staticmethod
    def zeros(num_classes: int, feat_dim: int) -> "ModelParams":
        return ModelParams(np.zeros((num_classes, feat_dim)), np.zeros(num_classes))

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

    This is also a scenario's ``train`` section; its defaults are the
    scenario defaults.

    Attributes:
        phi: learning-rate for each local gradient step.
        local_steps: sequential gradient steps per round on each server.
        rounds: number of aggregation rounds.
        batch_size: minibatch size per step, or None for full batch.
    """

    phi: float = 0.05
    local_steps: int = 1
    rounds: int = 30
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


# Widest class-major buffer one pass allocates. Consecutive datasets share a
# chunk up to this many columns, and a larger dataset is a chunk by itself,
# so a pass's working set does not grow with the total sample count.
_CHUNK_COLUMNS = 1 << 15


class _Stack:
    """Datasets laid side by side as the column blocks of class-major chunks.

    Each chunk is a (C, width) buffer over consecutive datasets, each owning
    a column block. ``chunks`` holds, per chunk, its rows of the stack, its
    width, each dataset's ``(index, features, columns)``, the block starts
    relative to the chunk, and the chunk's labels: its dataset's own labels
    when it holds one, else the concatenation of its datasets'.
    Labels are checked against the class range here, once per stack, not
    per pass.
    """

    def __init__(self, datasets: Sequence[Dataset], num_classes: int):
        if len(datasets) == 0:
            raise InvalidInputError("need at least one dataset")
        sizes = [len(d) for d in datasets]
        if min(sizes) == 0:
            raise InvalidInputError("cannot evaluate a model on an empty dataset")
        if max(int(d.labels.max()) for d in datasets) >= num_classes:
            raise InvalidInputError("label outside the model's class range")
        self.num_classes = num_classes
        self.sizes = np.array(sizes, dtype=np.float64)
        self.chunks = []
        first = 0
        while first < len(sizes):
            stop, width = first + 1, sizes[first]
            while stop < len(sizes) and width + sizes[stop] <= _CHUNK_COLUMNS:
                width += sizes[stop]
                stop += 1
            starts = np.cumsum([0, *sizes[first : stop - 1]])
            blocks = [
                (s, datasets[s].features, slice(a, a + sizes[s]))
                for s, a in zip(range(first, stop), starts.tolist())
            ]
            labels = datasets[first].labels if stop == first + 1 else np.concatenate(
                [datasets[s].labels for s in range(first, stop)]
            )
            self.chunks.append((slice(first, stop), width, blocks, starts, labels))
            first = stop


def _softmax_pass(weights: np.ndarray, bias: np.ndarray, stack: _Stack, grads=True):
    """Mean softmax cross-entropy of model s on dataset s, for every s at once.

    ``weights`` is (S, C, d) and ``bias`` (S, C), one model per dataset of
    the stack. The pass runs chunk by chunk, each in its own (C, width)
    buffer that is freed before the next is allocated. Every op works on
    single columns or inside one dataset's block: class sums add rows in
    class order, and each sum over samples stays inside the block. So
    dataset s gets the same bits whatever else shares its stack or chunk.

    Returns the (S,) losses and, when ``grads``, the (S, C, d) weight and
    (S, C) bias gradients. Finiteness is checked once, on the stacked result.
    """
    losses = np.empty(len(stack.sizes))
    grad_w = np.empty(weights.shape) if grads else None
    grad_b = np.empty(bias.shape) if grads else None
    for chunk in stack.chunks:
        _chunk_pass(weights, bias, stack.num_classes, chunk, losses, grad_w, grad_b)
    losses /= stack.sizes
    if not grads:
        if not np.all(np.isfinite(losses)):
            raise NumericalFailureError("non-finite loss")
        return losses
    grad_w /= stack.sizes[:, None, None]
    grad_b /= stack.sizes[:, None]
    if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(grad_w))):
        raise NumericalFailureError("non-finite loss or gradient")
    return losses, grad_w, grad_b


def _chunk_pass(weights, bias, num_classes, chunk, losses, grad_w, grad_b):
    """Write one chunk's rows of the summed losses and, unless None, gradients."""
    rows, width, blocks, starts, labels = chunk
    # Position of each sample's label cell in the flattened chunk.
    label_cells = labels * width + np.arange(width)
    z = np.empty((num_classes, width))
    for s, x, cols in blocks:
        block = z[:, cols]
        np.matmul(weights[s], x.T, out=block)
        block += bias[s][:, None]
    # One buffer holds the shifted logits, then their exponentials, then the
    # softmax minus the one-hot labels.
    z -= np.maximum.reduce(z, axis=0)
    cells = z.reshape(-1)
    picked = cells[label_cells]
    np.exp(z, out=z)
    # reduce adds row by row, except on a single column, which it would sum
    # pairwise; accumulate always adds row by row.
    if width > 1:
        denom = np.add.reduce(z, axis=0)
    else:
        denom = np.add.accumulate(z, axis=0)[-1]
    losses[rows] = np.add.reduceat(np.log(denom) - picked, starts)
    if grad_w is None:
        return
    z /= denom
    cells[label_cells] -= 1.0
    for s, x, cols in blocks:
        np.matmul(z[:, cols], x, out=grad_w[s])
    grad_b[rows] = np.add.reduceat(z, starts, axis=1).T


def loss_and_grad(params: ModelParams, dataset: Dataset):
    """Mean softmax cross-entropy and its exact gradient.

    This is the one-dataset case of the pass that training runs over all
    servers, chunk by chunk. A dataset is never split across chunks, so its
    logits sit class-major in one C x n buffer; the softmax reduces down its
    columns, and a call costs two (C, d) x (d, n) matmuls plus a handful of
    O(Cn) array ops.

    Args:
        params: model to evaluate.
        dataset: non-empty labelled data.

    Returns:
        Tuple ``(loss, grad)`` where ``grad`` is a ``ModelParams`` holding
        the gradient with respect to weights and bias.
    """
    stack = _Stack([dataset], params.num_classes)
    losses, grad_w, grad_b = _softmax_pass(params.weights[None], params.bias[None], stack)
    return float(losses[0]), ModelParams(grad_w[0], grad_b[0])


def evaluate_accuracy(params: ModelParams, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit matches the label."""
    if len(dataset) == 0:
        raise InvalidInputError("cannot evaluate accuracy on an empty dataset")
    pred = (dataset.features @ params.weights.T + params.bias).argmax(axis=1)
    return float((pred == dataset.labels).mean())


def _step_stacks(datasets: Sequence[Dataset], stack: _Stack, cfg: TrainConfig, rng):
    """The stack each local step trains on: the full data, or that step's batches.

    Batches are drawn server by server, and step by step within a server,
    the order in which one server's local updates after another draw them.
    """
    if cfg.batch_size is None:
        return [stack] * cfg.local_steps
    if rng is None:
        raise InvalidParameterError("minibatch training needs an rng")
    size, steps = cfg.batch_size, range(cfg.local_steps)
    picks = [
        [rng.choice(len(d), size, replace=False) if size < len(d) else slice(None) for _ in steps]
        for d in datasets
    ]
    return [
        _Stack(
            [Dataset(d.features[p[k]], d.labels[p[k]]) for d, p in zip(datasets, picks)],
            stack.num_classes,
        )
        for k in steps
    ]


def _local_steps(weights: np.ndarray, bias: np.ndarray, stacks, phi: float):
    """Gradient steps for every server of the stacks at once, one per stack.

    Returns the stepped weights and biases, and the first step's stacked
    weight and bias gradients, which are taken at the start models.
    """
    first = None
    for stack in stacks:
        _, grad_w, grad_b = _softmax_pass(weights, bias, stack)
        if first is None:
            first = grad_w, grad_b
        weights = weights - phi * grad_w
        bias = bias - phi * grad_b
    if not np.all(np.isfinite(weights)):
        raise NumericalFailureError("local update diverged")
    return weights, bias, first


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
    dataset independently per step and requires an rng. This is the
    one-server case of the stacked steps that ``run_fl`` takes.
    """
    stack = _Stack([dataset], params.num_classes)
    steps = _step_stacks([dataset], stack, cfg, rng)
    weights, bias, _ = _local_steps(params.weights[None], params.bias[None], steps, cfg.phi)
    return ModelParams(weights[0], bias[0])


def _average(weights: np.ndarray, bias: np.ndarray, sizes: Sequence[int]) -> ModelParams:
    """Data-size weighted average of stacked (S, C, d) weights and (S, C) biases.

    The sum starts from zeros and adds each model's share in stack order.
    """
    total = float(sum(sizes))
    w = np.zeros(weights.shape[1:])
    b = np.zeros(bias.shape[1:])
    for k, s in enumerate(sizes):
        w += (s / total) * weights[k]
        b += (s / total) * bias[k]
    return ModelParams(w, b)


def _rounds(datasets, stack: _Stack, starts, cfg: TrainConfig, rng):
    """Yield each round's stacked local models, first-step gradients and averages.

    The datasets split, in order, into one equal arm per model of ``starts``.
    All arms train side by side in ``stack``, and every server of an arm
    starts each round from its arm's last average. The gradients are those
    of the round's first local step, and each arm has one ``_average``.
    """
    current = tuple(starts)
    n = len(datasets) // len(current)
    for _ in range(cfg.rounds):
        weights, bias, first = _local_steps(
            np.stack([m.weights for m in current for _ in range(n)]),
            np.stack([m.bias for m in current for _ in range(n)]),
            _step_stacks(datasets, stack, cfg, rng),
            cfg.phi,
        )
        current = tuple(
            _average(weights[a : a + n], bias[a : a + n], stack.sizes[a : a + n])
            for a in range(0, len(datasets), n)
        )
        yield weights, bias, first, current


def _round_metrics(t: int, weights, bias, stack: _Stack, model: ModelParams, eval_set):
    """Round t's ``RoundMetrics`` for stacked local models and their average.

    The loss is the size-weighted mean of each local model's loss on its
    dataset of ``stack``. The accuracy is ``model``'s on ``eval_set``, or
    NaN without one.
    """
    per_server = _softmax_pass(weights, bias, stack, grads=False).tolist()
    total = float(sum(stack.sizes))
    g_loss = float(sum((s / total) * l for s, l in zip(stack.sizes, per_server)))
    acc = evaluate_accuracy(model, eval_set) if eval_set is not None else float("nan")
    return RoundMetrics(round=t, global_loss=g_loss, accuracy=acc)


def _start_model(datasets, init: ModelParams | None, eval_set=None) -> ModelParams:
    """``init``, or the zero model over every label of ``datasets`` and ``eval_set``."""
    if not datasets:
        raise InvalidInputError("need at least one dataset")
    if min(map(len, datasets)) == 0:
        raise InvalidInputError("server datasets must be non-empty")
    if init is not None:
        return init
    scored = [eval_set] if eval_set is not None and len(eval_set) > 0 else []
    num_classes = 1 + max(int(d.labels.max()) for d in [*datasets, *scored])
    return ModelParams.zeros(num_classes, datasets[0].feat_dim)


def run_fl(
    server_datasets: Sequence[Dataset],
    cfg: TrainConfig,
    eval_set: Dataset,
    init: ModelParams | None = None,
    rng: np.random.Generator | None = None,
):
    """Federated-averaging loop over the given server datasets.

    Every server's local step is one stacked pass over all server data.

    Args:
        server_datasets: one non-empty dataset per edge server.
        cfg: training hyperparameters.
        eval_set: held-out data scored after every aggregation.
        init: starting model; zeros when omitted.
        rng: consumed only in minibatch mode.

    Returns:
        Tuple ``(metrics, final_model)`` with one ``RoundMetrics`` per round.
    """
    current = _start_model(server_datasets, init, eval_set)
    stack = _Stack(server_datasets, current.num_classes)
    metrics = []
    rounds = _rounds(server_datasets, stack, [current], cfg, rng)
    for t, (weights, bias, _, (current,)) in enumerate(rounds, 1):
        metrics.append(_round_metrics(t, weights, bias, stack, current, eval_set))
    return metrics, current


def iid_counterpart(
    datasets: Sequence[Dataset], rng: np.random.Generator
) -> list:
    """Reshuffle the union of the datasets into same-sized uniform parts.

    The returned list has one dataset per input dataset with identical sizes,
    drawn without replacement from the pooled samples, which makes each part
    an unbiased sample of the pooled distribution. The parts are read-only
    views of one permuted copy, into which each server's rows are scattered
    without building the union.
    """
    if not datasets:
        raise InvalidInputError("need at least one dataset")
    bounds = np.cumsum([0, *map(len, datasets)]).tolist()
    order = rng.permutation(bounds[-1])
    # Row j of the servers' union goes to row where[j] of the twin.
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    feats = np.empty((len(order), datasets[0].feat_dim))
    labels = np.empty(len(order), dtype=np.int64)
    for d, a, b in zip(datasets, bounds, bounds[1:]):
        feats[where[a:b]] = d.features
        labels[where[a:b]] = d.labels
    feats.flags.writeable = labels.flags.writeable = False
    return [
        _trusted(Dataset, features=feats[a:b], labels=labels[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


@dataclass(frozen=True)
class PairedRun:
    """Lock-step trajectories of two federated runs from one initialisation.

    ``left_params``/``right_params`` hold T+1 snapshots each (index 0 is the
    shared initialisation). ``distances[t-1]`` is the parameter distance
    after round t. ``metrics`` holds the left run's ``RoundMetrics``, by the
    rule ``run_fl`` uses. ``gradients[t]``, for t < T, is the read-only pair of
    stacked (n, C, d) weight and (n, C) bias gradients that the n left servers'
    first local steps of round t+1 took at snapshot ``left_params[t]``.
    """

    left_params: tuple
    right_params: tuple
    distances: tuple
    cfg: TrainConfig
    metrics: tuple
    gradients: tuple


def run_paired(
    left_datasets: Sequence[Dataset],
    right_datasets: Sequence[Dataset],
    cfg: TrainConfig,
    init: ModelParams | None = None,
    eval_set: Dataset | None = None,
) -> PairedRun:
    """Train two server populations in lock step and record their gap.

    Both populations must have the same server count and the same per-server
    sizes so the aggregation weights coincide. Training is full batch to keep
    the two trajectories free of sampling noise, so the left run is
    ``run_fl(left_datasets, cfg, eval_set, init)`` bit for bit, and its
    metrics score accuracy on ``eval_set`` as that call would.
    """
    if len(left_datasets) != len(right_datasets):
        raise InvalidComparisonError("paired runs need equal server counts")
    for a, b in zip(left_datasets, right_datasets):
        if len(a) != len(b):
            raise InvalidComparisonError("paired runs need matching dataset sizes")
    if cfg.batch_size is not None:
        raise InvalidComparisonError("paired runs are full batch only")
    both = [*left_datasets, *right_datasets]
    start = _start_model(both, init, eval_set)
    n = len(left_datasets)
    left_stack = _Stack(left_datasets, start.num_classes)
    # Both arms train side by side in one stack: left servers, then right.
    rounds = _rounds(both, _Stack(both, start.num_classes), [start, start], cfg, None)
    arms, metrics, gradients = [(start, start)], [], []
    for t, (weights, bias, (grad_w, grad_b), models) in enumerate(rounds, 1):
        arms.append(models)
        metrics.append(_round_metrics(t, weights[:n], bias[:n], left_stack, models[0], eval_set))
        gradients.append(tuple(_frozen_array(g[:n], np.float64) for g in (grad_w, grad_b)))
    left, right = (tuple(arm) for arm in zip(*arms))
    distances = tuple(w.distance(v) for w, v in arms[1:])
    return PairedRun(left, right, distances, cfg, tuple(metrics), tuple(gradients))
