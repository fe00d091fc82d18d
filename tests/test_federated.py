"""Softmax model, local updates, aggregation, and the FL loop."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed import federated
from edgefed.distributions import (
    Dataset,
    materialize,
    separated_feature_model,
    uniform_distribution,
)
from edgefed.errors import (
    DimensionMismatchError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
    NumericalFailureError,
)
from edgefed.federated import (
    ModelParams,
    _softmax_pass,
    _Stack,
    TrainConfig,
    evaluate_accuracy,
    iid_counterpart,
    local_update,
    loss_and_grad,
    run_fl,
    run_paired,
)
from edgefed.rng import substream

from oracles import aggregate, concat, flatten, server_gradients


def _dataset(seed, n=60, num_classes=4, dim=6, separation=6.0):
    model = separated_feature_model(num_classes, dim, separation, 1.0)
    return materialize([uniform_distribution(num_classes, n)], model, [default_rng(seed)])


def _random_model(seed, num_classes=4, dim=6, scale=0.3):
    rng = default_rng(seed)
    return ModelParams(rng.normal(size=(num_classes, dim)) * scale, rng.normal(size=num_classes) * scale)


# ------------------------------------------------------------ loss and grad


def test_zero_model_on_balanced_data_gives_ln2():
    ds = _dataset(1, n=40, num_classes=2)
    loss, _ = loss_and_grad(ModelParams.zeros(2, 6), ds)
    assert abs(loss - math.log(2.0)) < 1e-9


def test_gradient_matches_finite_differences():
    ds = _dataset(2, n=30)
    w = _random_model(3)
    _, grad = loss_and_grad(w, ds)
    flat_grad = flatten(grad)
    h = 1e-6
    dim = flat_grad.size
    for idx in range(dim):
        e = np.zeros(dim)
        e[idx] = 1.0
        wp = _unflatten(w, h * e)
        wm = _unflatten(w, -h * e)
        lp, _ = loss_and_grad(wp, ds)
        lm, _ = loss_and_grad(wm, ds)
        fd = (lp - lm) / (2.0 * h)
        denom = max(1.0, abs(flat_grad[idx]))
        assert abs(fd - flat_grad[idx]) / denom < 1e-5


def _unflatten(base: ModelParams, delta: np.ndarray) -> ModelParams:
    k, d = base.weights.shape
    dw = delta[: k * d].reshape(k, d)
    db = delta[k * d :]
    return ModelParams(base.weights + dw, base.bias + db)


def test_duplicated_data_changes_nothing():
    ds = _dataset(5)
    both = concat([ds, ds])
    w = _random_model(6)
    la, ga = loss_and_grad(w, ds)
    lb, gb = loss_and_grad(w, both)
    assert math.isclose(la, lb, rel_tol=1e-12)
    assert ga.distance(gb) < 1e-12


def test_empty_dataset_is_rejected():
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
    with pytest.raises(InvalidInputError):
        loss_and_grad(ModelParams.zeros(4, 6), empty)
    with pytest.raises(InvalidInputError):
        evaluate_accuracy(ModelParams.zeros(4, 6), empty)
    # An empty list of datasets, not only an empty dataset.
    with pytest.raises(InvalidInputError, match="need at least one dataset"):
        run_paired([], [], TrainConfig())
    # with no init the start model reads the labels, which an empty set lacks
    with pytest.raises(InvalidInputError, match="must be non-empty"):
        run_paired([empty], [empty], TrainConfig())
    with pytest.raises(InvalidInputError, match="need at least one dataset"):
        list(server_gradients([ModelParams.zeros(10, 4)], []))


def test_label_out_of_range_is_rejected():
    ds = Dataset(np.ones((3, 2)), np.array([0, 1, 5]))
    with pytest.raises(InvalidInputError):
        loss_and_grad(ModelParams.zeros(2, 2), ds)


def test_negative_label_is_rejected():
    # Indexing would score label -1 as the last class without this check.
    with pytest.raises(InvalidInputError, match=r"\[-3, -1\]"):
        Dataset(np.ones((4, 2)), np.array([0, -1, 2, -3]))
    assert len(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))) == 0


def _class_major_reference(params, dataset):
    """The out-of-place class-major formula that ``loss_and_grad`` must match.

    Logits are (C, n). Class sums add rows in class order. A sum over
    samples adds the first sample to numpy's pairwise sum of the rest,
    which is how ``np.add.reduceat`` adds a segment.
    """
    n = len(dataset)
    x, y = dataset.features, dataset.labels
    cols = np.arange(n)
    z = params.weights @ x.T + params.bias[:, None]
    z_shift = z - z.max(axis=0)
    expz = np.exp(z_shift)
    denom = functools.reduce(np.add, expz)
    per_sample = np.log(denom) - z_shift[y, cols]
    loss = float((per_sample[0] + per_sample[1:].sum()) / n)
    probs = expz / denom
    probs[y, cols] -= 1.0
    return loss, probs @ x / n, (probs[:, 0] + probs[:, 1:].sum(axis=1)) / n


def _row_major_reference(params, dataset):
    """The earlier row-major (n, C) formula, equal up to rounding."""
    n = len(dataset)
    x, y = dataset.features, dataset.labels
    z = x @ params.weights.T + params.bias
    z_shift = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z_shift)
    denom = expz.sum(axis=1, keepdims=True)
    log_probs = z_shift - np.log(denom)
    loss = float(-log_probs[np.arange(n), y].mean())
    probs = expz / denom
    probs[np.arange(n), y] -= 1.0
    return loss, probs.T @ x / n, probs.mean(axis=0)


def _reference_cases():
    rng = default_rng(40)
    cases = [(_dataset(41), _random_model(42))]
    for n, scale in ((1, 1.0), (1, 100.0), (7, 100.0), (250, 100.0), (90, 0.3)):
        # labels drawn from 3 of 5 classes, so two classes have no samples
        ds = Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, size=n))
        cases.append((ds, _random_model(int(rng.integers(1 << 30)), 5, 6, scale)))
    return cases


def test_loss_and_grad_matches_reference_bit_for_bit():
    for ds, w in _reference_cases():
        loss, grad = loss_and_grad(w, ds)
        ref_loss, ref_w, ref_b = _class_major_reference(w, ds)
        assert loss == ref_loss
        assert np.array_equal(grad.weights, ref_w)
        assert np.array_equal(grad.bias, ref_b)


def test_loss_and_grad_matches_row_major_formula():
    # Rounding differs from the row-major formula only in the last bits;
    # the gradient tolerance is relative to its largest entry.
    for ds, w in _reference_cases():
        loss, grad = loss_and_grad(w, ds)
        ref_loss, ref_w, ref_b = _row_major_reference(w, ds)
        assert math.isclose(loss, ref_loss, rel_tol=1e-12)
        for got, ref in ((grad.weights, ref_w), (grad.bias, ref_b)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _unequal_servers():
    """Servers of 1 to 140 samples; most hold only some of the 10 classes.

    Ten classes, because numpy sums eight or more contiguous values
    pairwise, so a one-sample pass could add its classes in another order.
    """
    rng = default_rng(70)
    out = []
    for n, classes in ((140, 2), (1, 10), (37, 1), (2, 3), (96, 10)):
        out.append(Dataset(rng.normal(size=(n, 6)) * 2.0, rng.integers(0, classes, size=n)))
    return out


def test_stacked_pass_equals_each_server_alone():
    parts = _unequal_servers()
    models = [_random_model(71 + s, 10, 6, 1.0) for s in range(len(parts))]
    weights = np.stack([m.weights for m in models])
    bias = np.stack([m.bias for m in models])
    stack = _Stack(parts, 10)
    losses, grad_w, grad_b = _softmax_pass(weights, bias, stack)
    assert np.array_equal(_softmax_pass(weights, bias, stack, grads=False), losses)
    for s, (m, d) in enumerate(zip(models, parts)):
        loss, grad = loss_and_grad(m, d)
        assert losses[s] == loss, s
        assert np.array_equal(grad_w[s], grad.weights), s
        assert np.array_equal(grad_b[s], grad.bias), s


def _per_server_fl(parts, cfg, eval_set, rng=None):
    """FedAvg as one ``local_update`` per server, then ``aggregate``."""
    current = ModelParams.zeros(10, 6)
    sizes = [len(d) for d in parts]
    total = float(sum(sizes))
    losses, accs = [], []
    for _ in range(cfg.rounds):
        locals_ = [local_update(current, d, cfg, rng) for d in parts]
        current = aggregate(locals_, sizes)
        per_server = [loss_and_grad(m, d)[0] for m, d in zip(locals_, parts)]
        losses.append(float(sum((s / total) * l for s, l in zip(sizes, per_server))))
        accs.append(evaluate_accuracy(current, eval_set))
    return losses, accs, current


@pytest.mark.parametrize("batch_size", [None, 1, 16])
def test_run_fl_equals_per_server_updates(batch_size):
    parts = _unequal_servers()
    eval_set = Dataset(default_rng(72).normal(size=(50, 6)), default_rng(73).integers(0, 10, 50))
    cfg = TrainConfig(phi=0.1, local_steps=3, rounds=4, batch_size=batch_size)
    metrics, final = run_fl(parts, cfg, eval_set, rng=substream(3, "training"))
    losses, accs, ref = _per_server_fl(parts, cfg, eval_set, rng=substream(3, "training"))
    assert [m.global_loss for m in metrics] == losses
    assert [m.accuracy for m in metrics] == accs
    assert np.array_equal(final.weights, ref.weights)
    assert np.array_equal(final.bias, ref.bias)


def test_run_paired_equals_per_server_updates():
    left = _unequal_servers()
    right = iid_counterpart(left, default_rng(74))
    cfg = TrainConfig(phi=0.1, local_steps=2, rounds=3)
    paired = run_paired(left, right, cfg)
    sizes = [len(d) for d in left]
    w = v = ModelParams.zeros(10, 6)
    for t in range(1, cfg.rounds + 1):
        w = aggregate([local_update(w, d, cfg) for d in left], sizes)
        v = aggregate([local_update(v, d, cfg) for d in right], sizes)
        for got, ref in ((paired.left_params[t], w), (paired.right_params[t], v)):
            assert np.array_equal(got.weights, ref.weights)
            assert np.array_equal(got.bias, ref.bias)
        assert paired.distances[t - 1] == w.distance(v)


# Column caps that split ``_unequal_servers`` (140, 1, 37, 2 and 96 samples)
# into chunks, with the widths they give. At 1 every server is a chunk, and the
# 1-sample one takes the single-column branch; at 140 the 140-sample server is
# a chunk alone and the other four share one.
SMALL_CHUNKS = {1: [140, 1, 37, 2, 96], 140: [140, 136]}


@pytest.mark.parametrize("chunk_columns", sorted(SMALL_CHUNKS))
def test_stacked_pass_equals_each_server_alone_in_small_chunks(chunk_columns, monkeypatch):
    monkeypatch.setattr(federated, "_CHUNK_COLUMNS", chunk_columns)
    stack = _Stack(_unequal_servers(), 10)
    assert [width for _, width, *_ in stack.chunks] == SMALL_CHUNKS[chunk_columns]
    test_stacked_pass_equals_each_server_alone()


@pytest.mark.parametrize("chunk_columns", sorted(SMALL_CHUNKS))
@pytest.mark.parametrize("batch_size", [None, 1, 16])
def test_run_fl_equals_per_server_updates_in_small_chunks(batch_size, chunk_columns, monkeypatch):
    monkeypatch.setattr(federated, "_CHUNK_COLUMNS", chunk_columns)
    test_run_fl_equals_per_server_updates(batch_size)


@pytest.mark.parametrize("chunk_columns", sorted(SMALL_CHUNKS))
def test_run_paired_equals_per_server_updates_in_small_chunks(chunk_columns, monkeypatch):
    monkeypatch.setattr(federated, "_CHUNK_COLUMNS", chunk_columns)
    test_run_paired_equals_per_server_updates()


@pytest.mark.parametrize("local_steps", [1, 3])
def test_paired_metrics_and_gradients_come_from_the_left_run(local_steps):
    left = _unequal_servers()
    right = iid_counterpart(left, default_rng(76))
    eval_set = Dataset(default_rng(72).normal(size=(50, 6)), default_rng(73).integers(0, 10, 50))
    cfg = TrainConfig(phi=0.1, local_steps=local_steps, rounds=4)
    paired = run_paired(left, right, cfg, eval_set=eval_set)
    metrics, final = run_fl(left, cfg, eval_set)
    assert paired.metrics == tuple(metrics)
    assert np.array_equal(paired.left_params[-1].weights, final.weights)
    assert np.array_equal(paired.left_params[-1].bias, final.bias)
    # Each round's first local step takes the gradients at its start model.
    assert len(paired.gradients) == cfg.rounds
    oracle = server_gradients(paired.left_params[: cfg.rounds], left)
    for t, ((grad_w, grad_b), ref) in enumerate(zip(paired.gradients, oracle)):
        assert len(grad_w) == len(grad_b) == len(ref) == len(left)
        assert not (grad_w.flags.writeable or grad_b.flags.writeable)
        for s, r in enumerate(ref):
            assert np.array_equal(grad_w[s], r.weights), (t, s)
            assert np.array_equal(grad_b[s], r.bias), (t, s)


@pytest.mark.parametrize("chunk_columns", sorted(SMALL_CHUNKS))
@pytest.mark.parametrize("local_steps", [1, 3])
def test_paired_metrics_and_gradients_come_from_the_left_run_in_small_chunks(
    local_steps, chunk_columns, monkeypatch
):
    monkeypatch.setattr(federated, "_CHUNK_COLUMNS", chunk_columns)
    test_paired_metrics_and_gradients_come_from_the_left_run(local_steps)


def test_pass_working_set_is_bounded_by_the_chunk():
    """One pass over 200,000 samples stays under half of their (C, N) buffer."""
    rng = default_rng(75)
    parts = [
        Dataset(rng.normal(size=(25_000, 6)), rng.integers(0, 10, size=25_000)) for _ in range(8)
    ]
    stack = _Stack(parts, 10)
    weights = rng.normal(size=(8, 10, 6))
    bias = rng.normal(size=(8, 10))
    tracemalloc.start()
    try:
        _softmax_pass(weights, bias, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 200_000 * 8 / 2


def test_label_range_is_checked_when_the_stack_is_built():
    parts = _unequal_servers()
    with pytest.raises(InvalidInputError, match="class range"):
        _Stack(parts, 9)
    # Zero rounds make no pass, so only building the stack can catch it.
    with pytest.raises(InvalidInputError, match="class range"):
        run_fl(parts, TrainConfig(rounds=0), None, init=ModelParams.zeros(9, 6))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_pass_rejects_nan_features_and_huge_weights():
    parts = _unequal_servers()
    feats = parts[3].features.copy()
    feats[1, 2] = np.nan
    poisoned = [*parts[:3], Dataset(feats, parts[3].labels), parts[4]]
    with pytest.raises(NumericalFailureError):
        loss_and_grad(ModelParams.zeros(10, 6), poisoned[3])
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=1)
    with pytest.raises(NumericalFailureError):
        run_fl(poisoned, cfg, None)
    with pytest.raises(NumericalFailureError):
        run_paired(poisoned, poisoned, cfg)
    huge = ModelParams(1e308 * np.eye(10, 6), np.zeros(10))
    with pytest.raises(NumericalFailureError):
        run_fl(parts, cfg, None, init=huge)
    weights = np.stack([huge.weights] * len(parts))
    bias = np.zeros((len(parts), 10))
    for grads in (True, False):
        with pytest.raises(NumericalFailureError):
            _softmax_pass(weights, bias, _Stack(parts, 10), grads=grads)
    # A finite gradient times a huge rate overflows only the weights, which
    # no later pass sees after the paired run's last step.
    with pytest.raises(NumericalFailureError, match="diverged"):
        run_paired(parts, parts, TrainConfig(phi=1e308, local_steps=1, rounds=1))


def test_fresh_results_are_read_only_and_unshared():
    ds = _dataset(43)
    w = _random_model(44)
    _, grad = loss_and_grad(w, ds)
    stepped = local_update(w, ds, TrainConfig(phi=0.05, local_steps=2, rounds=1))
    for out in (grad, stepped):
        for arr in (out.weights, out.bias):
            assert not arr.flags.writeable
            for source in (w.weights, w.bias, ds.features):
                assert not np.shares_memory(arr, source)
    # The public constructor still copies what the caller passes.
    weights, bias = np.ones((4, 6)), np.zeros(4)
    model = ModelParams(weights, bias)
    assert weights.flags.writeable and bias.flags.writeable
    weights[0, 0] = 7.0
    bias[0] = 7.0
    assert model.weights[0, 0] == 1.0 and model.bias[0] == 0.0


# ------------------------------------------------------------- local update


def test_single_step_is_plain_gradient_descent():
    ds = _dataset(7)
    w = _random_model(8)
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=1)
    stepped = local_update(w, ds, cfg)
    _, grad = loss_and_grad(w, ds)
    assert np.array_equal(stepped.weights, w.weights - 0.05 * grad.weights)
    assert np.array_equal(stepped.bias, w.bias - 0.05 * grad.bias)


def test_zero_rate_changes_nothing():
    ds = _dataset(9)
    w = _random_model(10)
    out = local_update(w, ds, TrainConfig(phi=0.0, local_steps=3, rounds=1))
    assert np.array_equal(out.weights, w.weights)


def test_two_steps_compose():
    ds = _dataset(11)
    w = _random_model(12)
    one = TrainConfig(phi=0.05, local_steps=1, rounds=1)
    two = TrainConfig(phi=0.05, local_steps=2, rounds=1)
    assert np.array_equal(
        local_update(w, ds, two).weights,
        local_update(local_update(w, ds, one), ds, one).weights,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported():
    # an absurd rate with large features overflows the weights
    feats = default_rng(13).normal(size=(20, 4)) * 1e5
    ds = Dataset(feats, default_rng(14).integers(0, 3, size=20))
    cfg = TrainConfig(phi=1e304, local_steps=2, rounds=1)
    with pytest.raises(NumericalFailureError):
        local_update(ModelParams.zeros(3, 4), ds, cfg)


def test_minibatch_needs_rng():
    ds = _dataset(15)
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=1, batch_size=8)
    with pytest.raises(InvalidParameterError):
        local_update(ModelParams.zeros(4, 6), ds, cfg, rng=None)


# -------------------------------------------------------------- aggregation


def test_aggregate_fixed_point():
    w = _random_model(16)
    out = aggregate([w, w, w], [5, 1, 3])
    assert np.allclose(out.weights, w.weights, rtol=1e-12)


def test_aggregate_weighted_mean_formula():
    a, b = _random_model(17), _random_model(18)
    out = aggregate([a, b], [1, 3])
    assert np.array_equal(out.weights, (1 / 4) * a.weights + (3 / 4) * b.weights)
    assert np.array_equal(out.bias, (1 / 4) * a.bias + (3 / 4) * b.bias)


@pytest.mark.parametrize("count", [1, 3, 10])
def test_aggregate_equals_the_ordered_weighted_sum(count):
    """Zeros, then each model's ``(s / total)`` share added in input order, bit for bit."""
    models = [_random_model(40 + k) for k in range(count)]
    sizes = [7 * k + 3 for k in range(count)]
    total = float(sum(sizes))
    w = np.zeros(models[0].weights.shape)
    b = np.zeros(models[0].bias.shape)
    for m, s in zip(models, sizes):
        w += (s / total) * m.weights
        b += (s / total) * m.bias
    out = aggregate(models, sizes)
    assert out.weights.tobytes() == w.tobytes()
    assert out.bias.tobytes() == b.tobytes()


def test_aggregate_permutation_invariance():
    a, b = _random_model(19), _random_model(20)
    fwd = aggregate([a, b], [2, 6])
    rev = aggregate([b, a], [6, 2])
    assert np.array_equal(fwd.weights, rev.weights)
    assert np.array_equal(fwd.bias, rev.bias)


def test_aggregate_validation():
    w = _random_model(21)
    with pytest.raises(InvalidInputError):
        aggregate([], [])
    with pytest.raises(InvalidInputError):
        aggregate([w, w], [0, 0])
    with pytest.raises(DimensionMismatchError):
        aggregate([w, ModelParams.zeros(3, 2)], [1, 1])
    with pytest.raises(DimensionMismatchError):
        aggregate([w], [1, 2])
    with pytest.raises(DimensionMismatchError, match="weights must be"):
        ModelParams(np.zeros((4, 6)), np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="models of different shape"):
        w.distance(ModelParams.zeros(3, 2))


# ------------------------------------------------------------------ fl loop


def test_fl_matches_centralized_on_iid_splits():
    """Uniform splits of separable data train to near-centralized accuracy."""
    model = separated_feature_model(4, 8, 6.0, 1.0)
    rng = default_rng(40)
    parts = [materialize([uniform_distribution(4, 100)], model, [rng]) for _ in range(4)]
    eval_set = materialize([uniform_distribution(4, 400)], model, [default_rng(41)])
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=40)
    metrics, _ = run_fl(parts, cfg, eval_set)
    central_metrics, _ = run_fl([concat(parts)], cfg, eval_set)
    fl_acc = metrics[-1].accuracy
    central_acc = central_metrics[-1].accuracy
    assert central_acc >= 0.97
    assert fl_acc >= 0.95
    assert fl_acc >= central_acc - 0.02


def test_fl_zero_rounds_returns_init():
    parts = [_dataset(42)]
    init = _random_model(43)
    metrics, out = run_fl(parts, TrainConfig(rounds=0), _dataset(44), init=init)
    assert metrics == []
    assert np.array_equal(out.weights, init.weights)


def test_fl_minibatch_determinism():
    parts = [_dataset(s, n=80) for s in (45, 46)]
    eval_set = _dataset(47)
    cfg = TrainConfig(phi=0.05, local_steps=2, rounds=6, batch_size=16)
    runs = []
    for _ in range(2):
        metrics, out = run_fl(parts, cfg, eval_set, rng=substream(9, "training"))
        runs.append((tuple(m.global_loss for m in metrics), flatten(out)))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    other, _ = run_fl(parts, cfg, eval_set, rng=substream(10, "training"))
    assert tuple(m.global_loss for m in other) != runs[0][0]


def test_fl_default_start_covers_the_eval_labels():
    """With no init, the zero model spans every class of the servers and the
    eval set; a class only the eval set holds still gets its row."""
    parts = [_dataset(63, num_classes=3)]
    eval_set = _dataset(64, num_classes=4)
    _, out = run_fl(parts, TrainConfig(rounds=1), eval_set)
    assert out.weights.shape == (4, 6)
    _, out = run_fl(parts, TrainConfig(rounds=1), None)
    assert out.weights.shape == (3, 6)


def test_fl_rejects_empty_servers():
    with pytest.raises(InvalidInputError):
        run_fl([], TrainConfig(), _dataset(48))
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int))
    with pytest.raises(InvalidInputError):
        run_fl([empty], TrainConfig(), _dataset(49))


# ----------------------------------------------------------- iid counterpart


def test_iid_counterpart_preserves_sizes_and_union():
    parts = [_dataset(s, n=30 + 5 * i) for i, s in enumerate((50, 51, 52))]
    twin = iid_counterpart(parts, default_rng(53))
    assert [len(d) for d in twin] == [len(d) for d in parts]
    union_a = concat(parts)
    union_b = concat(twin)
    assert np.array_equal(np.sort(union_a.labels), np.sort(union_b.labels))
    assert np.array_equal(
        np.sort(union_a.features.ravel()), np.sort(union_b.features.ravel())
    )


def test_iid_counterpart_needs_a_dataset():
    with pytest.raises(InvalidInputError, match="need at least one dataset"):
        iid_counterpart([], default_rng(53))


def test_iid_counterpart_parts_are_read_only_views_of_one_permuted_copy():
    parts = [_dataset(s, n=30 + 5 * i) for i, s in enumerate((50, 51, 52))]
    twin = iid_counterpart(parts, default_rng(53))
    union = concat(parts)
    order = default_rng(53).permutation(len(union))
    assert np.concatenate([t.features for t in twin]).tobytes() == union.features[order].tobytes()
    assert np.array_equal(np.concatenate([t.labels for t in twin]), union.labels[order])
    for name in ("features", "labels"):
        base = getattr(twin[0], name).base
        assert base is not None and not base.flags.writeable
        for t in twin:
            assert getattr(t, name).base is base and not getattr(t, name).flags.writeable
        assert not any(np.shares_memory(base, getattr(p, name)) for p in parts)


# --------------------------------------------------------------- paired runs


def test_paired_identical_populations_never_separate():
    parts = [_dataset(54), _dataset(55)]
    paired = run_paired(parts, parts, TrainConfig(phi=0.05, local_steps=2, rounds=5))
    assert paired.distances == (0.0,) * 5


def test_paired_first_round_identity():
    """One full-batch round: the gap equals the aggregated gradient gap.

    The right population is a fresh draw, not a reshuffle: a reshuffled
    union gives the exact same round-one aggregate and the gap collapses
    to floating-point dust.
    """
    left = [_dataset(56, separation=2.0), _dataset(57, separation=2.0)]
    right = [_dataset(61, separation=2.0), _dataset(62, separation=2.0)]
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=1)
    paired = run_paired(left, right, cfg)
    w0 = paired.left_params[0]
    sizes = np.array([len(d) for d in left], dtype=float)
    total = sizes.sum()
    gap = np.zeros(flatten(w0).size)
    for s, (a, b) in enumerate(zip(left, right)):
        _, ga = loss_and_grad(w0, a)
        _, gb = loss_and_grad(w0, b)
        gap += (sizes[s] / total) * (flatten(ga) - flatten(gb))
    expected = 0.05 * float(np.linalg.norm(gap))
    assert math.isclose(paired.distances[0], expected, rel_tol=1e-9)


def test_paired_size_mismatch_is_rejected():
    a = [_dataset(59, n=30)]
    b = [_dataset(60, n=31)]
    with pytest.raises(InvalidComparisonError):
        run_paired(a, b, TrainConfig())
    with pytest.raises(InvalidComparisonError, match="equal server counts"):
        run_paired(a, a + a, TrainConfig())
    with pytest.raises(InvalidComparisonError):
        run_paired(a, a, TrainConfig(batch_size=8))
