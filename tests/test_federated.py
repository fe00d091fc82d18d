"""Softmax model, local updates, aggregation, and the FL loop."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import (
    Dataset,
    LabelDistribution,
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
    TrainConfig,
    aggregate,
    evaluate_accuracy,
    iid_counterpart,
    local_update,
    loss_and_grad,
    run_fl,
    run_paired,
)
from edgefed.rng import substream


def _dataset(seed, n=60, num_classes=4, dim=6, separation=6.0):
    model = separated_feature_model(num_classes, dim, separation, 1.0)
    return materialize(uniform_distribution(num_classes, n), model, default_rng(seed))


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
    flat_grad = grad.flatten()
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
    both = Dataset.concat([ds, ds])
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


def test_label_out_of_range_is_rejected():
    ds = Dataset(np.ones((3, 2)), np.array([0, 1, 5]))
    with pytest.raises(InvalidInputError):
        loss_and_grad(ModelParams.zeros(2, 2), ds)


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


# ------------------------------------------------------------------ fl loop


def test_fl_matches_centralized_on_iid_splits():
    """Uniform splits of separable data train to near-centralized accuracy."""
    model = separated_feature_model(4, 8, 6.0, 1.0)
    rng = default_rng(40)
    parts = [materialize(uniform_distribution(4, 100), model, rng) for _ in range(4)]
    eval_set = materialize(uniform_distribution(4, 400), model, default_rng(41))
    cfg = TrainConfig(phi=0.05, local_steps=1, rounds=40)
    metrics, _ = run_fl(parts, cfg, eval_set)
    central_metrics, _ = run_fl([Dataset.concat(parts)], cfg, eval_set)
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
        runs.append((tuple(m.global_loss for m in metrics), out.flatten()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    other, _ = run_fl(parts, cfg, eval_set, rng=substream(10, "training"))
    assert tuple(m.global_loss for m in other) != runs[0][0]


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
    union_a = Dataset.concat(parts)
    union_b = Dataset.concat(twin)
    assert np.array_equal(np.sort(union_a.labels), np.sort(union_b.labels))
    assert np.array_equal(
        np.sort(union_a.features.ravel()), np.sort(union_b.features.ravel())
    )


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
    gap = np.zeros(w0.flatten().size)
    for s, (a, b) in enumerate(zip(left, right)):
        _, ga = loss_and_grad(w0, a)
        _, gb = loss_and_grad(w0, b)
        gap += (sizes[s] / total) * (ga.flatten() - gb.flatten())
    expected = 0.05 * float(np.linalg.norm(gap))
    assert math.isclose(paired.distances[0], expected, rel_tol=1e-9)


def test_paired_size_mismatch_is_rejected():
    a = [_dataset(59, n=30)]
    b = [_dataset(60, n=31)]
    with pytest.raises(InvalidComparisonError):
        run_paired(a, b, TrainConfig())
    with pytest.raises(InvalidComparisonError):
        run_paired(a, a, TrainConfig(batch_size=8))
