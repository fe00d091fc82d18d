"""KL divergence, gradient-divergence measurement, and the drift bound."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import (
    Dataset,
    LabelDistribution,
    materialize,
    normalize,
    separated_feature_model,
    uniform_distribution,
)
from edgefed.divergence import (
    audit_drift_bound,
    drift_bound,
    kl,
    lipschitz_bound,
)
from edgefed.errors import (
    DimensionMismatchError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidParameterError,
)
from edgefed.federated import (
    ModelParams,
    TrainConfig,
    iid_counterpart,
    local_update,
    loss_and_grad,
    run_paired,
)

from oracles import (
    complement,
    concat,
    gradient_divergence,
    label_histogram,
    measure_gradient_divergences,
    zeros,
)


def _pv(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


# ------------------------------------------------------------------------ kl


def test_kl_identity_is_zero():
    for probs in ([0.5, 0.5], [0.1, 0.2, 0.7], [0.25] * 4):
        assert kl(_pv(probs), _pv(probs)) == 0.0


def test_kl_single_term_hand_value():
    # only the p=1 term contributes: 1 * ln(1 / 0.5) = ln 2
    value = kl(_pv([1.0, 0.0]), _pv([0.5, 0.5]))
    assert abs(value - math.log(2.0)) < 1e-9


def test_kl_two_term_hand_value():
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    value = kl(_pv([0.5, 0.5]), _pv([0.25, 0.75]))
    assert abs(value - expected) < 1e-6


def test_kl_input_validation():
    with pytest.raises(DimensionMismatchError):
        kl(_pv([0.5, 0.5]), _pv([0.3, 0.3, 0.4]))
    with pytest.raises(InvalidInputError):
        kl(_pv([0.5, 0.5]), _pv([1.0, 0.0]))


def test_kl_nonnegative_on_random_pairs():
    rng = default_rng(123)
    for _ in range(200):
        p = rng.dirichlet([1.0] * 6)
        q = rng.dirichlet([1.0] * 6) + 1e-9
        q = q / q.sum()
        assert kl(_pv(p), _pv(q)) >= 0.0


def test_kl_clamps_rounding_noise_at_zero():
    # a Dirichlet draw against its renormalised self: the raw sum is negative
    p = _pv([0.39546198954297845, 0.5930180594914135, 0.011519950965607977])
    q = p / p.sum()
    assert float(np.sum(p * np.log(p / q))) < 0.0
    assert kl(p, q) == 0.0


# ---------------------------------------------------------------- complement


def test_complement_of_empty_server():
    target = LabelDistribution([10, 20, 30])
    out = complement(target, zeros(3))
    assert out.counts.tolist() == [10, 20, 30]


def test_complement_of_full_server_is_zero():
    target = LabelDistribution([10, 20, 30])
    assert complement(target, target).counts.tolist() == [0, 0, 0]


def test_complement_clamps_excess():
    out = complement(LabelDistribution([10, 10]), LabelDistribution([4, 12]))
    assert out.counts.tolist() == [6, 0]


# ------------------------------------------------------- gradient divergence


def _toy_dataset(seed, n=40, num_classes=3, dim=5):
    model = separated_feature_model(num_classes, dim, 3.0, 1.0)
    return materialize([uniform_distribution(num_classes, n).counts], model, [default_rng(seed)])


def test_gradient_divergence_zero_for_same_data():
    ds = _toy_dataset(1)
    w = ModelParams.zeros(3, 5)
    assert gradient_divergence(w, ds, ds) == 0.0


def test_gradient_divergence_mean_invariance():
    # doubling every sample leaves the mean gradient unchanged
    ds = _toy_dataset(2)
    doubled = concat([ds, ds])
    w = ModelParams(default_rng(3).normal(size=(3, 5)), np.zeros(3))
    assert gradient_divergence(w, doubled, ds) < 1e-12


def test_gamma_rank_matches_kl_rank():
    """The crafted IID / mild-skew / one-class instance orders both ways alike."""
    hists = [
        uniform_distribution(10, 200),
        LabelDistribution([35, 30, 25, 22, 20, 18, 16, 14, 11, 9]),
        LabelDistribution([0, 0, 0, 0, 200, 0, 0, 0, 0, 0]),
    ]
    model = separated_feature_model(10, 16, 3.0, 1.0)
    rng = default_rng(1)
    datasets = [materialize([h.counts], model, [rng]) for h in hists]
    union = concat(datasets)
    w = local_update(
        ModelParams.zeros(10, 16), union, TrainConfig(phi=0.05, local_steps=3, rounds=1)
    )
    gammas = [gradient_divergence(w, d, union) for d in datasets]
    union_hist = label_histogram(union, 10)
    kls = [kl(normalize(union_hist), normalize(h)) for h in hists]
    assert np.argsort(gammas).tolist() == np.argsort(kls).tolist()


def test_measure_gradient_divergences_shape():
    # Skewed servers of unequal size, snapshots from a real paired run. The
    # one-pass-per-snapshot matrix must equal the per-pair oracle exactly,
    # which a pooled gradient rebuilt as the size-weighted mean of the server
    # gradients (equal only in exact arithmetic) does not.
    model = separated_feature_model(3, 5, 3.0, 1.0)
    rng = default_rng(21)
    hists = ([30, 5, 0], [2, 40, 9], [0, 3, 17], [11, 11, 12])
    parts = [materialize([h], model, [rng]) for h in hists]
    cfg = TrainConfig(phi=0.05, local_steps=2, rounds=4)
    paired = run_paired(parts, iid_counterpart(parts, default_rng(22)), cfg)
    snaps = paired.left_params[: cfg.rounds]
    mat = measure_gradient_divergences(snaps, parts)
    assert mat.shape == (4, 4)
    union = concat(parts)
    for i, w in enumerate(snaps):
        for s, d in enumerate(parts):
            assert mat[i, s] == gradient_divergence(w, d, union), (i, s)
    assert np.all(mat > 0)


# ---------------------------------------------------------------- smoothness


def test_lipschitz_zero_features():
    ds = Dataset(np.zeros((5, 4)), np.zeros(5, dtype=int))
    est = lipschitz_bound([ds])
    assert est.per_server == (0.0,)
    assert est.combined == 0.0


def test_lipschitz_single_sample():
    ds = Dataset(np.array([[2.0, 0.0]]), np.array([1]))
    assert lipschitz_bound([ds]).per_server[0] == 4.0


def test_lipschitz_combined_is_weighted():
    a = Dataset(np.array([[2.0, 0.0]]), np.array([0]))  # L = 4, size 1
    b = Dataset(np.full((3, 2), np.sqrt(0.5)), np.array([0, 1, 0]))  # L = 1, size 3
    est = lipschitz_bound([a, b])
    assert math.isclose(est.combined, (1 * 4.0 + 3 * 1.0) / 4.0, rel_tol=1e-12)


def test_lipschitz_bounds_measured_curvature():
    """Finite-difference curvature along random directions stays under L_s."""
    rng = default_rng(8)
    feats = rng.normal(size=(30, 6)) * 2.0
    ds = Dataset(feats, rng.integers(0, 4, size=30))
    big_l = lipschitz_bound([ds]).per_server[0]
    w = ModelParams(rng.normal(size=(4, 6)) * 0.3, rng.normal(size=4) * 0.3)
    h = 1e-4
    for _ in range(100):
        dw = rng.normal(size=(4, 6))
        db = rng.normal(size=4)
        norm = math.sqrt(float((dw * dw).sum() + (db * db).sum()))
        dw, db = dw / norm, db / norm
        plus = ModelParams(w.weights + h * dw, w.bias + h * db)
        minus = ModelParams(w.weights - h * dw, w.bias - h * db)
        _, gp = loss_and_grad(plus, ds)
        _, gm = loss_and_grad(minus, ds)
        curv = gp.distance(gm) / (2.0 * h)
        assert curv <= big_l + 1e-6


def test_lipschitz_rejects_empty():
    with pytest.raises(InvalidInputError):
        lipschitz_bound([])
    with pytest.raises(InvalidInputError):
        lipschitz_bound([Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))])


# --------------------------------------------------------------- drift bound


def test_drift_bound_iid_case():
    assert drift_bound(0.37, 0.1, [10, 10], [0.0, 0.0], [1.0, 1.0], 3) == 0.37


def test_drift_bound_direct_substitution():
    value = drift_bound(0.0, 0.1, [100], [1.0], [1.0], 1)
    assert math.isclose(value, 0.1 * 1.0 * 1.1, rel_tol=1e-12)


def test_drift_bound_monotone_in_round():
    prev = 0.2
    args = ([5, 7], [0.3, 0.6], [2.0, 1.5])
    for t in range(1, 8):
        assert drift_bound(prev, 0.05, *args, t + 1) >= drift_bound(prev, 0.05, *args, t)


def test_drift_bound_validation():
    with pytest.raises(DimensionMismatchError):
        drift_bound(0.0, 0.1, [1, 2], [0.1], [1.0, 1.0], 1)
    with pytest.raises(InvalidParameterError):
        drift_bound(0.0, -0.1, [1], [0.1], [1.0], 1)
    with pytest.raises(InvalidParameterError):
        drift_bound(0.0, 0.1, [1], [0.1], [1.0], 0)
    with pytest.raises(InvalidInputError, match="total data size must be positive"):
        drift_bound(0.0, 0.1, [0], [0.1], [1.0], 1)


# -------------------------------------------------------------------- audits


def _grouped_parts(seed, sizes=(120, 120, 120, 120)):
    """One server per size, each holding mostly one label."""
    model = separated_feature_model(6, 8, 4.0, 1.0)
    rng = default_rng(seed)
    out = []
    for s, size in enumerate(sizes):
        counts = np.full(6, size // 12)
        counts[s % 6] += size - int(counts.sum())
        out.append(materialize([counts], model, [rng]))
    return out


def test_audit_identical_runs_hold_at_zero():
    parts = _grouped_parts(4)
    paired = run_paired(parts, parts, TrainConfig(phi=0.05, local_steps=1, rounds=6))
    assert all(d == 0.0 for d in paired.distances)
    report = audit_drift_bound(paired, parts)
    assert report.all_hold
    assert all(c.lhs == 0.0 for c in report.checks)


def test_audit_phi_zero_is_degenerate():
    parts = _grouped_parts(5)
    twin = _grouped_parts(6)
    paired = run_paired(parts, twin, TrainConfig(phi=0.0, local_steps=2, rounds=4))
    report = audit_drift_bound(paired, parts)
    assert report.all_hold
    assert all(c.lhs == 0.0 and c.rhs == 0.0 for c in report.checks)


def test_audit_skewed_versus_balanced_holds():
    # desk-size version of the full acceptance audit
    left = _grouped_parts(7)
    union = concat(left)
    order = default_rng(11).permutation(len(union))
    feats, labels = union.features[order], union.labels[order]
    right, start = [], 0
    for d in left:
        right.append(Dataset(feats[start : start + len(d)], labels[start : start + len(d)]))
        start += len(d)
    for steps in (1, 3):
        paired = run_paired(left, right, TrainConfig(phi=0.05, local_steps=steps, rounds=10))
        report = audit_drift_bound(paired, left)
        assert report.all_hold
        # the gap a skewed population opens is genuinely nonzero
        assert max(paired.distances) > 0.0


@pytest.mark.parametrize("local_steps", [1, 3])
def test_audit_gammas_and_bounds_match_the_union_oracle(local_steps):
    """The audit's pooled gradient, averaged from the paired run's server
    gradients, is the gradient on the servers' union: on servers of skewed
    sizes, every divergence level and every bound matches the oracle that
    takes a pass over the union."""
    left = _grouped_parts(12, sizes=(40, 160, 90, 250))
    cfg = TrainConfig(phi=0.05, local_steps=local_steps, rounds=10)
    paired = run_paired(left, iid_counterpart(left, default_rng(13)), cfg)
    report = audit_drift_bound(paired, left)
    running = np.maximum.accumulate(
        measure_gradient_divergences(paired.left_params[: cfg.rounds], left), axis=0
    )
    np.testing.assert_allclose(report.gammas, running[-1], rtol=1e-12, atol=0)
    sizes = [len(d) for d in left]
    lipschitz = lipschitz_bound(left).per_server
    bound = 0.0
    for t, check in enumerate(report.checks, 1):
        bound = drift_bound(bound, cfg.phi, sizes, running[t - 1], lipschitz, t)
        assert math.isclose(check.rhs, bound, rel_tol=1e-12, abs_tol=0.0), t


def test_audit_rejects_incomparable_runs():
    parts = _grouped_parts(10)
    paired = run_paired(parts, parts, TrainConfig(phi=0.05, local_steps=1, rounds=3))
    shorter = dataclasses.replace(paired, right_params=paired.right_params[:-1])
    with pytest.raises(InvalidComparisonError, match="differ in length"):
        audit_drift_bound(shorter, parts)
    extra = dataclasses.replace(paired, distances=paired.distances + (0.0,))
    with pytest.raises(InvalidComparisonError, match="do not match round count"):
        audit_drift_bound(extra, parts)
    with pytest.raises(InvalidInputError, match="heterogeneous server datasets"):
        audit_drift_bound(paired, [])
    fewer = dataclasses.replace(paired, gradients=paired.gradients[:-1])
    with pytest.raises(InvalidComparisonError, match="gradients do not match round count"):
        audit_drift_bound(fewer, parts)
    g = paired.gradients
    narrower = dataclasses.replace(paired, gradients=(g[0], tuple(a[:-1] for a in g[1]), *g[2:]))
    with pytest.raises(InvalidComparisonError, match="one server gradient per server dataset"):
        audit_drift_bound(narrower, parts)


def test_audit_report_serialises():
    parts = _grouped_parts(9)
    paired = run_paired(parts, parts, TrainConfig(phi=0.05, local_steps=1, rounds=3))
    payload = audit_drift_bound(paired, parts).to_dict()
    assert payload["all_hold"] is True
    assert len(payload["rounds"]) == 3
    assert set(payload["rounds"][0]) == {"round", "lhs", "rhs", "holds"}
