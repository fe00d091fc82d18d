"""Client histogram generation, smoothing, and sample materialisation."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from edgefed.distributions import (
    Dataset,
    DirichletProfile,
    FeatureModel,
    GroupedProfile,
    LabelDistribution,
    generate_clients,
    materialize,
    normalize,
    separated_feature_model,
    uniform_distribution,
)
from edgefed.errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidParameterError,
)

from oracles import concat, label_histogram, merge, sample_dirichlet


def _read_only(*arrays):
    """Each array, and the array it views if any, rejects writes."""
    return all(
        not a.flags.writeable and (a.base is None or not a.base.flags.writeable)
        for a in arrays
    )


# ---------------------------------------------------------------- histograms


def test_label_distribution_basics():
    d = LabelDistribution([3, 0, 7])
    assert d.num_classes == 3
    assert d.total() == 10
    merged = merge(d, LabelDistribution([1, 1, 1]))
    assert merged.counts.tolist() == [4, 1, 8]
    assert merged.counts.dtype == np.int64 and not merged.counts.flags.writeable


def test_label_distribution_rejects_bad_counts():
    with pytest.raises(InvalidInputError):
        LabelDistribution([5, -1])
    with pytest.raises(InvalidInputError, match="label counts must be integers"):
        LabelDistribution([1.5, 2.5])
    # integral floats are not coerced either
    with pytest.raises(InvalidInputError, match="label counts must be integers"):
        LabelDistribution(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError, match="needs at least two classes"):
        LabelDistribution([5])
    with pytest.raises(InvalidInputError, match="total must be non-negative"):
        uniform_distribution(3, -1)
    with pytest.raises(DimensionMismatchError):
        merge(LabelDistribution([1, 2]), LabelDistribution([1, 2, 3]))


def test_uniform_distribution_spread():
    d = uniform_distribution(10, 200)
    assert d.total() == 200
    assert int(d.counts.max() - d.counts.min()) <= 1
    uneven = uniform_distribution(3, 7)
    assert uneven.total() == 7
    assert int(uneven.counts.max() - uneven.counts.min()) <= 1


# ----------------------------------------------------------------- dirichlet


def test_dirichlet_is_a_probability_vector():
    p = sample_dirichlet([1.0, 1.0], default_rng(7))
    assert 0.0 < p[0] < 1.0
    assert math.isclose(float(p.sum()), 1.0, abs_tol=1e-12)


def test_dirichlet_renormalises_the_draw():
    # this raw draw sums to 0.9999999999999998, so dividing moves every entry
    raw = default_rng(2).dirichlet([0.5] * 10)
    got = sample_dirichlet([0.5] * 10, default_rng(2))
    assert (got == raw / raw.sum()).all()
    assert (got != raw).any()


def test_dirichlet_concentration_limit():
    # huge alpha pins every draw to the uniform point
    theta = sample_dirichlet([1e6] * 10, default_rng(3))
    assert np.all(np.abs(theta - 0.1) < 0.01)


def test_dirichlet_mean_matches_analytic():
    # Monte-Carlo oracle: E[theta] = alpha / sum(alpha)
    rng = default_rng(11)
    draws = np.array([sample_dirichlet([2.0, 1.0, 1.0], rng) for _ in range(10_000)])
    assert np.allclose(draws.mean(axis=0), [0.5, 0.25, 0.25], atol=0.01)


def test_dirichlet_rejects_nonpositive_alpha():
    rng = default_rng(0)
    with pytest.raises(InvalidParameterError):
        sample_dirichlet([1.0, 0.0], rng)
    with pytest.raises(InvalidParameterError):
        sample_dirichlet([-0.5, 1.0], rng)
    with pytest.raises(InvalidParameterError, match="alpha needs at least two classes"):
        sample_dirichlet([1.0], rng)
    with pytest.raises(InvalidParameterError, match="alpha needs at least two classes"):
        DirichletProfile(alpha=(1.0,))
    with pytest.raises(InvalidParameterError, match="concentrations must be positive"):
        DirichletProfile(alpha=(1.0, 0.0))
    with pytest.raises(InvalidParameterError, match="samples_per_client must be positive"):
        DirichletProfile(alpha=(1.0, 1.0), samples_per_client=0)


def test_dirichlet_clients_equal_the_per_client_draws():
    # per client: its proportions, renormalised, then its multinomial counts
    profile = DirichletProfile(alpha=(0.5, 1.0, 2.0, 0.5), samples_per_client=37)
    rng, oracle_rng = default_rng(9), default_rng(9)
    got = generate_clients(profile, 50, rng)
    want = []
    for _ in range(50):
        theta = oracle_rng.dirichlet(profile.alpha)
        want.append(oracle_rng.multinomial(37, theta / theta.sum()).tolist())
    assert got.tolist() == want
    assert rng.random() == oracle_rng.random()
    assert got.dtype == np.int64 and _read_only(got)


class _RecordingRng:
    """A generator that records the proportions each multinomial draw gets."""

    def __init__(self, rng):
        self.rng, self.pvals = rng, []

    def dirichlet(self, alpha):
        return self.rng.dirichlet(alpha)

    def multinomial(self, n, pvals):
        self.pvals.append(pvals)
        return self.rng.multinomial(n, pvals)


def test_dirichlet_clients_draw_from_renormalised_proportions():
    # seed 2's Dir(0.5 x 10) draw misses a unit sum, so renormalising moves it
    profile = DirichletProfile(alpha=(0.5,) * 10)
    spy = _RecordingRng(default_rng(2))
    generate_clients(profile, 1, spy)
    assert (spy.pvals[0] == sample_dirichlet(profile.alpha, default_rng(2))).all()


def test_dirichlet_low_alpha_concentrates_mass():
    """Dir(0.3) clients park most of their mass on very few classes.

    Measured against a Monte-Carlo oracle: the mean per-client max share
    sits near 0.47 and roughly a third of clients cross 0.5, far more than
    a flat profile ever produces.
    """
    profile = DirichletProfile(alpha=(0.3,) * 10, samples_per_client=200)
    clients = generate_clients(profile, 400, default_rng(5))
    shares = np.array([c.max() / c.sum() for c in clients])
    frac_over_half = float((shares > 0.5).mean())
    assert 0.2 < frac_over_half < 0.5
    assert shares.mean() > 0.38
    flat = generate_clients(DirichletProfile(alpha=(30.0,) * 10, samples_per_client=200), 400, default_rng(5))
    flat_shares = np.array([c.max() / c.sum() for c in flat])
    assert float((flat_shares > 0.5).mean()) == 0.0


# ------------------------------------------------------------ grouped skew


def test_grouped_counts_track_their_means():
    # sorted per-client counts split into the two high draws and eight low
    clients = generate_clients(GroupedProfile(), 2000, default_rng(21))
    tops, rest = [], []
    for c in clients:
        ordered = np.sort(c)[::-1]
        tops.append(ordered[:2].mean())
        rest.append(ordered[2:].mean())
    assert 45.0 < float(np.mean(tops)) < 58.0
    assert 9.0 < float(np.mean(rest)) < 12.0


def test_grouped_degenerate_stds_are_exact():
    profile = GroupedProfile(high_std=0.0, low_std=0.0)
    for c in generate_clients(profile, 50, default_rng(2)):
        ordered = np.sort(c)[::-1]
        assert ordered.tolist() == [50, 50] + [10] * 8


def test_grouped_validation():
    with pytest.raises(InvalidParameterError, match="need at least two classes"):
        GroupedProfile(num_classes=1)
    with pytest.raises(InvalidParameterError):
        GroupedProfile(low_mean=0.0)
    with pytest.raises(InvalidParameterError):
        GroupedProfile(high_std=-1.0)
    with pytest.raises(InvalidParameterError):
        GroupedProfile(num_high_classes=0)
    with pytest.raises(InvalidParameterError):
        GroupedProfile(group_size=11)
    with pytest.raises(InvalidParameterError, match="num_clients must be positive"):
        generate_clients(GroupedProfile(), 0, default_rng(0))
    with pytest.raises(InvalidParameterError, match="unknown profile type"):
        generate_clients(object(), 3, default_rng(0))


def test_group_weights_validation():
    with pytest.raises(DimensionMismatchError):
        GroupedProfile(group_weights=(0.5, 0.5))  # 5 groups expected
    with pytest.raises(InvalidParameterError):
        GroupedProfile(group_weights=(0.5, 0.5, 0.5, 0.5, -0.1))
    with pytest.raises(InvalidParameterError):
        GroupedProfile(group_weights=(0.0,) * 5)
    # four high classes in pairs need two groups with positive weight
    with pytest.raises(InvalidParameterError, match="group_weights"):
        GroupedProfile(num_high_classes=4, group_weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    GroupedProfile(num_high_classes=4, group_weights=(1.0, 0.0, 0.0, 0.0, 1.0))


def test_group_weights_degenerate_pins_the_group():
    # all popularity on group 0 forces classes {0, 1} high for every client
    profile = GroupedProfile(
        high_std=0.0, low_std=0.0, group_weights=(1.0, 0.0, 0.0, 0.0, 0.0)
    )
    for c in generate_clients(profile, 30, default_rng(9)):
        assert c.tolist() == [50, 50] + [10] * 8


def test_group_weights_skew_popularity():
    # degenerate stds make the high classes exactly identifiable
    weights = (0.7, 0.1, 0.1, 0.05, 0.05)
    profile = GroupedProfile(high_std=0.0, low_std=0.0, group_weights=weights)
    clients = generate_clients(profile, 2000, default_rng(13))
    hit = np.zeros(5)
    for c in clients:
        high = np.argsort(c)[::-1][:2]
        hit[int(high[0]) // 2] += 0.5
        hit[int(high[1]) // 2] += 0.5
    freq = hit / len(clients)
    assert abs(freq[0] - 0.7) < 0.05
    assert freq[0] > freq[1:].max() + 0.4


def test_group_weights_equal_weights_stay_uniform():
    # explicit equal weights must not introduce any popularity bias
    clients = generate_clients(
        GroupedProfile(high_std=0.0, low_std=0.0, group_weights=(1.0,) * 5),
        4000,
        default_rng(77),
    )
    hit = np.zeros(5)
    for c in clients:
        high = np.argsort(c)[::-1][:2]
        hit[int(high[0]) // 2] += 0.5
        hit[int(high[1]) // 2] += 0.5
    freq = hit / len(clients)
    assert np.all(np.abs(freq - 0.2) < 0.03)


def _oracle_grouped_clients(profile, num_clients, rng):
    """Grouped populations as first written: ``choice`` per client, one scalar normal per class."""

    def high_classes():
        num_groups = math.ceil(profile.num_classes / profile.group_size)
        need = math.ceil(profile.num_high_classes / profile.group_size)
        weights = None
        if profile.group_weights is not None:
            weights = np.asarray(profile.group_weights, dtype=np.float64)
            weights = weights / weights.sum()
        chosen = rng.choice(num_groups, size=min(need, num_groups), replace=False, p=weights)
        classes = []
        for g in chosen:
            start = int(g) * profile.group_size
            stop = min(start + profile.group_size, profile.num_classes)
            classes.extend(range(start, stop))
        return classes[: profile.num_high_classes]

    def histogram(high):
        counts = np.empty(profile.num_classes, dtype=np.int64)
        for c in range(profile.num_classes):
            if c in high:
                draw = rng.normal(profile.high_mean, profile.high_std)
            else:
                draw = rng.normal(profile.low_mean, profile.low_std)
            counts[c] = max(0, int(round(draw)))
        return counts

    shared = None if profile.redraw_per_client else high_classes()
    return [histogram(high_classes() if shared is None else shared) for _ in range(num_clients)]


GOLDEN_WEIGHTS = (0.3, 0.3, 0.2, 0.1, 0.1)
ORACLE_PROFILES = {
    "golden": GroupedProfile(low_mean=0.5, low_std=0.5, group_weights=GOLDEN_WEIGHTS),
    "uniform": GroupedProfile(),
    "zero_weights": GroupedProfile(group_weights=(0.0, 0.5, 0.0, 0.5, 0.0)),
    "three_high": GroupedProfile(num_high_classes=3, group_weights=GOLDEN_WEIGHTS),
    "shared": GroupedProfile(redraw_per_client=False, group_weights=GOLDEN_WEIGHTS),
    "zero_std": GroupedProfile(high_std=0.0, low_std=0.0),
    "ragged_uniform": GroupedProfile(num_classes=7, group_size=3, num_high_classes=3),
    "ragged_weighted": GroupedProfile(
        num_classes=7, group_size=3, num_high_classes=3, group_weights=(0.2, 0.3, 0.5)
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
@pytest.mark.parametrize("seed", range(1, 11))
def test_grouped_clients_equal_the_per_client_oracle(name, seed):
    """Same populations and the same next draw as ``choice`` plus scalar normals."""
    profile = ORACLE_PROFILES[name]
    rng, oracle_rng = default_rng(seed), default_rng(seed)
    got = generate_clients(profile, 300, rng)
    want = _oracle_grouped_clients(profile, 300, oracle_rng)
    assert got.tolist() == [c.tolist() for c in want]
    assert rng.random() == oracle_rng.random()
    assert got.dtype == np.int64 and _read_only(got)


def test_grouped_count_too_large_for_int64_raises():
    """A draw past int64 fails as the scalar loop did; it never wraps."""
    profile = GroupedProfile(high_mean=1e19, high_std=0.0)
    with pytest.raises(OverflowError):
        _oracle_grouped_clients(profile, 2, default_rng(1))
    with pytest.raises(OverflowError):
        generate_clients(profile, 2, default_rng(1))
    # the largest float below 2**63 still fits
    fits = GroupedProfile(high_mean=2.0**63 - 1024, high_std=0.0)
    assert generate_clients(fits, 1, default_rng(1))[0].max() == 2**63 - 1024


# --------------------------------------------------------------- smoothing


def test_normalize_plain_counts():
    p = normalize(LabelDistribution([10, 10, 10, 10]))
    assert np.allclose(p, 0.25)


def test_normalize_empty_histogram_is_uniform():
    p = normalize(LabelDistribution([0, 0, 0, 0]))
    assert np.allclose(p, 0.25)


def test_normalize_arithmetic():
    p = normalize(LabelDistribution([3, 1]))
    assert np.allclose(p, [0.75, 0.25], atol=1e-5)


# ------------------------------------------------------------- materialise


def test_materialize_counts_and_labels():
    model = separated_feature_model(2, 4, 6.0, 1.0)
    ds = materialize([[5, 0]], model, [default_rng(1)])
    assert len(ds) == 5
    assert np.all(ds.labels == 0)
    assert ds.feat_dim == 4


def test_feature_data_validation():
    with pytest.raises(InvalidInputError, match="features must be a 2-d matrix"):
        Dataset(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(DimensionMismatchError, match="one label per feature row"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(InvalidInputError, match="cannot concatenate zero datasets"):
        concat([])
    with pytest.raises(InvalidInputError, match="class means must form a 2-d matrix"):
        FeatureModel(np.zeros(3))
    with pytest.raises(InvalidParameterError, match="feature std must be non-negative"):
        FeatureModel(np.zeros((2, 3)), -1.0)
    with pytest.raises(InvalidParameterError, match="feat_dim must be at least num_classes"):
        separated_feature_model(4, 3, 6.0, 1.0)
    model = separated_feature_model(3, 4, 6.0, 1.0)
    with pytest.raises(DimensionMismatchError, match="feature model covers 3 classes"):
        materialize([[1, 1]], model, [default_rng(1)])
    hist, streams = uniform_distribution(3, 6), [default_rng(1), default_rng(2)]
    with pytest.raises(DimensionMismatchError, match=r"covers 3 classes, counts have shape \(2, 2\)"):
        materialize([[1, 1], [1, 1]], model, streams)
    with pytest.raises(DimensionMismatchError, match="one stream per histogram, got 1 for 2"):
        materialize([hist.counts, hist.counts], model, streams[:1])
    with pytest.raises(DimensionMismatchError, match="one stream per histogram, got 2 for 1"):
        materialize([hist.counts], model, streams)


def test_materialize_empty():
    model = separated_feature_model(3, 4, 6.0, 1.0)
    ds = materialize([[0, 0, 0]], model, [default_rng(1)])
    assert len(ds) == 0


def test_materialize_separation_oracle():
    """With >= 6 sigma between class means a nearest-mean rule is near perfect."""
    model = separated_feature_model(4, 8, 6.0, 1.0)
    ds = materialize([uniform_distribution(4, 1000).counts], model, [default_rng(42)])
    centers = model.means
    d2 = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert float((pred == ds.labels).mean()) >= 0.99


def test_dataset_concat_roundtrip():
    model = separated_feature_model(3, 5, 6.0, 1.0)
    a = materialize([uniform_distribution(3, 30).counts], model, [default_rng(3)])
    b = materialize([uniform_distribution(3, 12).counts], model, [default_rng(4)])
    both = concat([a, b])
    assert len(both) == 42
    assert np.array_equal(both.features[:30], a.features)
    assert np.array_equal(both.labels[30:], b.labels)
    hist = label_histogram(both, 3)
    assert hist.counts.tolist() == (label_histogram(a, 3).counts + label_histogram(b, 3).counts).tolist()


def _materialize_per_class(dist, model, rng):
    """The per-class formulation: one noise block per non-empty class, in order."""
    blocks, labels = [], []
    for c in range(dist.num_classes):
        n = int(dist.counts[c])
        if n == 0:
            continue
        blocks.append(model.means[c] + model.std * rng.standard_normal((n, model.feat_dim)))
        labels.append(np.full(n, c, dtype=np.int64))
    if not blocks:
        return np.zeros((0, model.feat_dim)), np.zeros(0, dtype=np.int64)
    return np.concatenate(blocks, axis=0), np.concatenate(labels)


@pytest.mark.parametrize("std", [0.0, 1.0, 2.5])
def test_materialize_equals_per_class_blocks(std):
    """One (n, d) block equals one block per class, bit for bit, and leaves
    the stream where the per-class draws would."""
    pick = default_rng(11)
    model = separated_feature_model(6, 9, 4.5, std)
    hists = [np.zeros(6, dtype=np.int64)]
    for _ in range(199):
        counts = pick.integers(0, 40, size=6)
        counts[pick.random(6) < 0.3] = 0
        hists.append(counts)
    for seed, counts in enumerate(hists):
        dist = LabelDistribution(counts)
        fresh, old = default_rng(seed), default_rng(seed)
        ds = materialize([dist.counts], model, [fresh])
        feats, labels = _materialize_per_class(dist, model, old)
        assert np.array_equal(ds.features, feats)
        assert ds.features.tobytes() == feats.tobytes()  # signed zeros too
        assert np.array_equal(ds.labels, labels)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert fresh.random() == old.random()
        assert _read_only(ds.features, ds.labels)


def test_materialize_draws_each_histogram_from_its_stream():
    """Several histograms, an empty one among them, equal the concatenated
    one-histogram draws from the same streams, bit for bit, and leave each
    stream where its own draw would."""
    model = separated_feature_model(4, 6, 5.0, 1.5)
    hists = np.array([[3, 0, 2, 1], [0, 0, 0, 0], [0, 4, 0, 5], [2, 2, 2, 2]])
    streams = [default_rng(seed) for seed in range(len(hists))]
    ds = materialize(hists, model, streams)
    alone = [materialize([h], model, [default_rng(seed)]) for seed, h in enumerate(hists)]
    feats = np.concatenate([a.features for a in alone])
    assert ds.features.tobytes() == feats.tobytes()
    assert np.array_equal(ds.labels, np.concatenate([a.labels for a in alone]))
    assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
    assert _read_only(ds.features, ds.labels)
    for seed, (h, rng) in enumerate(zip(hists, streams)):
        again = default_rng(seed)
        materialize([h], model, [again])
        assert rng.random() == again.random()


def test_dataset_concat_is_read_only_and_owns_its_arrays():
    model = separated_feature_model(3, 5, 6.0, 1.0)
    parts = [materialize([uniform_distribution(3, n).counts], model, [default_rng(n)]) for n in (7, 0, 5)]
    both = concat(parts)
    assert _read_only(both.features, both.labels)
    assert not any(np.shares_memory(both.features, p.features) for p in parts)
    one = concat(parts[:1])
    assert not np.shares_memory(one.features, parts[0].features)
    assert np.array_equal(one.features, parts[0].features)
