"""Client label histograms, label-skew profiles, and synthetic feature data.

Non-IID client populations are described by per-client label histograms.
Two skew profiles are provided: a Dirichlet profile, where per-class
proportions are drawn from Dir(alpha) and realised by a multinomial draw,
and a grouped profile, where a contiguous group of classes is boosted to a
high expected count and the remaining classes stay rare.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidParameterError


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``: how a public constructor keeps its input."""
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


def _trusted(cls, **arrays):
    """Build ``cls`` from fresh arrays, freezing them in place and skipping validation.

    Only for arrays the package has just built, of the right dtype and shape,
    that no caller can reach: marking them read-only is all the public
    constructor would add, so its checks and its copy are skipped.
    """
    out = object.__new__(cls)
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(out, name, arr)
    return out


@dataclass(frozen=True)
class LabelDistribution:
    """Histogram of sample counts per class label.

    Attributes:
        counts: non-negative integer count per class, at least two classes.
    """

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInputError("label histogram needs at least two classes")
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError("label counts must be integers")
        if np.any(arr < 0):
            raise InvalidInputError("label counts must be non-negative")
        object.__setattr__(self, "counts", _frozen_array(arr, np.int64))

    @property
    def num_classes(self) -> int:
        return int(self.counts.size)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class DirichletProfile:
    """Label-skew profile drawing per-client class proportions from Dir(alpha).

    Each client's histogram is a multinomial draw of ``samples_per_client``
    samples over its own proportion vector.
    """

    alpha: tuple
    samples_per_client: int = 100

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) < 2:
            raise InvalidParameterError("alpha needs at least two classes")
        if any(a <= 0 for a in alpha):
            raise InvalidParameterError("Dirichlet concentrations must be positive")
        if self.samples_per_client <= 0:
            raise InvalidParameterError("samples_per_client must be positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def num_classes(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class GroupedProfile:
    """Label-skew profile with a small set of high-count classes per client.

    Classes are partitioned into contiguous groups of ``group_size``. Each
    client gets ``num_high_classes`` high classes taken from randomly chosen
    groups; those classes draw counts from N(high_mean, high_std) and the rest
    from N(low_mean, low_std), rounded and clamped at zero. Degenerate
    (zero standard deviation) draws are allowed and produce exact means.

    ``group_weights`` skews the group popularity across clients; the default
    of None selects groups uniformly. A popularity skew models populations
    whose dominant classes are globally imbalanced as well as locally
    concentrated, the heavier flavour of label skew.

    When ``redraw_per_client`` is False the group choice is made once and
    shared by every client of a single generation call.
    """

    high_mean: float = 50.0
    high_std: float = 20.0
    low_mean: float = 10.0
    low_std: float = 2.0
    num_high_classes: int = 2
    group_size: int = 2
    num_classes: int = 10
    redraw_per_client: bool = True
    group_weights: tuple | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise InvalidParameterError("need at least two classes")
        if self.high_mean <= 0 or self.low_mean <= 0:
            raise InvalidParameterError("count means must be positive")
        if self.high_std < 0 or self.low_std < 0:
            raise InvalidParameterError("count deviations must be non-negative")
        if not (0 < self.num_high_classes <= self.num_classes):
            raise InvalidParameterError("num_high_classes out of range")
        if not (0 < self.group_size <= self.num_classes):
            raise InvalidParameterError("group_size out of range")
        if self.group_weights is not None:
            w = np.asarray(self.group_weights, dtype=np.float64)
            groups = math.ceil(self.num_classes / self.group_size)
            if w.shape != (groups,):
                raise DimensionMismatchError(
                    f"need one weight per group, got {w.shape} for {groups}"
                )
            if (w < 0).any() or w.sum() <= 0:
                raise InvalidParameterError(
                    "group weights must be non-negative with positive sum"
                )
            need = math.ceil(self.num_high_classes / self.group_size)
            if np.count_nonzero(w) < need:
                raise InvalidParameterError(
                    f"group_weights: a client needs {need} groups, "
                    f"but only {np.count_nonzero(w)} weights are positive"
                )


NonIidProfile = Union[DirichletProfile, GroupedProfile]


@dataclass(frozen=True)
class Dataset:
    """A packed collection of labelled feature vectors.

    Attributes:
        features: float matrix of shape (num_samples, feat_dim).
        labels: non-negative integer class label per row.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise InvalidInputError("features must be a 2-d matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DimensionMismatchError("one label per feature row required")
        if labels.size and labels.min() < 0:
            bad = np.unique(labels[labels < 0]).tolist()
            raise InvalidInputError(f"labels must be non-negative, got {bad}")
        object.__setattr__(self, "features", _frozen_array(feats, np.float64))
        object.__setattr__(self, "labels", _frozen_array(labels, np.int64))

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def feat_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class FeatureModel:
    """Per-class isotropic Gaussian feature generator.

    Attributes:
        means: class mean vectors, shape (num_classes, feat_dim).
        std: shared isotropic standard deviation.
    """

    means: np.ndarray
    std: float = 1.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2:
            raise InvalidInputError("class means must form a 2-d matrix")
        if self.std < 0:
            raise InvalidParameterError("feature std must be non-negative")
        object.__setattr__(self, "means", _frozen_array(means, np.float64))

    @property
    def num_classes(self) -> int:
        return int(self.means.shape[0])

    @property
    def feat_dim(self) -> int:
        return int(self.means.shape[1])


def separated_feature_model(
    num_classes: int, feat_dim: int, separation: float, std: float
) -> FeatureModel:
    """Deterministic feature model with one axis per class.

    Class ``c`` is centred at ``separation`` along coordinate axis ``c``, so
    any two class means are ``separation * sqrt(2)`` apart.
    """
    if feat_dim < num_classes:
        raise InvalidParameterError("feat_dim must be at least num_classes")
    means = np.zeros((num_classes, feat_dim))
    for c in range(num_classes):
        means[c, c] = separation
    return FeatureModel(means, std)


def uniform_distribution(num_classes: int, total: int) -> LabelDistribution:
    """Histogram with ``total`` samples spread as evenly as divisibility allows.

    The remainder, if any, goes to the lowest class indices.
    """
    if total < 0:
        raise InvalidInputError("total must be non-negative")
    base, rem = divmod(int(total), num_classes)
    counts = np.full(num_classes, base, dtype=np.int64)
    counts[:rem] += 1
    return LabelDistribution(counts)


def _high_class_picker(profile: GroupedProfile, rng: np.random.Generator):
    """Return a function that draws one client's high-class mask, a (C,) bool row.

    The draws are those of ``rng.choice(G, size=need, replace=False, p=w)``
    over the G groups. For one group that call is one ``rng.random()`` looked
    up in the normalised cumulative weights, or one ``rng.integers(0, G)``
    without weights, and those are drawn directly; more groups keep
    ``choice``. The chosen groups' classes, in draw order, are cut to the
    first ``num_high_classes``.
    """
    size, num_classes = profile.group_size, profile.num_classes
    num_groups = math.ceil(num_classes / size)
    need = math.ceil(profile.num_high_classes / size)  # at most num_groups
    weights = None
    if profile.group_weights is not None:
        weights = np.asarray(profile.group_weights, dtype=np.float64)
        weights = weights / weights.sum()
    if need > 1:

        def pick():
            chosen = rng.choice(num_groups, size=need, replace=False, p=weights)
            classes = [
                c for g in chosen.tolist()
                for c in range(g * size, min(g * size + size, num_classes))
            ]
            mask = np.zeros(num_classes, dtype=bool)
            mask[classes[: profile.num_high_classes]] = True
            return mask

        return pick
    table = np.zeros((num_groups, num_classes), dtype=bool)
    for g in range(num_groups):
        table[g, g * size : g * size + profile.num_high_classes] = True
    if weights is None:
        return lambda: table[int(rng.integers(0, num_groups))]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    return lambda: table[bisect.bisect_right(cdf, rng.random())]


def _grouped_counts(
    profile: GroupedProfile, num_clients: int, rng: np.random.Generator
) -> np.ndarray:
    """(num_clients, C) int64 counts: per client its high-class draw, then C normals.

    ``rng.normal(loc, scale)`` is ``loc + scale * standard_normal()`` bit for
    bit, so each row's standard normals are drawn in the stream's order and
    scaled once for all clients. ``rint`` rounds half to even, as ``round``
    does.
    """
    pick = _high_class_picker(profile, rng)
    if profile.redraw_per_client:
        high = np.empty((num_clients, profile.num_classes), dtype=bool)
        z = np.empty(high.shape)
        for i in range(num_clients):
            high[i] = pick()
            rng.standard_normal(out=z[i])
    else:
        high = pick()
        z = rng.standard_normal((num_clients, profile.num_classes))
    mean = np.where(high, float(profile.high_mean), float(profile.low_mean))
    std = np.where(high, float(profile.high_std), float(profile.low_std))
    draws = np.rint(mean + std * z)
    if not (np.isfinite(draws).all() and draws.max() < 2.0**63):
        raise OverflowError("a grouped label count draw does not fit in int64")
    return np.maximum(draws, 0).astype(np.int64)


def generate_clients(
    profile: NonIidProfile, num_clients: int, rng: np.random.Generator
) -> np.ndarray:
    """Generate one label histogram per client under the given profile.

    A Dirichlet client draws its proportions, then its multinomial counts.
    A grouped client draws its high groups, then one normal per class in
    class order. The bytes of a grouped population therefore depend on
    numpy's ``Generator.choice`` algorithm, which this function reproduces
    for one group with ``random`` (weighted) or ``integers`` (uniform), and
    on those two methods' algorithms.

    Args:
        profile: Dirichlet or grouped skew description.
        num_clients: number of client histograms to produce.
        rng: source of randomness; draw order is fixed, so equal seeds give
            equal populations.

    Returns:
        Read-only (num_clients, C) int64 count matrix, one row per client.
    """
    if num_clients <= 0:
        raise InvalidParameterError("num_clients must be positive")
    if isinstance(profile, DirichletProfile):
        n, alpha = profile.samples_per_client, np.array(profile.alpha)
        counts = np.empty((num_clients, alpha.size), dtype=np.int64)
        for row in counts:
            draw = rng.dirichlet(alpha)
            # numpy's draw can miss a unit sum by rounding; renormalise it.
            row[:] = rng.multinomial(n, draw / draw.sum())
    elif isinstance(profile, GroupedProfile):
        counts = _grouped_counts(profile, num_clients, rng)
    else:
        raise InvalidParameterError(f"unknown profile type {type(profile).__name__}")
    counts.flags.writeable = False
    return counts


# The pseudo-count ``smoothed_rows`` gives every class.
SMOOTHING_EPSILON = 1e-6


def smoothed_rows(counts: np.ndarray) -> np.ndarray:
    """Smooth every row of an integer count matrix into probabilities.

    The same operations in the same order for every row: its total plus C
    times the pseudo-count ``eps = SMOOTHING_EPSILON``, then (count + eps)
    over it. Totals of integer counts are exact in any order, and the
    pseudo-count keeps them positive, so a row smooths to the same bits
    whatever matrix it sits in.
    """
    eps = SMOOTHING_EPSILON
    return (counts + eps) / (counts.sum(axis=1) + counts.shape[1] * eps)[:, None]


def normalize(dist: LabelDistribution) -> np.ndarray:
    """Smooth a histogram into a strictly positive float64 probability row.

    Every class receives ``(count + eps) / (total + C * eps)`` mass, with
    ``eps = SMOOTHING_EPSILON``, so an all-zero histogram maps to the
    uniform distribution. This is ``smoothed_rows`` of its one row.
    """
    return smoothed_rows(dist.counts[None])[0]


def materialize(
    counts: np.ndarray, model: FeatureModel, rngs: Sequence[np.random.Generator]
) -> Dataset:
    """Draw one dataset realising the rows of a (k, C) count matrix, one stream each.

    Row k's block follows block k-1 in one preallocated (n, d) buffer and
    holds exactly ``counts[k, c]`` samples of class ``c``, in class order.
    Its noise is one standard-normal draw from ``rngs[k]`` straight into the
    block, scaled by ``std`` and shifted by each sample's class mean. That
    draw order is part of the byte contract, since every device's features
    depend on it: a block equals ``materialize(counts[k:k + 1], model,
    [rngs[k]])`` bit for bit.
    """
    counts = np.asarray(counts)
    if len(counts) != len(rngs):
        raise DimensionMismatchError(
            f"need one stream per histogram, got {len(rngs)} for {len(counts)}"
        )
    if counts.ndim != 2 or counts.shape[1] != model.num_classes:
        raise DimensionMismatchError(
            f"feature model covers {model.num_classes} classes, counts have shape {counts.shape}"
        )
    classes = np.tile(np.arange(model.num_classes, dtype=np.int64), len(counts))
    labels = np.repeat(classes, counts.reshape(-1))
    features = np.empty((labels.size, model.feat_dim))
    stops = np.cumsum(counts.sum(axis=1)).tolist()
    for rng, start, stop in zip(rngs, [0, *stops], stops):
        block = features[start:stop]
        rng.standard_normal(out=block)
        block *= model.std
        block += model.means[labels[start:stop]]
    return _trusted(Dataset, features=features, labels=labels)
