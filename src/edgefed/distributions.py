"""Client label histograms, label-skew profiles, and synthetic feature data.

Non-IID client populations are described by per-client label histograms.
Two skew profiles are provided: a Dirichlet profile, where per-class
proportions are drawn from Dir(alpha) and realised by a multinomial draw,
and a grouped profile, where a contiguous group of classes is boosted to a
high expected count and the remaining classes stay rare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidParameterError


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


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
            rounded = np.rint(arr)
            if not np.allclose(arr, rounded):
                raise InvalidInputError("label counts must be integers")
            arr = rounded
        if np.any(arr < 0):
            raise InvalidInputError("label counts must be non-negative")
        object.__setattr__(self, "counts", _frozen_array(arr, np.int64))

    @property
    def num_classes(self) -> int:
        return int(self.counts.size)

    def total(self) -> int:
        return int(self.counts.sum())

    def merge(self, other: "LabelDistribution") -> "LabelDistribution":
        """Elementwise sum of two histograms over the same class set."""
        if other.num_classes != self.num_classes:
            raise DimensionMismatchError(
                f"cannot merge histograms over {self.num_classes} and "
                f"{other.num_classes} classes"
            )
        return LabelDistribution(self.counts + other.counts)

    @staticmethod
    def zeros(num_classes: int) -> "LabelDistribution":
        if num_classes < 2:
            raise InvalidInputError("label histogram needs at least two classes")
        return LabelDistribution(np.zeros(num_classes, dtype=np.int64))


@dataclass(frozen=True)
class ProbabilityVector:
    """A point on the probability simplex (entries >= 0, sum == 1)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidInputError("probability vector needs at least two entries")
        if np.any(arr < 0):
            raise InvalidInputError("probabilities must be non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise InvalidInputError(
                f"probabilities sum to {float(arr.sum())!r}, expected 1"
            )
        object.__setattr__(self, "probs", _frozen_array(arr, np.float64))

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)


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

    def label_histogram(self, num_classes: int) -> LabelDistribution:
        counts = np.bincount(self.labels, minlength=num_classes)
        return LabelDistribution(counts)

    @staticmethod
    def concat(parts: Sequence["Dataset"]) -> "Dataset":
        if not parts:
            raise InvalidInputError("cannot concatenate zero datasets")
        feats = np.concatenate([p.features for p in parts], axis=0)
        labels = np.concatenate([p.labels for p in parts], axis=0)
        return Dataset(feats, labels)


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


DEFAULT_FEAT_DIM = 16


def separated_feature_model(
    num_classes: int,
    feat_dim: int = DEFAULT_FEAT_DIM,
    separation: float = 6.0,
    std: float = 1.0,
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


def sample_dirichlet(alpha: Sequence[float], rng: np.random.Generator) -> ProbabilityVector:
    """Draw one proportion vector from Dir(alpha).

    Args:
        alpha: positive concentration per class, at least two entries.
        rng: source of randomness.

    Returns:
        The drawn point on the simplex.
    """
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidParameterError("alpha needs at least two classes")
    if np.any(arr <= 0):
        raise InvalidParameterError("Dirichlet concentrations must be positive")
    draw = rng.dirichlet(arr)
    # Guard against accumulated rounding drift on extreme concentrations.
    draw = draw / draw.sum()
    return ProbabilityVector(draw)


def _grouped_high_classes(profile: GroupedProfile, rng: np.random.Generator) -> np.ndarray:
    """Pick the high-count class indices for one client."""
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
    return np.asarray(classes[: profile.num_high_classes], dtype=np.int64)


def _grouped_histogram(
    profile: GroupedProfile, high: np.ndarray, rng: np.random.Generator
) -> LabelDistribution:
    counts = np.empty(profile.num_classes, dtype=np.int64)
    high_set = set(int(h) for h in high)
    for c in range(profile.num_classes):
        if c in high_set:
            draw = rng.normal(profile.high_mean, profile.high_std)
        else:
            draw = rng.normal(profile.low_mean, profile.low_std)
        counts[c] = max(0, int(round(draw)))
    return LabelDistribution(counts)


def generate_clients(
    profile: NonIidProfile, num_clients: int, rng: np.random.Generator
) -> list:
    """Generate one label histogram per client under the given profile.

    Args:
        profile: Dirichlet or grouped skew description.
        num_clients: number of client histograms to produce.
        rng: source of randomness; draw order is fixed, so equal seeds give
            equal populations.

    Returns:
        List of ``LabelDistribution``, one per client.
    """
    if num_clients <= 0:
        raise InvalidParameterError("num_clients must be positive")
    out = []
    if isinstance(profile, DirichletProfile):
        for _ in range(num_clients):
            theta = sample_dirichlet(profile.alpha, rng)
            counts = rng.multinomial(profile.samples_per_client, theta.probs)
            out.append(LabelDistribution(counts))
        return out
    if isinstance(profile, GroupedProfile):
        shared_high = None
        if not profile.redraw_per_client:
            shared_high = _grouped_high_classes(profile, rng)
        for _ in range(num_clients):
            high = shared_high
            if high is None:
                high = _grouped_high_classes(profile, rng)
            out.append(_grouped_histogram(profile, high, rng))
        return out
    raise InvalidParameterError(f"unknown profile type {type(profile).__name__}")


def normalize(dist: LabelDistribution, epsilon: float = 1e-6) -> ProbabilityVector:
    """Smooth a histogram into a strictly positive probability vector.

    Every class receives ``(count + epsilon) / (total + C * epsilon)`` mass,
    so an all-zero histogram maps to the uniform distribution whenever
    ``epsilon > 0``. With ``epsilon == 0`` the plain empirical frequencies are
    returned; the empty histogram then also falls back to uniform rather than
    dividing by zero.
    """
    if epsilon < 0:
        raise InvalidParameterError("epsilon must be non-negative")
    counts = dist.counts.astype(np.float64)
    denom = counts.sum() + dist.num_classes * epsilon
    if denom == 0.0:
        probs = np.full(dist.num_classes, 1.0 / dist.num_classes)
    else:
        probs = (counts + epsilon) / denom
    return ProbabilityVector(probs)


def materialize(
    dist: LabelDistribution, model: FeatureModel, rng: np.random.Generator
) -> Dataset:
    """Draw a concrete dataset realising a label histogram.

    Exactly ``dist.counts[c]`` rows of class ``c`` are produced, in class
    order, from the model's isotropic Gaussian for that class.
    """
    if model.num_classes != dist.num_classes:
        raise DimensionMismatchError(
            f"feature model covers {model.num_classes} classes, "
            f"histogram has {dist.num_classes}"
        )
    blocks = []
    labels = []
    for c in range(dist.num_classes):
        n = int(dist.counts[c])
        if n == 0:
            continue
        noise = rng.standard_normal((n, model.feat_dim))
        blocks.append(model.means[c] + model.std * noise)
        labels.append(np.full(n, c, dtype=np.int64))
    if not blocks:
        return Dataset(np.zeros((0, model.feat_dim)), np.zeros(0, dtype=np.int64))
    return Dataset(np.concatenate(blocks, axis=0), np.concatenate(labels))
