"""Scenario configuration, the end-to-end pipeline, and emission.

A scenario seed expands into independent streams for topology placement,
data synthesis, scheduling, and training, so two runs of the same config
produce byte-identical result files.
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (
    Dataset,
    DirichletProfile,
    GroupedProfile,
    NonIidProfile,
    materialize,
    generate_clients,
    separated_feature_model,
    uniform_distribution,
)
from .divergence import DivergenceReport, audit_drift_bound
from .errors import InvalidInputError, InvalidParameterError
from .federated import (
    ModelParams,
    TrainConfig,
    iid_counterpart,
    run_fl,
    run_paired,
)
from .network import (
    DEFAULT_BITS_PER_SAMPLE,
    OffloadPlan,
    RadioConfig,
    Topology,
    TopologyParams,
    assign_subcarriers,
    place_topology,
    system_cost,
)
from .rng import keyed_stream, substream
from .scheduler import (
    OffloadTrace,
    Policy,
    SchedulerConfig,
    run_scheduler,
    uniform_target,
)

OUTPUT_DIR_ENV = "EDGEFED_OUT"

TRACE_HEADER = "round,server,kl,total,device"
METRICS_HEADER = "round,loss,accuracy"
POWER_HEADER = "device,server,subcarrier,power_w,energy_j"


@dataclass(frozen=True)
class DataParams:
    """Synthetic data description for one scenario."""

    profile: NonIidProfile = field(default_factory=GroupedProfile)
    num_classes: int = 10
    feat_dim: int = 16
    separation: float = 6.0
    feature_std: float = 1.0
    bits_per_sample: int = DEFAULT_BITS_PER_SAMPLE
    eval_samples_per_class: int = 100

    def __post_init__(self):
        if self.profile.num_classes != self.num_classes:
            raise InvalidParameterError(
                f"profile covers {self.profile.num_classes} classes, "
                f"num_classes is {self.num_classes}"
            )
        if self.feat_dim < self.num_classes:
            raise InvalidParameterError("feat_dim must be at least num_classes")
        for name in ("bits_per_sample", "eval_samples_per_class"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be at least 1")
        if self.feature_std < 0:
            raise InvalidParameterError("feature std must be non-negative")


@dataclass(frozen=True)
class SchedulerParams:
    gamma: int = 200
    policy: str = Policy.MIN_KL.value
    stop_at_threshold: bool = False

    def __post_init__(self):
        if self.gamma < 1:
            raise InvalidParameterError("gamma must be positive")
        Policy.parse(self.policy)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    seed: int = 1
    topology: TopologyParams = field(default_factory=TopologyParams)
    radio: RadioConfig = field(default_factory=RadioConfig)
    data: DataParams = field(default_factory=DataParams)
    scheduler: SchedulerParams = field(default_factory=SchedulerParams)
    train: TrainConfig = field(default_factory=TrainConfig)
    audit: bool = True
    tags: tuple = ()
    out_dir: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError("seed must be non-negative")

    def to_dict(self) -> dict:
        return _to_plain(self)

    @staticmethod
    def from_dict(payload: dict) -> "ScenarioConfig":
        return _from_plain(ScenarioConfig, payload, "")

    @staticmethod
    def from_json(path) -> "ScenarioConfig":
        with open(path) as fh:
            return ScenarioConfig.from_dict(json.load(fh))


# The profile is the one polymorphic config field; its JSON form names the
# class with a "kind" tag, and an untagged profile is grouped.
_PROFILE_KINDS = {"grouped": GroupedProfile, "dirichlet": DirichletProfile}
_SCALAR_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _to_plain(value):
    """JSON form of a config: dataclasses become dicts, tuples become lists."""
    if is_dataclass(value):
        out = {f.name: _to_plain(getattr(value, f.name)) for f in fields(value)}
        for kind, cls in _PROFILE_KINDS.items():
            if type(value) is cls:
                out["kind"] = kind
        return out
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def _from_plain(cls, raw, path: str):
    """Build dataclass ``cls`` from its JSON form, naming the key path of a fault."""
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{path or 'config'}: expected an object")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise InvalidInputError(f"{where}: unknown key")
        kwargs[key] = _field_from_plain(known[key], value, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a field is missing or out of range
        raise InvalidInputError(f"{path or 'config'}: {exc}") from None


def _field_from_plain(f, value, where: str):
    sub = f.default_factory
    if sub in _PROFILE_KINDS.values() and isinstance(value, dict):
        value = dict(value)
        kind = value.pop("kind", "grouped")
        if not (isinstance(kind, str) and kind in _PROFILE_KINDS):
            raise InvalidInputError(f"{where}.kind: unknown profile kind {kind!r}")
        sub = _PROFILE_KINDS[kind]
    if is_dataclass(sub):
        return _from_plain(sub, value, where)
    type_name = getattr(f.type, "__name__", f.type)
    if type_name.endswith(" | None"):  # optional: null, or whatever X accepts
        if value is None:
            return None
        type_name = type_name.removesuffix(" | None")
    if type_name == "tuple":
        if not isinstance(value, list):
            raise InvalidInputError(f"{where}: expected list")
        for i, item in enumerate(value):
            _require_finite(item, f"{where}[{i}]")
        return tuple(value)
    accepted = _SCALAR_TYPES.get(type_name, ())
    if not isinstance(value, accepted) or (isinstance(value, bool) and type_name != "bool"):
        raise InvalidInputError(f"{where}: expected {type_name}")
    return _require_finite(value, where)


def _require_finite(value, where: str):
    # JSON's NaN and Infinity load as floats, and NaN passes every range check.
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInputError(f"{where}: expected a finite number")
    return value


def desk_config(seed: int = 1, **overrides) -> ScenarioConfig:
    """Small configuration that exercises the whole pipeline in seconds."""
    return replace(ScenarioConfig(seed=seed), **overrides)


def paper_scale_config(seed: int = 1) -> ScenarioConfig:
    """Ten servers with a hundred devices each and a heavier threshold."""
    return ScenarioConfig(
        seed=seed,
        topology=TopologyParams(num_servers=10, devices_per_server=100),
        scheduler=SchedulerParams(gamma=500),
    )


@dataclass(frozen=True)
class ResultsBundle:
    """Everything a scenario run produced."""

    config: dict
    topology: Topology
    plan: OffloadPlan
    trace: OffloadTrace
    cost_joules: float
    cost_max_power_joules: float
    metrics: tuple
    final_accuracy: float | None
    audit: DivergenceReport | None
    versions: dict


def _versions() -> dict:
    return {
        "edgefed": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def build_population(cfg: ScenarioConfig):
    """Generate client histograms and place the topology for a scenario."""
    data_rng = substream(cfg.seed, "data")
    topo_rng = substream(cfg.seed, "topology")
    total_devices = cfg.topology.num_servers * cfg.topology.devices_per_server
    dists = generate_clients(cfg.data.profile, total_devices, data_rng)
    topo = place_topology(
        cfg.topology, topo_rng, dists=dists, bits_per_sample=cfg.data.bits_per_sample
    )
    return dists, topo


def _feature_model(cfg: ScenarioConfig):
    return separated_feature_model(
        cfg.data.num_classes,
        cfg.data.feat_dim,
        cfg.data.separation,
        cfg.data.feature_std,
    )


def server_datasets_from_plan(
    cfg: ScenarioConfig, topo: Topology, plan: OffloadPlan
) -> list:
    """Materialise the planned transfers into per-server training sets.

    Device features are drawn from a stream keyed by device id, so the same
    device carries the same samples no matter which policy selected it, and
    one server's devices are materialised only when its set is built.
    """
    model = _feature_model(cfg)
    by_server: dict = {}
    for e in plan.entries:
        by_server.setdefault(e.server, []).append(topo.device(e.device))
    return [
        Dataset.concat(
            [
                materialize(dev.dist, model, keyed_stream(cfg.seed, "data", dev.id))
                for dev in by_server[s]
            ]
        )
        for s in sorted(by_server)
    ]


def iid_reference(cfg: ScenarioConfig, sizes, rng) -> list:
    """Idealised IID server datasets: uniform labels, fresh features.

    One dataset per entry in ``sizes``, each drawn label-balanced from the
    scenario's feature model. This is the upper-reference arm for policy
    comparisons, as opposed to ``iid_counterpart`` which reshuffles an
    existing capture.
    """
    model = _feature_model(cfg)
    out = []
    for n in sizes:
        hist = uniform_distribution(cfg.data.num_classes, int(n))
        out.append(materialize(hist, model, rng))
    return out


def evaluation_set(cfg: ScenarioConfig) -> Dataset:
    """Held-out, label-balanced dataset drawn from the scenario's eval stream."""
    model = _feature_model(cfg)
    hist = uniform_distribution(
        cfg.data.num_classes,
        cfg.data.num_classes * cfg.data.eval_samples_per_class,
    )
    return materialize(hist, model, substream(cfg.seed, "eval"))


def run_scenario(cfg: ScenarioConfig) -> ResultsBundle:
    """Full pipeline: population, scheduling, pricing, training, audit.

    Returns:
        A ``ResultsBundle``; its CSV and JSON projections are stable across
        repeated runs of the same config.
    """
    _, topo = build_population(cfg)
    target = uniform_target(
        cfg.topology.num_servers, cfg.scheduler.gamma, cfg.data.num_classes
    )
    sched_cfg = SchedulerConfig(
        gamma=cfg.scheduler.gamma,
        target=target,
        policy=Policy.parse(cfg.scheduler.policy),
        stop_at_threshold=cfg.scheduler.stop_at_threshold,
    )
    plan, trace = run_scheduler(
        sched_cfg, topo, cfg.radio, substream(cfg.seed, "scheduler")
    )
    # Left to right, as ``system_cost`` adds: ``sum`` compensates from 3.12 on.
    cost = 0.0
    for e in plan.entries:
        cost += e.energy_joules
    smap = assign_subcarriers(plan.pairs(), cfg.radio.subcarriers)
    ceiling = {pair: cfg.radio.max_power for pair in plan.pairs()}
    cost_max = system_cost(plan, ceiling, topo, cfg.radio, smap)
    server_data = server_datasets_from_plan(cfg, topo, plan)
    eval_set = evaluation_set(cfg)
    # Training and the audit's paired run start from one model over every class.
    init = ModelParams.zeros(cfg.data.num_classes, cfg.data.feat_dim)
    metrics, _ = run_fl(
        server_data, cfg.train, eval_set, init=init, rng=substream(cfg.seed, "training")
    )
    report = None
    if cfg.audit:
        twin = iid_counterpart(server_data, substream(cfg.seed, "iid"))
        paired = run_paired(server_data, twin, replace(cfg.train, batch_size=None), init=init)
        report = audit_drift_bound(paired, server_data)
    return ResultsBundle(
        config=cfg.to_dict(),
        topology=topo,
        plan=plan,
        trace=trace,
        cost_joules=cost,
        cost_max_power_joules=cost_max,
        metrics=tuple(metrics),
        final_accuracy=float(metrics[-1].accuracy) if metrics else None,
        audit=report,
        versions=_versions(),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def resolve_out_dir(cfg: ScenarioConfig, override: str | None = None) -> Path:
    """Pick the output directory: env override, CLI value, config, cwd."""
    env = os.environ.get(OUTPUT_DIR_ENV)
    chosen = env or override or cfg.out_dir or "."
    return Path(chosen)


def emit(bundle: ResultsBundle, out_dir) -> list:
    """Write a bundle's CSV tables and JSON summary under ``out_dir``.

    Returns the list of written paths. Emission is pure projection: writing
    the same bundle twice produces byte-identical files.
    """
    summary = {
        "config": bundle.config,
        "cost_joules": bundle.cost_joules,
        "cost_max_power_joules": bundle.cost_max_power_joules,
        "final_accuracy": bundle.final_accuracy,
        "rounds": len(bundle.metrics),
        "plan_size": len(bundle.plan.entries),
        "audit": bundle.audit.to_dict() if bundle.audit else None,
        "versions": bundle.versions,
    }
    files = {
        "trace.csv": _csv(
            TRACE_HEADER,
            (
                f"{r.round},{r.server},{_fmt(r.kl)},{r.total},{r.device}"
                for r in bundle.trace.rows
            ),
        ),
        "metrics.csv": _csv(
            METRICS_HEADER,
            (f"{m.round},{_fmt(m.global_loss)},{_fmt(m.accuracy)}" for m in bundle.metrics),
        ),
        "power.csv": _csv(
            POWER_HEADER,
            (
                f"{e.device},{e.server},{e.subcarrier},{_fmt(e.power)},{_fmt(e.energy_joules)}"
                for e in bundle.plan.entries
            ),
        ),
        "plan.json": _json(bundle.plan.to_dict()),
        "summary.json": _json(summary),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        path.write_text(text)
        written.append(path)
    return written
