"""Scenario configuration, orchestration, emission, and the CLI."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from edgefed import federated, harness
from edgefed.cli import main
from edgefed.distributions import DirichletProfile, GroupedProfile
from edgefed.errors import InvalidInputError, SimulationError, UnknownPairError
from edgefed.federated import ModelParams, TrainConfig, run_fl
from edgefed.harness import (
    DataParams,
    ScenarioConfig,
    SchedulerParams,
    TopologyParams,
    build_population,
    desk_config,
    emit,
    evaluation_set,
    iid_reference,
    paper_scale_config,
    resolve_out_dir,
    run_scenario,
    server_datasets_from_plan,
)
from edgefed.network import OffloadPlan, assign_subcarriers, system_cost
from edgefed.rng import substream
from edgefed.scheduler import Policy, SchedulerConfig, run_scheduler, uniform_target

from oracles import label_histogram, powers


def _tiny_config(seed=1, **overrides):
    """A configuration small enough for sub-second full runs."""
    base = dict(
        topology=TopologyParams(num_servers=3, devices_per_server=6),
        data=DataParams(feat_dim=10, eval_samples_per_class=20),
        scheduler=SchedulerParams(gamma=120),
        train=TrainConfig(phi=0.05, local_steps=1, rounds=3),
    )
    base.update(overrides)
    return desk_config(seed, **base)


# ------------------------------------------------------------- configuration


def test_config_round_trip_grouped():
    cfg = _tiny_config(
        seed=9,
        data=DataParams(
            profile=GroupedProfile(low_mean=0.5, low_std=0.5, group_weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
            separation=2.3,
        ),
        tags=("golden", "grouped"),
    )
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert clone.to_dict() == cfg.to_dict()
    # Configs written before ``group_weights`` was echoed omit the key.
    unweighted = _tiny_config(seed=9)
    old_format = unweighted.to_dict()
    del old_format["data"]["profile"]["group_weights"]
    assert ScenarioConfig.from_dict(old_format) == unweighted


def test_config_round_trip_dirichlet():
    cfg = _tiny_config(
        data=DataParams(profile=DirichletProfile(alpha=(0.3,) * 10, samples_per_client=150))
    )
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_config_from_json(tmp_path):
    cfg = _tiny_config(seed=4)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2))
    assert ScenarioConfig.from_json(path) == cfg


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"sede": 3}, "sede: unknown key"),
        ({"train": {"rouns": 3}}, "train.rouns: unknown key"),
        (
            {"data": {"profile": {"kind": "grouped", "hi_mean": 1}}},
            "data.profile.hi_mean: unknown key",
        ),
        ({"data": {"profile": {"kind": "x"}}}, "data.profile.kind: unknown profile kind 'x'"),
        ({"audit": "false"}, "audit: expected bool"),
        ({"train": {"rounds": "3"}}, "train.rounds: expected int"),
        ({"seed": True}, "seed: expected int"),
        ({"radio": {"max_power": "1"}}, "radio.max_power: expected float"),
        ({"tags": "golden"}, "tags: expected list"),
        ({"topology": 3}, "topology: expected an object"),
        ({"train": {"batch_size": True}}, "train.batch_size: expected int"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size: expected int"),
        ({"train": {"batch_size": "8"}}, "train.batch_size: expected int"),
        ({"out_dir": 5}, "out_dir: expected str"),
        ({"radio": {"subcarriers": 0}}, "radio: need at least one subcarrier"),
        ({"train": {"local_steps": 0}}, "train: local_steps must be at least 1"),
        (
            {"data": {"profile": {"kind": "dirichlet", "alpha": ["a", 1]}}},
            "data.profile: could not convert string to float: 'a'",
        ),
        ({"train": {"phi": float("nan")}}, "train.phi: expected a finite number"),
        ({"radio": {"noise_power": float("nan")}}, "radio.noise_power: expected a finite number"),
        (
            {"topology": {"cell_radius": float("inf")}},
            "topology.cell_radius: expected a finite number",
        ),
        ({"data": {"separation": float("nan")}}, "data.separation: expected a finite number"),
        (
            {"data": {"profile": {"kind": "dirichlet", "alpha": [1.0, float("nan")]}}},
            "data.profile.alpha[1]: expected a finite number",
        ),
        (
            {"data": {"profile": {"group_weights": [1.0, float("-inf")]}}},
            "data.profile.group_weights[1]: expected a finite number",
        ),
        ({"topology": {"num_servers": 0}}, "topology: num_servers must be at least 1"),
        (
            {"topology": {"devices_per_server": 0}},
            "topology: devices_per_server must be at least 1",
        ),
        ({"topology": {"cell_radius": 0.0}}, "topology: cell_radius must be positive"),
        ({"topology": {"reference_gain": -1.0}}, "topology: reference_gain must be positive"),
        (
            {"topology": {"reference_distance": -5.0}},
            "topology: reference_distance must be positive",
        ),
        (
            {"topology": {"path_loss_exponent": -3}},
            "topology: path_loss_exponent must be positive",
        ),
        ({"data": {"num_classes": 5}}, "data: profile covers 10 classes, num_classes is 5"),
        (
            {"data": {"profile": {"kind": "dirichlet", "alpha": [1.0, 1.0, 1.0]}}},
            "data: profile covers 3 classes, num_classes is 10",
        ),
        ({"data": {"feat_dim": 8}}, "data: feat_dim must be at least num_classes"),
        ({"data": {"bits_per_sample": 0}}, "data: bits_per_sample must be at least 1"),
        (
            {"data": {"eval_samples_per_class": 0}},
            "data: eval_samples_per_class must be at least 1",
        ),
        ({"scheduler": {"gamma": 0}}, "scheduler: gamma must be positive"),
        ({"scheduler": {"policy": "xyz"}}, "scheduler: unknown policy 'xyz'"),
        ({"seed": -1}, "config: seed must be non-negative"),
        (
            {"radio": {"max_power": 0.0005, "rated_power": 0.0005}},
            "radio: max power must exceed the 0.001 W transmit floor",
        ),
        (
            {
                "data": {
                    "profile": {
                        "num_high_classes": 4,
                        "group_size": 2,
                        "group_weights": [1, 0, 0, 0, 0],
                    }
                }
            },
            "data.profile: group_weights: a client needs 2 groups, "
            "but only 1 weights are positive",
        ),
        ({"data": {"feature_std": -1.0}}, "data: feature std must be non-negative"),
        ({"train": {"phi": -0.05}}, "train: learning rate must be non-negative"),
        ({"train": {"rounds": -1}}, "train: rounds must be non-negative"),
        ({"train": {"batch_size": 0}}, "train: batch_size must be positive when set"),
    ],
)
def test_config_rejects_unknown_keys_and_wrong_types(payload, message):
    with pytest.raises(SimulationError) as info:
        ScenarioConfig.from_dict(payload)
    assert str(info.value) == message


def test_config_names_the_section_missing_a_field():
    with pytest.raises(SimulationError, match=r"^data\.profile: .*'alpha'"):
        ScenarioConfig.from_dict({"data": {"profile": {"kind": "dirichlet"}}})


def test_config_accepts_int_for_float():
    cfg = ScenarioConfig.from_dict({"radio": {"max_power": 2}, "data": {"feature_std": 0}})
    assert cfg.radio.max_power == 2.0
    assert cfg.data.feature_std == 0  # the boundary loads, as FeatureModel allows it


def test_config_optional_fields_accept_their_type():
    cfg = ScenarioConfig.from_dict({"train": {"batch_size": 8}, "out_dir": "results"})
    assert (cfg.train.batch_size, cfg.out_dir) == (8, "results")


def test_presets():
    desk = desk_config()
    assert desk.topology.num_servers == 10
    assert desk.topology.devices_per_server == 20
    paper = paper_scale_config()
    assert paper.topology.devices_per_server == 100
    assert paper.scheduler.gamma == 500


# ---------------------------------------------------------------- population


def test_build_population_shapes():
    cfg = _tiny_config(seed=2)
    counts, topo = build_population(cfg)
    assert len(counts) == 18
    assert len(topo.counts) == 18
    assert np.array_equal(topo.counts, counts)
    for u, h in enumerate(counts):
        assert topo.data_bits[u] == h.sum() * cfg.data.bits_per_sample


def test_run_scenario_rejects_a_payload_past_int64():
    # Three classes of 4e18 samples wrap an int64 row total; before placement
    # checked the payload, materialisation failed with numpy's "array is too big".
    profile = GroupedProfile(high_mean=4e18, high_std=0, num_high_classes=3, group_size=3)
    cfg = _tiny_config(data=DataParams(profile=profile, feat_dim=10, eval_samples_per_class=20))
    with pytest.raises(InvalidInputError, match=r"^device 0: .* bits_per_sample 520 do not fit"):
        run_scenario(cfg)


def test_iid_reference_sizes_and_balance():
    cfg = _tiny_config()
    sizes = [40, 55, 70]
    parts = iid_reference(cfg, sizes, substream(3, "iid"))
    assert [len(p) for p in parts] == sizes
    for p in parts:
        counts = np.asarray(label_histogram(p, cfg.data.num_classes).counts)
        assert int(counts.max() - counts.min()) <= 1


def test_evaluation_set_is_balanced_and_stable():
    cfg = _tiny_config(seed=6)
    a = evaluation_set(cfg)
    b = evaluation_set(cfg)
    assert len(a) == 10 * cfg.data.eval_samples_per_class
    assert np.array_equal(a.features, b.features)
    counts = np.asarray(label_histogram(a, 10).counts)
    assert int(counts.max()) == int(counts.min())


def test_server_datasets_match_the_plan():
    cfg = _tiny_config(seed=7)
    _, topo = build_population(cfg)
    target = uniform_target(3, cfg.scheduler.gamma, 10)
    sched = SchedulerConfig(gamma=cfg.scheduler.gamma, target=target)
    plan, _ = run_scheduler(sched, topo, cfg.radio)
    parts = server_datasets_from_plan(cfg, topo, plan)
    by_server = {}
    for e in plan.entries:
        by_server.setdefault(e.server, []).append(e.device)
    for ds, server in zip(parts, sorted(by_server)):
        merged = np.zeros(10, dtype=np.int64)
        for u in by_server[server]:
            merged += topo.device(u).dist.counts
        assert np.array_equal(np.asarray(label_histogram(ds, 10).counts), merged)
    # rebuilding from the same plan is deterministic
    again = server_datasets_from_plan(cfg, topo, plan)
    for x, y in zip(parts, again):
        assert np.array_equal(x.features, y.features)


def test_server_datasets_reject_a_device_the_topology_does_not_hold():
    cfg = _tiny_config(seed=7)
    _, topo = build_population(cfg)
    target = uniform_target(3, cfg.scheduler.gamma, 10)
    plan, _ = run_scheduler(SchedulerConfig(cfg.scheduler.gamma, target), topo, cfg.radio)
    # a negative id must not wrap to the last count row
    for bad in (-1, len(topo.counts)):
        wrong = dataclasses.replace(plan.entries[0], device=bad)
        with pytest.raises(UnknownPairError, match=f"no device with id {bad}"):
            server_datasets_from_plan(cfg, topo, OffloadPlan((wrong, *plan.entries[1:])))


def _device_block(cfg, topo, plan, device_id):
    """Feature rows a given device contributed to its server's dataset.

    Per-server datasets concatenate device captures in plan-entry order, so
    the block offset is the size of everything selected before it.
    """
    parts = server_datasets_from_plan(cfg, topo, plan)
    server = next(e.server for e in plan.entries if e.device == device_id)
    in_order = [e.device for e in plan.entries if e.server == server]
    offset = 0
    for v in in_order:
        if v == device_id:
            break
        offset += topo.device(v).dist.total()
    ds = parts[sorted({e.server for e in plan.entries}).index(server)]
    return ds.features[offset : offset + topo.device(device_id).dist.total()]


def test_device_data_is_policy_independent():
    """A device's samples depend on its id, never on which policy took it.

    Gamma is set high enough that each server must take most of its pool,
    so the two policies are guaranteed to capture common devices.
    """
    cfg = _tiny_config(seed=8, scheduler=SchedulerParams(gamma=700))
    _, topo = build_population(cfg)
    target = uniform_target(3, cfg.scheduler.gamma, 10)
    plans = []
    for policy in (Policy.MIN_KL, Policy.RANDOM):
        sched = SchedulerConfig(gamma=cfg.scheduler.gamma, target=target, policy=policy)
        plan, _ = run_scheduler(sched, topo, cfg.radio, substream(8, "scheduler"))
        plans.append(plan)
    shared = set(e.device for e in plans[0].entries) & set(
        e.device for e in plans[1].entries
    )
    assert shared  # tiny pools overlap heavily
    u = sorted(shared)[0]
    a = _device_block(cfg, topo, plans[0], u)
    b = _device_block(cfg, topo, plans[1], u)
    assert np.array_equal(a, b)


# ------------------------------------------------------------- full scenario


@pytest.fixture(scope="module")
def tiny_bundle():
    return run_scenario(_tiny_config(seed=5))


def test_run_scenario_populates_the_bundle(tiny_bundle):
    b = tiny_bundle
    assert len(b.metrics) == 3
    assert 0.0 <= b.final_accuracy <= 1.0
    assert b.plan.entries
    assert b.cost_joules > 0.0
    assert b.audit is not None and b.audit.all_hold
    assert set(b.versions) == {"edgefed", "numpy", "python"}


def test_run_scenario_allocated_cost_beats_ceiling(tiny_bundle):
    assert tiny_bundle.cost_joules <= tiny_bundle.cost_max_power_joules


def test_run_scenario_cost_is_reproducible(tiny_bundle):
    b = tiny_bundle
    cfg = _tiny_config(seed=5)
    _, topo = build_population(cfg)
    smap = assign_subcarriers(b.plan.pairs(), cfg.radio.subcarriers)
    again = system_cost(b.plan, powers(b.plan), topo, cfg.radio, smap)
    assert again == b.cost_joules


def test_training_and_the_audit_start_from_one_model(monkeypatch):
    # Group 4 (classes 8 and 9) is never drawn high and low counts round to
    # zero, so no server holds those classes. Both runs must still train the
    # 10-class model that the evaluation set needs, from the same start.
    cfg = desk_config(
        seed=1,
        data=DataParams(
            profile=GroupedProfile(low_mean=0.01, low_std=0.0, group_weights=(1, 1, 1, 1, 0))
        ),
        train=TrainConfig(local_steps=3, rounds=5),
    )
    calls = []

    def record(*args, _run=harness.run_paired, **kwargs):
        calls.append((args, _run(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "run_paired", record)
    bundle = run_scenario(cfg)
    [((server_data, *_), paired)] = calls
    assert max(int(d.labels.max()) for d in server_data) == 7
    init = ModelParams.zeros(cfg.data.num_classes, cfg.data.feat_dim)
    _, trained = run_fl(server_data, cfg.train, evaluation_set(cfg), init=init)
    audited = paired.left_params[-1]
    assert trained.num_classes == audited.num_classes == 10
    assert (audited.weights == trained.weights).all()
    assert (audited.bias == trained.bias).all()
    assert bundle.audit.all_hold


@pytest.mark.parametrize("batch_size", [None, 8])
def test_audited_metrics_equal_a_standalone_run_fl(batch_size, monkeypatch):
    # Full batch, the paired run's left arm is the training run and run_fl is
    # not called; with minibatches run_fl still trains on its own substream,
    # and only run_fl scores the eval set.
    cfg = _tiny_config(
        seed=4, train=TrainConfig(phi=0.05, local_steps=3, rounds=4, batch_size=batch_size)
    )
    calls = []
    for module, name in (
        (harness, "run_fl"),
        (harness, "run_paired"),
        (federated, "evaluate_accuracy"),
    ):

        def record(*args, _name=name, _run=getattr(module, name), **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
    bundle = run_scenario(cfg)
    scored = ["evaluate_accuracy"] * cfg.train.rounds
    if batch_size is None:
        assert calls == ["run_paired", *scored]
    else:
        assert calls == ["run_fl", *scored, "run_paired"]
    server_data = server_datasets_from_plan(cfg, bundle.topology, bundle.plan)
    assert batch_size is None or min(map(len, server_data)) > batch_size
    init = ModelParams.zeros(cfg.data.num_classes, cfg.data.feat_dim)
    metrics, _ = run_fl(
        server_data, cfg.train, evaluation_set(cfg), init=init, rng=substream(cfg.seed, "training")
    )
    assert len(metrics) == cfg.train.rounds
    assert bundle.metrics == tuple(metrics)
    assert bundle.audit.all_hold


def test_emit_is_byte_identical_across_runs(tmp_path):
    cfg = _tiny_config(seed=11)
    dirs = []
    for tag in ("one", "two"):
        bundle = run_scenario(cfg)
        out = tmp_path / tag
        emit(bundle, out)
        dirs.append(out)
    names = ["trace.csv", "metrics.csv", "power.csv", "plan.json", "summary.json"]
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_emit_schema(tmp_path):
    bundle = run_scenario(_tiny_config(seed=12))
    emit(bundle, tmp_path)
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "round,server,kl,total,device"
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,loss,accuracy"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cost_joules"] > 0.0
    assert "final_accuracy" in summary
    assert summary["plan_size"] == len(bundle.plan.entries)


def test_zero_round_summary_is_strict_json(tmp_path):
    """No rounds means no final accuracy: ``null``, never the non-JSON ``NaN``."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    bundle = run_scenario(desk_config(seed=1, train=TrainConfig(rounds=0)))
    assert bundle.final_accuracy is None
    emit(bundle, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["final_accuracy"] is None
    assert summary["rounds"] == 0


def test_replay_from_echoed_config(tmp_path):
    cfg = _tiny_config(seed=13)
    first = tmp_path / "first"
    emit(run_scenario(cfg), first)
    echoed = json.loads((first / "summary.json").read_text())["config"]
    second = tmp_path / "second"
    emit(run_scenario(ScenarioConfig.from_dict(echoed)), second)
    for name in ("trace.csv", "metrics.csv", "power.csv", "plan.json", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ----------------------------------------------------------------------- cli


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = _tiny_config(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    path = _write_cfg(tmp_path, seed=14)
    out = tmp_path / "results"
    rc = main(["simulate", "--config", str(path), "--rounds", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "final_accuracy" in payload
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_policy_and_gamma_overrides(tmp_path, capsys):
    path = _write_cfg(tmp_path, seed=15)
    out = tmp_path / "iojr"
    rc = main(
        [
            "simulate",
            "--config",
            str(path),
            "--policy",
            "iojr",
            "--gamma",
            "90",
            "--seed",
            "21",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["scheduler"]["policy"] == "iojr"
    assert summary["config"]["scheduler"]["gamma"] == 90
    assert summary["config"]["seed"] == 21


def test_cli_env_var_redirects_output(tmp_path, capsys, monkeypatch):
    path = _write_cfg(tmp_path, seed=16)
    redirected = tmp_path / "from-env"
    monkeypatch.setenv("EDGEFED_OUT", str(redirected))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "ignored")])
    assert rc == 0
    capsys.readouterr()
    assert (redirected / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_audit(tmp_path, capsys):
    path = _write_cfg(tmp_path, seed=17)
    rc = main(["audit", "--config", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_hold"] is True


def test_cli_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EDGEFED_OUT", str(tmp_path / "sweep-out"))
    for seed in (18, 19):
        _write_cfg(tmp_path, name=f"cfg{seed}.json", seed=seed)
    rc = main(["sweep", "--configs", str(tmp_path / "cfg*.json")])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all("cost_joules" in r for r in rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_sweep_isolates_failures(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep-out"
    monkeypatch.setenv("EDGEFED_OUT", str(out))
    # the config loads, but so huge a rate overflows the first local step;
    # it sorts first, so its good sibling runs after the failure
    _write_cfg(tmp_path, name="cfg_a_bad.json", seed=31,
               train=TrainConfig(phi=1e308, local_steps=1, rounds=3))
    # this one does not load at all; it too sorts before the good sibling
    typo = _tiny_config(seed=32).to_dict()
    typo["train"]["rouns"] = typo["train"].pop("rounds")
    (tmp_path / "cfg_a_typo.json").write_text(json.dumps(typo))
    _write_cfg(tmp_path, name="cfg_b_good.json", seed=30)
    rc = main(["sweep", "--configs", str(tmp_path / "cfg*.json")])
    assert rc == 1
    bad, unloadable, good = json.loads(capsys.readouterr().out)
    assert bad["error"]["type"] == "NumericalFailureError"
    assert unloadable["error"] == {
        "type": "InvalidInputError",
        "message": "train.rouns: unknown key",
    }
    assert unloadable["config"].endswith("cfg_a_typo.json")
    assert "cost_joules" in good
    assert (out / "cfg_b_good" / "summary.json").is_file()
    assert not (out / "cfg_a_bad").exists()
    assert not (out / "cfg_a_typo").exists()


def test_cli_error_funnel(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err
    assert main(["sweep", "--configs", str(tmp_path / "none*.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["message"].startswith("no config files match")


def test_cli_rejects_misspelt_key(tmp_path, capsys):
    payload = _tiny_config().to_dict()
    payload["train"]["rouns"] = payload["train"].pop("rounds")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "InvalidInputError",
        "message": "train.rouns: unknown key",
    }
    assert not (tmp_path / "out").exists()


def test_resolve_out_dir_precedence(monkeypatch):
    cfg = _tiny_config(out_dir="from-config")
    monkeypatch.delenv("EDGEFED_OUT", raising=False)
    assert str(resolve_out_dir(cfg)) == "from-config"
    assert str(resolve_out_dir(cfg, "from-cli")) == "from-cli"
    monkeypatch.setenv("EDGEFED_OUT", "from-env")
    assert str(resolve_out_dir(cfg, "from-cli")) == "from-env"


# -------------------------------------------------------- benchmark contract

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_scenarios_load():
    paths = sorted((PERFBENCH / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        cfg = ScenarioConfig.from_json(path)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        # summary.json echoes to_dict(): it must repeat the file, with only
        # the unset profile weights added
        raw = json.loads(path.read_text())
        raw["data"]["profile"].setdefault("group_weights", None)
        assert cfg.to_dict() == raw, path.name


def test_benchmark_tracer_wraps_the_pipeline(tmp_path, monkeypatch):
    """Every name the benchmark's tracer patches still exists, and each span fires."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from edgefed import harness

    tracer = tracing.Tracer()
    tracer.install(counters=True)
    try:
        # Called through the module, as the benchmark does, so the wrappers apply.
        # An audited full-batch run trains only in the paired run, so an
        # unaudited run fires the training span; the counts below are the
        # audited run's alone.
        harness.run_scenario(_tiny_config(seed=5, audit=False))
        fired = set(tracer.total)
        tracer.reset()
        cfg = _tiny_config(seed=5)
        bundle = harness.run_scenario(cfg)
        harness.emit(bundle, tmp_path)
    finally:
        tracer.remove()
    # Read before layer_metrics, whose lookups insert every span name.
    fired |= set(tracer.total)
    layers = tracer.layer_metrics(1.0)
    assert set(layers) | {"power.energy_j", "trace.run_s", "trace.overhead_s"} == set(
        tracing.LAYER_UNITS
    )
    assert set(tracing.SPAN_TARGETS) | {"power"} <= fired
    assert layers["power.pairs_priced"] == len(bundle.plan.entries)
    # The scheduler computes each server's trace KLs in one array op and no
    # longer calls ``scheduler.kl``, so the tracer's KL counter reads 0.
    assert layers["scheduler.kl_evals"] == 0
    # Every materialised row is a training row or an evaluation row.
    train = harness.server_datasets_from_plan(cfg, bundle.topology, bundle.plan)
    assert layers["distributions.samples_materialized"] == sum(map(len, train)) + len(
        harness.evaluation_set(cfg)
    )
    for name in (
        "power.objective_evals",
        "harness.emit_bytes",
    ):
        assert layers[name] > 0, name
    assert layers["power.bisection_iters"] == 0
    assert layers["power.objective_evals"] == layers["power.pairs_priced"]
    assert layers["power.at_floor_share"] == 1.0
    # Exact gradient-pass counts. Training and the paired run take stacked
    # passes that the tracer's per-dataset wrappers do not see, and the audit
    # averages the paired run's gradients without a pass of its own.
    assert layers["divergence.grad_passes"] == 0
    assert layers["federated.grad_passes"] == 0


def _shrunk_benchmark_config(name):
    """A benchmark scenario at 3 x 6 devices and two rounds."""
    cfg = ScenarioConfig.from_json(PERFBENCH / "scenarios" / f"{name}.json")
    return dataclasses.replace(
        cfg,
        topology=dataclasses.replace(cfg.topology, num_servers=3, devices_per_server=6),
        data=dataclasses.replace(cfg.data, eval_samples_per_class=20),
        train=dataclasses.replace(cfg.train, rounds=2),
    )


@pytest.mark.parametrize("name", ["golden", "full_offload"])
def test_benchmark_workloads_report_no_failures(name, tmp_path, monkeypatch):
    """The benchmark's workloads read the topology, plan and bundle as the
    program builds them, and every output check holds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    outputs, accuracy, energy, failures = worker.WORKLOADS[name](
        _shrunk_benchmark_config(name), tmp_path
    )
    assert failures == []
    assert outputs and 0.0 <= accuracy <= 1.0 and energy > 0.0


def test_benchmark_plan_check_sees_a_server_short_of_gamma(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    cfg = _shrunk_benchmark_config("golden")
    _, topo = build_population(cfg)
    target = uniform_target(3, cfg.scheduler.gamma, cfg.data.num_classes)
    plan, _ = run_scheduler(SchedulerConfig(cfg.scheduler.gamma, target), topo, cfg.radio)
    assert worker._plan_checks(plan, topo, cfg.scheduler.gamma) == []
    # Server 0's last pick was planned because its total was still short of
    # gamma, or because it was the last device of its pool.
    last = max(k for k, e in enumerate(plan.entries) if e.server == 0)
    short = OffloadPlan(plan.entries[:last] + plan.entries[last + 1 :])
    assert worker._plan_checks(short, topo, cfg.scheduler.gamma) == ["server_reaches_gamma"]
