"""One benchmark process: set up, then run one workload and check its outputs.

``run.py`` starts this file in a fresh interpreter for every measurement, so
import time, memory and thread settings belong to one workload only.

    worker.py setup --workload NAME --seed N --started T
    worker.py run --workload NAME --seed N --seconds S --trace 0|1 --started T

``--started`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until the scenario config is
loaded. ``setup`` prints that time and exits. ``run`` then repeats the
workload on identical inputs for about ``--seconds`` seconds and prints
one JSON object with per-iteration figures.
"""

# Only these two are imported at start; numpy and edgefed are imported by
# ``set_up`` so that their import cost is measured as set-up time.
import argparse
import time

START_ARGS = argparse.ArgumentParser()
START_ARGS.add_argument("mode", choices=("setup", "run"))
START_ARGS.add_argument("--workload", required=True)
START_ARGS.add_argument("--seed", type=int, required=True)
START_ARGS.add_argument("--seconds", type=float, default=0.0)
START_ARGS.add_argument("--trace", type=int, choices=(0, 1), default=0)
START_ARGS.add_argument("--started", type=float, required=True)
START_ARGS.add_argument("--out", default=None)

# ------------------------------------------------------------------ set-up


def set_up(args):
    """Import the program and load the workload's scenario; return the config."""
    import dataclasses
    import pathlib

    import numpy  # noqa: F401  (import cost is part of set-up)

    import edgefed
    from edgefed import harness

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if pathlib.Path(edgefed.__file__).resolve().parent.parent != src:
        raise SystemExit(f"edgefed imported from {edgefed.__file__}, not from {src}")
    path = pathlib.Path(__file__).resolve().parent / "scenarios" / f"{args.workload}.json"
    cfg = harness.ScenarioConfig.from_json(path)
    return dataclasses.replace(cfg, seed=args.seed)


# ---------------------------------------------------------------- workloads
#
# Each workload takes the loaded config and an output directory and returns
# ``(outputs, final_accuracy, energy_j, failures)``: ``outputs`` is a bytes
# digest input that must repeat exactly across iterations, ``failures`` the
# names of the output checks that did not hold.


def _plan_checks(plan, topo, gamma):
    """Disjoint plan, and every server reached gamma or used its whole pool."""
    from edgefed.scheduler import serviceable_set

    failures = []
    devices = [e.device for e in plan.entries]
    if len(set(devices)) != len(devices):
        failures.append("plan_disjoint")
    planned = {}
    for e in plan.entries:
        planned.setdefault(e.server, set()).add(e.device)
    for server in topo.servers:
        mine = planned.get(server.id, set())
        total = sum(topo.device(d).dist.total() for d in mine)
        if total < gamma and mine != set(serviceable_set(server.id, topo)):
            failures.append("server_reaches_gamma")
            break
    return failures


def _within_ceiling(cost, ceiling):
    return cost <= ceiling * (1.0 + 1e-12)


def golden(cfg, out_dir):
    """The criterion-6 fixture for one seed: two priced schedules, three FL arms."""
    import json
    import math

    from edgefed import federated, harness, network, scheduler
    from edgefed.rng import substream

    _, topo = harness.build_population(cfg)
    target = scheduler.uniform_target(
        cfg.topology.num_servers, cfg.scheduler.gamma, cfg.data.num_classes
    )
    plans = {}
    for policy in (scheduler.Policy.MIN_KL, scheduler.Policy.NEAREST):
        sched = scheduler.SchedulerConfig(
            gamma=cfg.scheduler.gamma, target=target, policy=policy
        )
        plans[policy.value], _ = scheduler.run_scheduler(sched, topo, cfg.radio)
    parts = {
        "mklco": harness.server_datasets_from_plan(cfg, topo, plans["mklco"]),
        "iojr": harness.server_datasets_from_plan(cfg, topo, plans["iojr"]),
    }
    parts["iid"] = harness.iid_reference(
        cfg, [len(d) for d in parts["mklco"]], substream(cfg.seed, "iid")
    )
    eval_set = harness.evaluation_set(cfg)
    tc = federated.TrainConfig(
        phi=cfg.train.phi, local_steps=cfg.train.local_steps, rounds=cfg.train.rounds
    )
    accs = {}
    for name in ("iid", "mklco", "iojr"):
        metrics, _ = federated.run_fl(
            parts[name], tc, eval_set, rng=substream(cfg.seed, "training")
        )
        accs[name] = [m.accuracy for m in metrics]
    failures = []
    costs = {}
    for name, plan in plans.items():
        failures += _plan_checks(plan, topo, cfg.scheduler.gamma)
        smap = network.assign_subcarriers(plan.pairs(), cfg.radio.subcarriers)
        ceiling = {p: cfg.radio.max_power for p in plan.pairs()}
        costs[name] = sum(e.energy_joules for e in plan.entries)
        costs[name + "_ceiling"] = network.system_cost(plan, ceiling, topo, cfg.radio, smap)
        if not _within_ceiling(costs[name], costs[name + "_ceiling"]):
            failures.append("energy_within_ceiling")
    if not all(math.isfinite(a) for arm in accs.values() for a in arm):
        failures.append("accuracy_finite")
    outputs = json.dumps(
        {"plans": {k: p.to_dict() for k, p in plans.items()}, "accs": accs, "costs": costs},
        sort_keys=True,
    ).encode()
    return outputs, accs["mklco"][-1], costs["mklco"], failures


def _scenario_and_emit(cfg, out_dir):
    """One ``run_scenario`` + ``emit``; returns the bundle, bytes and failures."""
    import math

    from edgefed import harness

    bundle = harness.run_scenario(cfg)
    paths = harness.emit(bundle, out_dir)
    failures = _plan_checks(bundle.plan, bundle.topology, cfg.scheduler.gamma)
    if not _within_ceiling(bundle.cost_joules, bundle.cost_max_power_joules):
        failures.append("energy_within_ceiling")
    if not all(math.isfinite(m.accuracy) for m in bundle.metrics):
        failures.append("accuracy_finite")
    outputs = b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in paths)
    if len(paths) != 5:
        failures.append("emit_five_files")
    return bundle, outputs, failures


def desk_audit(cfg, out_dir):
    """Scenario seeds 5n+1 .. 5n+5 at 3 local steps, each audited and emitted.

    ``n`` is the benchmark seed, so seed 0 runs criterion 4's seeds 1-5.
    """
    import dataclasses

    outputs, accs, energy, failures = [], [], 0.0, []
    for k in range(1, 6):
        seed_cfg = dataclasses.replace(cfg, seed=5 * cfg.seed + k)
        bundle, out, fails = _scenario_and_emit(seed_cfg, out_dir / str(k))
        if bundle.audit is None or not bundle.audit.all_hold:
            fails.append("audit_all_hold")
        outputs.append(out)
        accs.append(bundle.final_accuracy)
        energy += bundle.cost_joules
        failures += fails
    return b"".join(outputs), sum(accs) / len(accs), energy, failures


def full_offload(cfg, out_dir):
    """Every device planned and priced by the nearest-server policy, one round."""
    bundle, outputs, failures = _scenario_and_emit(cfg, out_dir)
    expected = cfg.topology.num_servers * cfg.topology.devices_per_server
    if len(bundle.plan.entries) != expected:
        failures.append("full_plan_size")
    return outputs, bundle.final_accuracy, bundle.cost_joules, failures


WORKLOADS = {"golden": golden, "desk_audit": desk_audit, "full_offload": full_offload}

# --------------------------------------------------------------------- run


def _environment(threads):
    import os
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
    }


def run(args, cfg, setup_s):
    import hashlib
    import json
    import math
    import os
    import pathlib
    import resource
    import shutil
    import statistics
    import traceback

    from tracing import LAYER_UNITS, Tracer

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    # Traced runs cycle through three kinds of iteration: plain ones, ones
    # with spans only (per-layer times), and ones that also count calls (the
    # per-call counters would otherwise inflate the layer times).
    kinds = ("plain", "spans", "counts") if args.trace else ("plain",)
    times = {kind: [] for kind in kinds}
    layers = {kind: [] for kind in kinds}
    out_root = pathlib.Path(args.out)
    attempted = failed = 0
    failures = set()
    digest = accuracy = energy = None
    deadline = time.perf_counter() + args.seconds
    while True:
        kind = kinds[attempted % len(kinds)]
        out_dir = out_root / str(attempted)
        attempted += 1
        if kind != "plain":
            tracer.reset()
            tracer.install(counters=kind == "counts")
        started = time.perf_counter()
        try:
            outputs, acc, joules, fails = workload(cfg, out_dir)
        except Exception:  # noqa: BLE001 (a raising iteration is a failed one)
            traceback.print_exc()
            outputs, acc, joules, fails = b"", math.nan, math.nan, ["raised"]
        finally:
            elapsed = time.perf_counter() - started
            tracer.remove()
        shutil.rmtree(out_dir, ignore_errors=True)
        sha = hashlib.sha256(outputs).hexdigest()
        if digest is None and not fails:
            digest, accuracy, energy = sha, acc, joules
        elif not fails and sha != digest:
            fails = ["outputs_repeat"]
        if fails:
            failed += 1
            failures.update(fails)
        else:
            times[kind].append(elapsed)
            if kind != "plain":
                layers[kind].append(tracer.layer_metrics(elapsed))
        # Start another iteration only if it is expected to end in time, but
        # make at least one of each kind unless one failed.
        enough = all(times.values())
        if (enough or failed) and time.perf_counter() + elapsed > deadline:
            break
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(failures),
        "run_s": times["plain"],
        "final_accuracy": accuracy,
        "energy_j": energy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts_sha256": digest,
        "environment": _environment(os.environ.get("OPENBLAS_NUM_THREADS")),
    }
    if args.trace and enough:
        # Times come from the span-only iteration of median length, so they
        # add up to its run time; counts repeat, so any counting iteration does.
        spans = sorted(zip(times["spans"], layers["spans"]), key=lambda pair: pair[0])
        run_s, timed = spans[(len(spans) - 1) // 2]
        counted = layers["counts"][0]
        values = {name: (timed if LAYER_UNITS[name] == "s" else counted)[name] for name in timed}
        values["power.energy_j"] = energy
        values["trace.run_s"] = run_s
        values["trace.overhead_s"] = run_s - statistics.median(times["plain"])
        result["per_layer"] = {
            name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()
        }
    print(json.dumps(result))


def main():
    args = START_ARGS.parse_args()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    cfg = set_up(args)
    setup_s = time.monotonic() - args.started
    if args.mode == "setup":
        print(f'{{"setup_s": {setup_s!r}}}')
        return
    run(args, cfg, setup_s)


if __name__ == "__main__":
    main()
