"""End-to-end acceptance gate.

Eight criteria, each asserted at its stated tolerance and registered with
the conftest summary hook, so the run always prints one pass/fail line per
criterion. Quantities are recomputed with independent oracles wherever one
exists (grid search for the power solver, finite differences for gradients,
replayed byte comparisons for determinism).
"""

import math
import time

import numpy as np
import pytest
from numpy.random import default_rng

from conftest import record_criterion
from edgefed.distributions import (
    GroupedProfile,
    LabelDistribution,
    materialize,
    normalize,
    separated_feature_model,
    uniform_distribution,
)
from edgefed.divergence import audit_drift_bound, kl
from edgefed.federated import (
    ModelParams,
    TrainConfig,
    iid_counterpart,
    local_update,
    loss_and_grad,
    run_fl,
    run_paired,
)
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
    run_scenario,
    server_datasets_from_plan,
)
from edgefed.network import TransferRecord, assign_subcarriers, system_cost
from edgefed.power import PairParams, allocate_power, objective
from edgefed.rng import substream
from edgefed.scheduler import Policy, SchedulerConfig, run_scheduler, uniform_target

from oracles import (
    aggregate,
    concat,
    flatten,
    gradient_divergence,
    label_histogram,
    quasiconvexity_probe,
    rounds_to_threshold,
)

SEEDS = tuple(range(1, 11))


def _stub_solver(pair, smap, topo, radio):
    # plan-only runs skip the power pricing entirely
    u, s = pair
    return TransferRecord(
        device=u,
        server=s,
        subcarrier=smap.subcarrier(pair),
        power=radio.rated_power,
        sinr=1.0,
        rate=radio.subcarrier_bandwidth,
        transfer_seconds=1.0,
        energy_joules=radio.rated_power,
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_1_kl_convergence_speedup():
    """Greedy matching reaches mean KL < 0.05 in at most half Random's rounds."""
    started = time.perf_counter()
    wins = 0
    for seed in SEEDS:
        cfg = desk_config(seed)
        _, topo = build_population(cfg)
        target = uniform_target(10, 200, 10)
        taken = {}
        for policy in (Policy.MIN_KL, Policy.RANDOM):
            sched = SchedulerConfig(gamma=200, target=target, policy=policy)
            _, trace = run_scheduler(
                sched, topo, cfg.radio, substream(seed, "scheduler"),
                power_solver=_stub_solver,
            )
            taken[policy] = rounds_to_threshold(trace, 0.05, 10)
        greedy, random = taken[Policy.MIN_KL], taken[Policy.RANDOM]
        if greedy is not None and random is not None and 2 * greedy <= random:
            wins += 1
    elapsed = time.perf_counter() - started
    ok = wins >= 9 and elapsed < 10.0
    record_criterion(
        1, "KL convergence in half the rounds", ok, f"{wins}/10 seeds, {elapsed:.1f}s"
    )
    assert wins >= 9
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2


def test_criterion_2_power_solver_optimality():
    """Closed-form pricing beats a 1M-point grid on 1,000 random instances."""
    started = time.perf_counter()
    rng = default_rng(2024)
    fails = 0
    worst_gap = -math.inf
    for _ in range(1000):
        params = PairParams(
            epsilon=10.0 ** rng.uniform(-2, 2),
            kappa=10.0 ** rng.uniform(2, 9),
            p_min=1e-3,
            p_max=10.0 ** rng.uniform(-1, 1),
        )
        res = allocate_power(params)
        grid = np.linspace(params.p_min, params.p_max, 1_000_000)
        values = params.epsilon * grid / np.log2(1.0 + params.kappa * grid)
        gmin = float(values.min())
        step = (params.p_max - params.p_min) / 999_999
        tau = 1e-9 * (
            objective(params, params.p_min)
            - params.epsilon * math.log(2.0) / params.kappa
        )
        slack = tau + abs(gmin) * 1e-9 + params.epsilon * params.kappa * step
        gap = res.value - gmin
        worst_gap = max(worst_gap, gap)
        if gap > slack or abs(res.power - params.p_min) > step:
            fails += 1
    elapsed = time.perf_counter() - started
    ok = fails == 0 and elapsed < 30.0
    record_criterion(
        2,
        "power pricing matches the grid oracle",
        ok,
        f"{fails} fails, worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )
    assert fails == 0
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_quasiconvex_shape():
    """Probe and strict monotonicity both clean on 1,000 random draws each."""
    rng = default_rng(3)

    def draw():
        return PairParams(
            epsilon=10.0 ** rng.uniform(-2, 2),
            kappa=10.0 ** rng.uniform(2, 9),
            p_min=1e-3,
            p_max=10.0 ** rng.uniform(-1, 1),
        )

    probe_fails = 0
    for _ in range(1000):
        if not quasiconvexity_probe(draw(), num_samples=512).unimodal:
            probe_fails += 1
    order_fails = 0
    for _ in range(1000):
        params = draw()
        triple = np.sort(rng.uniform(params.p_min, params.p_max, size=3))
        while np.unique(triple).size < 3:  # pragma: no cover - measure zero
            triple = np.sort(rng.uniform(params.p_min, params.p_max, size=3))
        a, b, c = (objective(params, float(p)) for p in triple)
        if not (a < b < c):
            order_fails += 1
    ok = probe_fails == 0 and order_fails == 0
    record_criterion(
        3,
        "energy objective is unimodal and strictly increasing",
        ok,
        f"{probe_fails}+{order_fails} fails / 2000 checks",
    )
    assert probe_fails == 0
    assert order_fails == 0


# --------------------------------------------------------------- criterion 4


def test_criterion_4_drift_bound_audit():
    """Paired skewed/balanced trainings stay inside the drift bound."""
    started = time.perf_counter()
    rounds_checked = 0
    all_hold = True
    for seed in range(1, 6):
        cfg = desk_config(seed)
        _, topo = build_population(cfg)
        target = uniform_target(10, 200, 10)
        sched = SchedulerConfig(gamma=200, target=target)
        plan, _ = run_scheduler(sched, topo, cfg.radio, power_solver=_stub_solver)
        parts = server_datasets_from_plan(cfg, topo, plan)
        twin = iid_counterpart(parts, substream(seed, "iid"))
        for steps in (1, 3):
            tc = TrainConfig(phi=0.05, local_steps=steps, rounds=20)
            report = audit_drift_bound(run_paired(parts, twin, tc), parts)
            rounds_checked += len(report.checks)
            all_hold = all_hold and report.all_hold
    elapsed = time.perf_counter() - started
    ok = all_hold and elapsed < 20.0
    record_criterion(
        4,
        "parameter gap bounded every round",
        ok,
        f"{rounds_checked} rounds over 5 seeds x 2 step counts, {elapsed:.1f}s",
    )
    assert all_hold
    assert elapsed < 20.0


# --------------------------------------------------------------- criterion 5


def test_criterion_5_divergence_rank_association():
    """Gradient-divergence ranks match label-KL ranks on the crafted trio."""
    hists = [
        uniform_distribution(10, 200),
        LabelDistribution([35, 30, 25, 22, 20, 18, 16, 14, 11, 9]),
        LabelDistribution([0, 0, 0, 0, 200, 0, 0, 0, 0, 0]),
    ]
    matches = 0
    for seed in range(1, 6):
        model = separated_feature_model(10, 16, 3.0, 1.0)
        rng = default_rng(seed)
        datasets = [materialize([h.counts], model, [rng]) for h in hists]
        union = concat(datasets)
        w = local_update(
            ModelParams.zeros(10, 16),
            union,
            TrainConfig(phi=0.05, local_steps=3, rounds=1),
        )
        gammas = [gradient_divergence(w, d, union) for d in datasets]
        union_hist = label_histogram(union, 10)
        kls = [kl(normalize(union_hist), normalize(h)) for h in hists]
        if np.argsort(gammas).tolist() == np.argsort(kls).tolist():
            matches += 1
    ok = matches == 5
    record_criterion(5, "rank agreement on the crafted clients", ok, f"{matches}/5 seeds")
    assert matches == 5


# ---------------------------------------------------------- criteria 6 and 7


def _policy_scenario(seed: int) -> ScenarioConfig:
    """Golden comparison scenario: popularity-skewed pools, 200-device cells."""
    profile = GroupedProfile(
        low_mean=0.5, low_std=0.5, group_weights=(0.3, 0.3, 0.2, 0.1, 0.1)
    )
    return ScenarioConfig(
        seed=seed,
        topology=TopologyParams(num_servers=10, devices_per_server=200),
        data=DataParams(profile=profile, separation=2.3, eval_samples_per_class=500),
        scheduler=SchedulerParams(gamma=600),
        train=TrainConfig(phi=0.12, local_steps=5, rounds=20),
    )


@pytest.fixture(scope="module")
def policy_runs():
    """Ten seeded three-arm comparisons shared by criteria 6 and 7."""
    started = time.perf_counter()
    runs = []
    for seed in SEEDS:
        cfg = _policy_scenario(seed)
        _, topo = build_population(cfg)
        target = uniform_target(10, 600, 10)
        plans = {}
        for policy in (Policy.MIN_KL, Policy.NEAREST):
            sched = SchedulerConfig(gamma=600, target=target, policy=policy)
            plans[policy], _ = run_scheduler(sched, topo, cfg.radio)
        parts_greedy = server_datasets_from_plan(cfg, topo, plans[Policy.MIN_KL])
        parts_near = server_datasets_from_plan(cfg, topo, plans[Policy.NEAREST])
        parts_ref = iid_reference(
            cfg, [len(d) for d in parts_greedy], substream(seed, "iid")
        )
        eval_set = evaluation_set(cfg)
        tc = TrainConfig(phi=0.12, local_steps=5, rounds=20)
        accs = {}
        for name, parts in (
            ("iid", parts_ref),
            ("mklco", parts_greedy),
            ("iojr", parts_near),
        ):
            metrics, _ = run_fl(parts, tc, eval_set, rng=substream(seed, "training"))
            accs[name] = [m.accuracy * 100.0 for m in metrics]
        costs = {}
        for name, plan in (("mklco", plans[Policy.MIN_KL]), ("iojr", plans[Policy.NEAREST])):
            smap = assign_subcarriers(plan.pairs(), cfg.radio.subcarriers)
            ceiling = {p: cfg.radio.max_power for p in plan.pairs()}
            costs[name] = sum(e.energy_joules for e in plan.entries)
            costs[name + "_ceiling"] = system_cost(plan, ceiling, topo, cfg.radio, smap)
        runs.append({"seed": seed, "accs": accs, "costs": costs})
    return {"runs": runs, "elapsed": time.perf_counter() - started}


def test_criterion_6_accuracy_ordering(policy_runs):
    """Final accuracy: IID reference >= greedy >= nearest, with real margins."""
    wins = 0
    for run in policy_runs["runs"]:
        iid = run["accs"]["iid"][-1]
        greedy = run["accs"]["mklco"][-1]
        near = run["accs"]["iojr"][-1]
        ordered = iid >= greedy >= near
        if ordered and (iid - greedy) <= 2.0 and (greedy - near) >= 3.0:
            wins += 1
    elapsed = policy_runs["elapsed"]
    ok = wins >= 8 and elapsed < 60.0
    record_criterion(
        6, "accuracy ordering with margins", ok, f"{wins}/10 seeds, {elapsed:.1f}s"
    )
    assert wins >= 8
    assert elapsed < 60.0


def test_criterion_7_cost_dominance(policy_runs):
    """Allocated powers never cost more than the ceiling; greedy's
    accuracy-per-budget curve dominates nearest's."""
    ceiling_violations = 0
    dominant = 0
    for run in policy_runs["runs"]:
        c = run["costs"]
        for name in ("mklco", "iojr"):
            if c[name] > c[name + "_ceiling"] + 1e-12:
                ceiling_violations += 1
        j_greedy = c["mklco"]
        j_near = c["iojr_ceiling"]  # the baseline spends full power every round
        accs_g = run["accs"]["mklco"]
        accs_n = run["accs"]["iojr"]

        def acc_at(budget, per_round, accs):
            rounds = int(budget // per_round)
            if rounds < 1:
                return 0.0
            return accs[min(rounds, len(accs)) - 1]

        lo = max(j_greedy, j_near)
        hi = min(20 * j_greedy, 20 * j_near)
        if lo > hi:
            continue
        grid = np.linspace(lo, hi, 20)
        if all(
            acc_at(x, j_greedy, accs_g) >= acc_at(x, j_near, accs_n) - 1e-12
            for x in grid
        ):
            dominant += 1
    ok = ceiling_violations == 0 and dominant >= 8
    record_criterion(
        7,
        "cost never above ceiling, budget curve dominates",
        ok,
        f"{ceiling_violations} ceiling violations, {dominant}/10 dominant",
    )
    assert ceiling_violations == 0
    assert dominant >= 8


# --------------------------------------------------------------- criterion 8


def test_criterion_8_numerical_hygiene(tmp_path):
    """Gradients, aggregation identities, and byte-stable full runs."""
    # gradient against central finite differences at 1e-5 relative
    model = separated_feature_model(4, 6, 5.0, 1.0)
    ds = materialize([uniform_distribution(4, 40).counts], model, [default_rng(80)])
    rng = default_rng(81)
    w = ModelParams(rng.normal(size=(4, 6)) * 0.3, rng.normal(size=4) * 0.3)
    _, grad = loss_and_grad(w, ds)
    flat = flatten(grad)
    h = 1e-6
    grad_ok = True
    for idx in range(flat.size):
        delta = np.zeros(flat.size)
        delta[idx] = h
        dw, db = delta[:24].reshape(4, 6), delta[24:]
        lp, _ = loss_and_grad(ModelParams(w.weights + dw, w.bias + db), ds)
        lm, _ = loss_and_grad(ModelParams(w.weights - dw, w.bias - db), ds)
        fd = (lp - lm) / (2.0 * h)
        if abs(fd - flat[idx]) / max(1.0, abs(flat[idx])) >= 1e-5:
            grad_ok = False

    # aggregation identities, exact
    ma = ModelParams(rng.normal(size=(4, 6)), rng.normal(size=4))
    mb = ModelParams(rng.normal(size=(4, 6)), rng.normal(size=4))
    mixed = aggregate([ma, mb], [1, 3])
    agg_ok = (
        np.array_equal(mixed.weights, (1 / 4) * ma.weights + (3 / 4) * mb.weights)
        and np.array_equal(
            aggregate([ma, mb], [2, 6]).weights, aggregate([mb, ma], [6, 2]).weights
        )
    )

    # concatenation identity at double precision
    parts = [
        materialize([uniform_distribution(4, 20 + 10 * i).counts], model, [default_rng(82 + i)])
        for i in range(3)
    ]
    pooled, _ = loss_and_grad(w, concat(parts))
    n = sum(len(p) for p in parts)
    weighted = sum(len(p) / n * loss_and_grad(w, p)[0] for p in parts)
    concat_ok = math.isclose(weighted, pooled, rel_tol=1e-12)

    # repeated full runs emit byte-identical artifacts
    cfg = desk_config(
        90,
        topology=TopologyParams(num_servers=3, devices_per_server=6),
        data=DataParams(feat_dim=10, eval_samples_per_class=20),
        scheduler=SchedulerParams(gamma=120),
        train=TrainConfig(phi=0.05, local_steps=1, rounds=3),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit(run_scenario(cfg), out_a)
    emit(run_scenario(cfg), out_b)
    names = ("trace.csv", "metrics.csv", "power.csv", "plan.json", "summary.json")
    repeat_ok = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)

    ok = grad_ok and agg_ok and concat_ok and repeat_ok
    record_criterion(
        8,
        "numerical hygiene and byte-stable repeats",
        ok,
        f"grad={grad_ok} agg={agg_ok} concat={concat_ok} repeat={repeat_ok}",
    )
    assert grad_ok
    assert agg_ok
    assert concat_ok
    assert repeat_ok
