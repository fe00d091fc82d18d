"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces module attributes that the pipeline calls through with
wrappers that time a span or bump a counter, and puts the originals back
when it is removed. Nothing under ``src/`` is edited: the wrappers sit on
the names that ``edgefed.harness`` imports and on the module-level helpers
(``kl``, ``loss_and_grad``, the power solver's inner functions) that the
pipeline looks up at call time.

A span's self time is its duration minus the time covered by the spans it
caused, so the self times of all spans add up to the time inside
top-level spans, and ``harness.other_s`` is the rest of the iteration.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

from edgefed import distributions, divergence, federated, harness, network, power, scheduler

# Span name -> the (module, attribute) pairs the pipeline calls it through.
# One wrapper is shared by every pair of a span, so nothing is wrapped twice.
SPAN_TARGETS = {
    "distributions.generate_clients": [(harness, "generate_clients")],
    "network.place_topology": [(harness, "place_topology")],
    "scheduler": [(harness, "run_scheduler"), (scheduler, "run_scheduler")],
    "distributions.materialize": [(harness, "materialize")],
    "federated.train": [(harness, "run_fl"), (federated, "run_fl")],
    "federated.paired": [(harness, "run_paired")],
    "divergence.audit": [(harness, "audit_drift_bound")],
    "network.assign_subcarriers": [
        (harness, "assign_subcarriers"),
        (network, "assign_subcarriers"),
    ],
    "network.system_cost": [(harness, "system_cost"), (network, "system_cost")],
    "harness.emit": [(harness, "emit")],
}

# Every per-layer figure a traced run reports, with its unit. Times (unit
# "s") come from an iteration traced with spans only; the other figures come
# from an iteration that also counts calls, and repeat exactly.
LAYER_UNITS = {
    "scheduler.self_s": "s",
    "scheduler.kl_evals": "count",
    "scheduler.merges": "count",
    "scheduler.plan_share": "ratio",
    "power.solve_s": "s",
    "power.pairs_priced": "count",
    "power.bisection_iters": "count",
    "power.objective_evals": "count",
    "power.at_floor_share": "ratio",
    "power.energy_j": "J",
    "federated.train_s": "s",
    "federated.paired_s": "s",
    "federated.grad_passes": "count",
    "federated.update_share": "ratio",
    "divergence.audit_s": "s",
    "divergence.grad_passes": "count",
    "divergence.min_slack": "ratio",
    "distributions.generate_clients_s": "s",
    "distributions.materialize_s": "s",
    "distributions.samples_materialized": "count",
    "network.place_topology_s": "s",
    "network.cost_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "B",
    "harness.other_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span and counter store for one traced iteration at a time."""

    def __init__(self):
        self._originals = []
        self._stack = []
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.min_slack = math.inf
        self._in_update = 0

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self._stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - covered
                if self._stack:
                    self._stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapped

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _federated_pass(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts["federated.grad_passes"] += 1
            if self._in_update:
                self.counts["federated.update_passes"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _local_update(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._in_update += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_update -= 1

        return wrapped

    def _allocate_power(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["power.bisection_iters"] += result.iterations
            return result

        return wrapped

    # ------------------------------------------------------------ after-hooks

    def _after_schedule(self, result):
        plan, trace = result
        self.counts["scheduler.merges"] += len(trace.rows)
        self.counts["scheduler.planned"] += len(plan.entries)

    def _after_price(self, record):
        self.counts["power.pairs_priced"] += 1
        if record.power == power.DEFAULT_P_MIN:
            self.counts["power.at_floor"] += 1

    def _after_materialize(self, dataset):
        self.counts["distributions.samples_materialized"] += len(dataset)

    def _after_audit(self, report):
        for c in report.checks:
            if c.lhs > 0.0:
                self.min_slack = min(self.min_slack, c.rhs / c.lhs)

    def _after_emit(self, paths):
        self.counts["harness.emit_bytes"] += sum(p.stat().st_size for p in paths)

    # ------------------------------------------------------------ install

    def _set(self, module, attr, value):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, counters: bool):
        """Wrap every traced attribute; call ``remove`` to undo.

        Spans are always installed. ``counters`` adds the per-call counters
        (KL evaluations, gradient passes, solver iterations and evaluations).
        """
        after = {
            "scheduler": self._after_schedule,
            "distributions.materialize": self._after_materialize,
            "divergence.audit": self._after_audit,
            "harness.emit": self._after_emit,
        }
        for name, targets in SPAN_TARGETS.items():
            module, attr = targets[0]
            wrapped = self._span(name, getattr(module, attr), after.get(name))
            for module, attr in targets:
                self._set(module, attr, wrapped)

        # Pricing is timed through the scheduler's own power_solver hook.
        timed_solve = self._span("power", power.solve_pair, self._after_price)
        traced_schedule = harness.run_scheduler

        @functools.wraps(traced_schedule)
        def run_scheduler(cfg, topo, radio, rng=None, power_solver=None):
            return traced_schedule(cfg, topo, radio, rng, power_solver or timed_solve)

        self._set(harness, "run_scheduler", run_scheduler)
        self._set(scheduler, "run_scheduler", run_scheduler)

        if not counters:
            return
        self._set(scheduler, "kl", self._counted("scheduler.kl_evals", scheduler.kl))
        self._set(power, "allocate_power", self._allocate_power(power.allocate_power))
        self._set(power, "feasibility", self._counted("power.objective_evals", power.feasibility))
        self._set(power, "objective", self._counted("power.objective_evals", power.objective))
        self._set(federated, "loss_and_grad", self._federated_pass(federated.loss_and_grad))
        self._set(federated, "local_update", self._local_update(federated.local_update))
        self._set(
            divergence,
            "loss_and_grad",
            self._counted("divergence.grad_passes", divergence.loss_and_grad),
        )

    def remove(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ metrics

    def layer_metrics(self, run_s: float) -> dict:
        """Per-layer figures of the last traced iteration of length ``run_s``."""
        c, t = self.counts, self.total
        merges = c["scheduler.merges"]
        pairs = c["power.pairs_priced"]
        passes = c["federated.grad_passes"]
        return {
            "scheduler.self_s": self.self_time["scheduler"],
            "scheduler.kl_evals": c["scheduler.kl_evals"],
            "scheduler.merges": merges,
            "scheduler.plan_share": c["scheduler.planned"] / merges if merges else 0.0,
            "power.solve_s": t["power"],
            "power.pairs_priced": pairs,
            "power.bisection_iters": c["power.bisection_iters"],
            "power.objective_evals": c["power.objective_evals"],
            "power.at_floor_share": c["power.at_floor"] / pairs if pairs else 0.0,
            "federated.train_s": t["federated.train"],
            "federated.paired_s": t["federated.paired"],
            "federated.grad_passes": passes,
            "federated.update_share": c["federated.update_passes"] / passes if passes else 0.0,
            "divergence.audit_s": t["divergence.audit"],
            "divergence.grad_passes": c["divergence.grad_passes"],
            "divergence.min_slack": self.min_slack if math.isfinite(self.min_slack) else 0.0,
            "distributions.generate_clients_s": t["distributions.generate_clients"],
            "distributions.materialize_s": t["distributions.materialize"],
            "distributions.samples_materialized": c["distributions.samples_materialized"],
            "network.place_topology_s": t["network.place_topology"],
            "network.cost_s": t["network.assign_subcarriers"] + t["network.system_cost"],
            "harness.emit_s": t["harness.emit"],
            "harness.emit_bytes": c["harness.emit_bytes"],
            "harness.other_s": run_s - sum(self.self_time.values()),
        }
