"""Command line entry points: simulate, sweep, and audit."""

from __future__ import annotations

import argparse
import glob
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ScenarioConfig,
    emit,
    resolve_out_dir,
    run_scenario,
)
from .scheduler import Policy

POLICY_CHOICES = [p.value for p in Policy]


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "policy", None) is not None:
        cfg = replace(cfg, scheduler=replace(cfg.scheduler, policy=args.policy))
    if getattr(args, "gamma", None) is not None:
        cfg = replace(cfg, scheduler=replace(cfg.scheduler, gamma=args.gamma))
    if getattr(args, "rounds", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, rounds=args.rounds))
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(ScenarioConfig.from_json(args.config), args)
    bundle = run_scenario(cfg)
    out_dir = resolve_out_dir(cfg, args.out)
    written = emit(bundle, out_dir)
    print(
        json.dumps(
            {
                "cost_joules": bundle.cost_joules,
                "final_accuracy": bundle.final_accuracy,
                "plan_size": len(bundle.plan.entries),
                "outputs": [str(p) for p in written],
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(args.configs))
    if not paths:
        raise FileNotFoundError(f"no config files match {args.configs!r}")
    configs = [ScenarioConfig.from_json(p) for p in paths]
    rows = []
    for path, cfg in zip(paths, configs):
        try:
            bundle = run_scenario(cfg)
        except Exception as exc:  # noqa: BLE001 (a failing scenario must not stop its siblings)
            error = {"type": type(exc).__name__, "message": str(exc)}
            rows.append({"config": path, "error": error})
            continue
        emit(bundle, resolve_out_dir(cfg) / Path(path).stem)
        rows.append(
            {
                "config": path,
                "cost_joules": bundle.cost_joules,
                "final_accuracy": bundle.final_accuracy,
            }
        )
    print(json.dumps(rows, sort_keys=True))
    return 1 if any("error" in row for row in rows) else 0


def _cmd_audit(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    cfg = replace(cfg, audit=True)
    bundle = run_scenario(cfg)
    report = bundle.audit.to_dict()
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgefed",
        description="Edge federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and emit results")
    sim.add_argument("--config", required=True, help="scenario config JSON")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--policy", choices=POLICY_CHOICES, help="override policy")
    sim.add_argument("--gamma", type=int, help="override the sample threshold")
    sim.add_argument("--rounds", type=int, help="override training rounds")
    sim.add_argument("--out", help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run every matching scenario config")
    sw.add_argument("--configs", required=True, help="glob of config files")
    sw.set_defaults(func=_cmd_sweep)

    aud = sub.add_parser("audit", help="run the drift-bound audit for a config")
    aud.add_argument("--config", required=True, help="scenario config JSON")
    aud.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 (single CLI error funnel)
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
