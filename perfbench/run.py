"""edgefed benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Every measurement runs in a fresh single-process
interpreter with BLAS pinned to one thread:

* ``SETUP_SAMPLES`` set-up-only processes, plus the workload's own, give
  the median ``setup_s``;
* one workload process repeats the workload on the inputs made from
  ``--seed`` for about ``--seconds`` seconds, checks every iteration's
  outputs and reports the median iteration time as ``run_s``.

With ``--trace 1`` the workload process alternates plain and traced
iterations and the per-layer figures are reported instead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the machine, the
thread setting and the sha256 of the checked outputs.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 6
BLAS_THREADS = "1"
# A workload process may run one iteration past --seconds; golden's is ~10 s.
CHILD_GRACE_S = 120


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = BLAS_THREADS
    return env


def _worker(args, timeout):
    """Run one worker process to completion and return its last JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    proc = subprocess.run(
        cmd + ["--started", repr(time.monotonic())],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        raise SystemExit("--seed must be non-negative")
    if not (ROOT / "src" / "edgefed" / "__init__.py").is_file():
        raise SystemExit(f"no edgefed sources under {ROOT / 'src'}")
    if not (BENCH_DIR / "scenarios" / f"{args.workload}.json").is_file():
        raise SystemExit(f"unknown workload {args.workload!r}")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [
        _worker(["setup", *common], timeout=60)["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        run = _worker(
            [
                "run",
                *common,
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
                "--out",
                str(out),
            ],
            timeout=args.seconds + CHILD_GRACE_S,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    setups.append(run["setup_s"])

    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "run_s": _metric(statistics.median(run["run_s"]), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
            "final_accuracy": _metric(run["final_accuracy"], "fraction"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations_s": run["run_s"],
        "setup_samples_s": setups,
        "failures": run["failures"],
        "energy_j": run["energy_j"],
        "artifacts_sha256": run["artifacts_sha256"],
        "environment": run["environment"],
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
