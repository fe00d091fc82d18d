"""Check that two checkouts emit the same benchmark outputs, seed by seed.

    python3 tools/same_outputs.py --parent REV_OR_DIR

Runs the golden, desk_audit and full_offload workload functions of
``perfbench/worker.py`` once for each of seeds 1-10, with no timing loop,
and prints the sha256 of their checked outputs: the benchmark's
``artifacts_sha256``. It also hashes each file a workload writes, by its
path under the workload's output directory (``3/summary.json``), and a
DIFFERS line names the files whose hashes differ. Each checkout runs in
one subprocess, in the environment its own ``perfbench/run.py`` gives a
worker (its ``src/`` on ``PYTHONPATH``, BLAS on one thread), on its own
``perfbench/`` and scenario files, and writes no bytecode there.

``--parent`` names the parent commit of the change: a checkout directory or
a git revision of this repository, exported with ``git archive`` into a
temporary directory. The other side is the checkout this script sits in,
working tree included. The exit status is 1 when a digest differs or an
output check fails on either side. Stdlib only.
"""

import argparse
import importlib.util
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = "golden,desk_audit,full_offload"
SEEDS = "1,2,3,4,5,6,7,8,9,10"

# Runs inside the checkout's interpreter: argv is checkout, workloads, seeds.
CHILD = """
import dataclasses, hashlib, json, pathlib, sys, tempfile
root = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(root / "perfbench"))
import edgefed, worker
from edgefed import harness
if pathlib.Path(edgefed.__file__).resolve().parent.parent != root / "src":
    raise SystemExit(f"edgefed imported from {edgefed.__file__}, not from {root / 'src'}")
for name in sys.argv[2].split(","):
    base = harness.ScenarioConfig.from_json(root / "perfbench" / "scenarios" / f"{name}.json")
    for seed in map(int, sys.argv[3].split(",")):
        with tempfile.TemporaryDirectory() as out:
            outputs, _, _, failures = worker.WORKLOADS[name](
                dataclasses.replace(base, seed=seed), pathlib.Path(out)
            )
            files = {
                path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(pathlib.Path(out).rglob("*"))
                if path.is_file()
            }
        digest = hashlib.sha256(outputs).hexdigest()
        row = {"workload": name, "seed": seed, "sha256": digest, "failures": failures}
        print(json.dumps({**row, "files": files}))
"""


def digests(checkout):
    """``{(workload, seed): (sha256, failures, {file: sha256})}`` for one checkout."""
    spec = importlib.util.spec_from_file_location("run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = dict(run._child_env(), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout), WORKLOADS, SEEDS],
        env=env,
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {(r["workload"], r["seed"]): (r["sha256"], r["failures"], r["files"]) for r in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit or its checkout")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        parent = pathlib.Path(args.parent)
        if not parent.is_dir():
            parent = pathlib.Path(tmp)
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.parent],
                stdout=subprocess.PIPE,
                check=True,
            )
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        before = digests(parent.resolve())
    after = digests(ROOT)
    bad = 0
    for key in sorted(set(before) | set(after)):
        (old, old_fails, old_files), (new, new_fails, new_files) = (
            side.get(key, ("missing", ["missing"], {})) for side in (before, after)
        )
        verdict = "same" if old == new else "DIFFERS"
        names = old_files.keys() | new_files.keys()
        moved = sorted(f for f in names if old_files.get(f) != new_files.get(f))
        if moved:
            verdict += f" files={','.join(moved)}"
        if old_fails or new_fails:
            verdict += f" failures={sorted(set(old_fails) | set(new_fails))}"
        bad += verdict != "same"
        print(f"{key[0]:<13} seed {key[1]:>3}  parent {old[:16]}  change {new[:16]}  {verdict}")
    total = len(set(before) | set(after))
    print(f"{total - bad}/{total} pairs have equal digests and pass every check")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
