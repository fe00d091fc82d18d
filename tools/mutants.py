"""Check that the tests catch a fixed list of deliberate faults.

    python3 tools/mutants.py

Each mutation names one text edit to one file under ``src/`` and the test
files that should catch it. For each, ``src/``, ``tests/``, ``perfbench/``
(whose scenarios and tracer some tests load) and ``pyproject.toml`` are
copied to a temporary directory, the edit is applied there, and only that
mutation's test files run. A mutation whose tests still pass survived. The
working tree is never edited.

First the listed test files run once on the unmutated copy; if they fail,
no verdict would mean anything and the script exits 2. It also exits 2 when
a mutation's text no longer occurs exactly once. Otherwise it prints one
line per mutation with its verdict and time, and exits 1 if any survived.
Stdlib only.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file under the repo root, text, replacement, test files)
MUTATIONS = [
    (
        "device lookup accepts negative ids",
        "src/edgefed/network.py",
        "        if not (0 <= device_id < len(self.devices)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return self.devices[device_id]",
        "        if not (device_id < len(self.devices)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return self.devices[device_id]",
        ["tests/test_network.py"],
    ),
    (
        "gain lookup accepts negative device ids",
        "src/edgefed/network.py",
        "        if not (0 <= device_id < len(self.devices)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return float(",
        "        if not (device_id < len(self.devices)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return float(",
        ["tests/test_network.py"],
    ),
    (
        "topology skips the id-position check",
        "src/edgefed/network.py",
        "                if item.id != i:\n",
        "                if False:\n",
        ["tests/test_network.py"],
    ),
    (
        "trusted arrays stay writeable",
        "src/edgefed/distributions.py",
        "        arr.flags.writeable = False\n        object.__setattr__(out, name, arr)",
        "        object.__setattr__(out, name, arr)",
        ["tests/test_distributions.py"],
    ),
    (
        "sweep lets a failing config stop the rest",
        "src/edgefed/cli.py",
        "        except Exception as exc:  # noqa: BLE001 (a failing scenario",
        "        except () as exc:  # noqa: BLE001 (a failing scenario",
        ["tests/test_harness.py"],
    ),
    (
        "min-KL tail sort is not stable",
        "src/edgefed/scheduler.py",
        'np.argsort(scores, kind="stable")',
        "np.argsort(scores)",
        ["tests/test_scheduler.py"],
    ),
    (
        "min-KL tail sort keeps taken rows",
        "src/edgefed/scheduler.py",
        'np.argsort(scores, kind="stable")',
        'np.argsort(_kl_scores(probs, held, target_counts), kind="stable")',
        ["tests/test_scheduler.py"],
    ),
    (
        "min-KL switches to the tail one pick early",
        "src/edgefed/scheduler.py",
        "            if not (held >= target_counts).all():",
        "            if not (held + dists[ids[int(np.argmin(scores))]].counts"
        " >= target_counts).all():",
        ["tests/test_scheduler.py"],
    ),
]


def _copy_tree(dest):
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(tree, files):
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(tree / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    proc = subprocess.run(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return proc.returncode == 0


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: python3 tools/mutants.py (takes no arguments)")
    for name, path, text, _, _ in MUTATIONS:
        found = (ROOT / path).read_text().count(text)
        if found != 1:
            print(f"STALE {name}: its text occurs {found} times in {path}")
            sys.exit(2)
    all_files = sorted({f for *_, files in MUTATIONS for f in files})
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "clean"
        _copy_tree(tree)
        if not _tests_pass(tree, all_files):
            print(f"the unmutated tests fail: {' '.join(all_files)}")
            sys.exit(2)
    survivors = []
    start = time.perf_counter()
    for i, (name, path, text, replacement, files) in enumerate(MUTATIONS):
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = pathlib.Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(text, replacement))
            survived = _tests_pass(tree, files)
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:8}  {time.perf_counter() - t0:5.1f} s  {name}  ({' '.join(files)})")
        if survived:
            survivors.append(name)
    total = time.perf_counter() - start
    print(f"{len(MUTATIONS) - len(survivors)}/{len(MUTATIONS)} killed in {total:.1f} s")
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
