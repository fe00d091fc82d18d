"""Check that the tests catch a fixed list of deliberate faults.

    python3 tools/mutants.py

Each mutation names one text edit to one file under ``src/`` and the test
files that should catch it. For each, ``src/``, ``tests/``, ``perfbench/``
(whose scenarios and tracer some tests load) and ``pyproject.toml`` are
copied to a temporary directory, the edit is applied there, and only that
mutation's test files run. A mutation whose tests still pass survived; one
whose tests run past ``TIMEOUT_S`` seconds is stopped, reported as
``timeout`` and counted as killed. The working tree is never edited.

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
# One test run's limit. A mutant can loop forever (the placement loop's
# redraw sits next to mutation targets), so a run that hits it is reported
# as ``timeout`` and counts as killed; the unmutated run must finish in it.
TIMEOUT_S = 300

# (name, file under the repo root, text, replacement, test files)
MUTATIONS = [
    (
        "device lookup accepts negative ids",
        "src/edgefed/network.py",
        "        if not (0 <= device_id < len(self.home)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return Device(",
        "        if not (device_id < len(self.home)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n"
        "        return Device(",
        ["tests/test_network.py"],
    ),
    (
        "pair lookup accepts negative device ids",
        "src/edgefed/network.py",
        "        if not (0 <= device_id < len(self.home)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n\n"
        "    def gain(",
        "        if not (device_id < len(self.home)):\n"
        "            raise UnknownPairError(f\"no device with id {device_id}\")\n\n"
        "    def gain(",
        ["tests/test_network.py"],
    ),
    (
        "pair lookup accepts negative server ids",
        "src/edgefed/network.py",
        "        if not (0 <= server_id < len(self.servers)):\n",
        "        if not (server_id < len(self.servers)):\n",
        ["tests/test_network.py"],
    ),
    (
        "topology skips the server id-position check",
        "src/edgefed/network.py",
        "            if server.id != i:\n",
        "            if False:\n",
        ["tests/test_network.py"],
    ),
    (
        "topology skips its array shape check",
        "src/edgefed/network.py",
        "            if arr.shape != shape:\n",
        "            if False:\n",
        ["tests/test_network.py"],
    ),
    (
        "topology accepts negative label counts",
        "src/edgefed/network.py",
        "np.flatnonzero((self.counts < 0).any(axis=1))",
        "np.flatnonzero((self.counts < -1).any(axis=1))",
        ["tests/test_network.py"],
    ),
    (
        "topology accepts home servers past the last one",
        "src/edgefed/network.py",
        "(self.home < 0) | (self.home >= len(self.servers))",
        "(self.home < 0)",
        ["tests/test_network.py"],
    ),
    (
        "placement lets a payload of exactly 2**63 bits through",
        "src/edgefed/network.py",
        "np.flatnonzero(data_bits >= 2**63)",
        "np.flatnonzero(data_bits > 2**63)",
        ["tests/test_network.py"],
    ),
    (
        "plan materialisation skips the pair check",
        "src/edgefed/harness.py",
        "        topo.check_pair(e.device, e.server)\n",
        "",
        ["tests/test_harness.py"],
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
        "sweep loads a config outside its try",
        "src/edgefed/cli.py",
        "        try:\n            cfg = ScenarioConfig.from_json(path)\n",
        "        cfg = ScenarioConfig.from_json(path)\n        try:\n",
        ["tests/test_harness.py"],
    ),
    (
        "serviceable set keeps devices without samples",
        "src/edgefed/scheduler.py",
        "topo.counts.sum(axis=1) > 0",
        "topo.counts.sum(axis=1) >= 0",
        ["tests/test_scheduler.py"],
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
        "        if (held >= target_counts).all():",
        "        if (held + counts[int(np.argmin(scores))] >= target_counts).all():",
        ["tests/test_scheduler.py"],
    ),
    (
        "min-KL tail slice is one row long",
        "src/edgefed/scheduler.py",
        '[: n - k].tolist()',
        '[: n - k + 1].tolist()',
        ["tests/test_scheduler.py"],
    ),
    (
        "stop rule waits for a total above gamma",
        "src/edgefed/scheduler.py",
        "cfg.stop_at_threshold and total >= cfg.gamma",
        "cfg.stop_at_threshold and total > cfg.gamma",
        ["tests/test_scheduler.py"],
    ),
    (
        "plan cut one pick short",
        "src/edgefed/scheduler.py",
        "picked[: bisect_left(totals, cfg.gamma) + 1]",
        "picked[: bisect_left(totals, cfg.gamma)]",
        ["tests/test_scheduler.py"],
    ),
    (
        "trace KL rows lose their clamp at zero",
        "src/edgefed/scheduler.py",
        "np.maximum(np.sum(probs * np.log(probs / q), axis=1), 0.0)",
        "np.sum(probs * np.log(probs / q), axis=1)",
        ["tests/test_scheduler.py"],
    ),
    (
        "default start model ignores the eval-set labels",
        "src/edgefed/federated.py",
        "    scored = [eval_set] if eval_set is not None and len(eval_set) > 0 else []",
        "    scored = []",
        ["tests/test_federated.py"],
    ),
    (
        "averaging adds the server models in reverse order",
        "src/edgefed/federated.py",
        "    for k, s in enumerate(sizes):",
        "    for k, s in reversed(list(enumerate(sizes))):",
        ["tests/test_federated.py"],
    ),
    (
        "minibatch audited runs take their metrics from the paired run",
        "src/edgefed/harness.py",
        "    trains_once = cfg.audit and cfg.train.batch_size is None\n",
        "    trains_once = cfg.audit\n",
        ["tests/test_harness.py"],
    ),
    (
        "paired gradients come from the last local step",
        "src/edgefed/federated.py",
        "        if first is None:\n            first = grad_w, grad_b\n",
        "        first = grad_w, grad_b\n",
        ["tests/test_federated.py"],
    ),
    (
        "paired gradients come from the right arm",
        "src/edgefed/federated.py",
        "_frozen_array(g[:n], np.float64)",
        "_frozen_array(g[n:], np.float64)",
        ["tests/test_federated.py"],
    ),
    (
        "paired metrics score the right arm",
        "src/edgefed/federated.py",
        "_round_metrics(t, weights[:n], bias[:n], left_stack, models[0], eval_set)",
        "_round_metrics(t, weights[n:], bias[n:], left_stack, models[1], eval_set)",
        ["tests/test_federated.py", "tests/test_harness.py"],
    ),
    (
        "minibatch audited runs also score the eval set in the paired run",
        "src/edgefed/harness.py",
        "        scored = eval_set if trains_once else None\n",
        "        scored = eval_set\n",
        ["tests/test_harness.py"],
    ),
    (
        "channel gain skips the reference-distance clamp",
        "src/edgefed/network.py",
        "    d = np.maximum(distance, reference_distance)\n",
        "    d = distance\n",
        ["tests/test_network.py"],
    ),
    (
        "channel gain takes np.power for the path loss",
        "src/edgefed/network.py",
        "np.float_power(reference_distance / d, exponent)",
        "np.power(reference_distance / d, exponent)",
        ["tests/test_network.py"],
    ),
    (
        "nearest sort key drops the id tie-break",
        "src/edgefed/scheduler.py",
        "key=lambda u: (topo.distance(u, server_id), u)",
        "key=lambda u: topo.distance(u, server_id)",
        ["tests/test_scheduler.py"],
    ),
    (
        "scalar kl loses its clamp at zero",
        "src/edgefed/divergence.py",
        "    return max(value, 0.0)\n",
        "    return value\n",
        ["tests/test_divergence.py"],
    ),
    (
        "kl accepts a zero reference entry",
        "src/edgefed/divergence.py",
        "    if np.any(q <= 0.0):\n",
        "    if np.any(q < 0.0):\n",
        ["tests/test_divergence.py"],
    ),
    (
        "kl skips its shape check",
        "src/edgefed/divergence.py",
        "    if p.shape != q.shape:\n",
        "    if False:\n",
        ["tests/test_divergence.py"],
    ),
    (
        "the audit's pooled gradient weighs every server equally",
        "src/edgefed/divergence.py",
        "        pooled = _average(grad_w, grad_b, sizes)\n",
        "        pooled = _average(grad_w, grad_b, [1] * len(sizes))\n",
        ["tests/test_divergence.py"],
    ),
    (
        "label histograms accept non-integer counts",
        "src/edgefed/distributions.py",
        "        if not np.issubdtype(arr.dtype, np.integer):\n",
        "        if False:\n",
        ["tests/test_distributions.py"],
    ),
    (
        "Dirichlet draws are not renormalised",
        "src/edgefed/distributions.py",
        "rng.multinomial(n, draw / draw.sum())",
        "rng.multinomial(n, draw)",
        ["tests/test_distributions.py"],
    ),
    (
        "emitted JSON keys keep insertion order",
        "src/edgefed/harness.py",
        "json.dumps(payload, indent=2, sort_keys=True)",
        "json.dumps(payload, indent=2)",
        ["tests/test_byte_stability.py"],
    ),
    (
        "materialize draws every histogram from the first stream",
        "src/edgefed/distributions.py",
        "        rng.standard_normal(out=block)\n",
        "        rngs[0].standard_normal(out=block)\n",
        ["tests/test_distributions.py"],
    ),
    (
        "label cells drop the column offset",
        "src/edgefed/federated.py",
        "    label_cells = labels * width + np.arange(width)\n",
        "    label_cells = labels * width\n",
        ["tests/test_federated.py"],
    ),
    (
        "config loading accepts non-finite numbers",
        "src/edgefed/harness.py",
        "    if isinstance(value, float) and not math.isfinite(value):\n",
        "    if False:\n",
        ["tests/test_harness.py"],
    ),
]


def _copy_tree(dest):
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree, files):
    """``"pass"``, ``"fail"``, or ``"timeout"`` after ``TIMEOUT_S`` seconds."""
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(tree / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    try:
        proc = subprocess.run(
            cmd,
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


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
        clean = _run_tests(tree, all_files)
        if clean != "pass":
            print(f"the unmutated tests did not pass ({clean}): {' '.join(all_files)}")
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
            outcome = _run_tests(tree, files)
        verdict = {"pass": "SURVIVED", "fail": "killed", "timeout": "timeout"}[outcome]
        print(f"{verdict:8}  {time.perf_counter() - t0:5.1f} s  {name}  ({' '.join(files)})")
        if outcome == "pass":
            survivors.append(name)
    total = time.perf_counter() - start
    print(f"{len(MUTATIONS) - len(survivors)}/{len(MUTATIONS)} killed in {total:.1f} s")
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
