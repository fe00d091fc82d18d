"""Smoke check: the benchmark prints exactly the metrics BENCHMARK.json names.

    python3 perfbench/check_names.py

Runs each workload once with tracing off and once with tracing on, for the
shortest time the benchmark allows, and compares the metric names and units
on the last output line with the ``end_to_end`` and ``per_layer`` lists.
Exits non-zero on the first mismatch or incorrect run.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, want in expected.items():
            cmd = [*spec["command"], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want or not result["correct"]:
                print(f"FAIL {workload} trace={trace}: correct={result['correct']}")
                for name in sorted(set(got) ^ set(want)):
                    print(f"  only in {'output' if name in got else 'BENCHMARK.json'}: {name}")
                for name in sorted(set(got) & set(want)):
                    if got[name] != want[name]:
                        print(f"  unit of {name}: {got[name]} != {want[name]}")
                sys.exit(1)
            print(f"ok {workload} trace={trace}: {len(got)} metrics")


if __name__ == "__main__":
    main()
