"""Check that per-layer counts repeat exactly across two traced runs.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Run from the repository root.  Each workload is run twice with
``--trace 1`` and the same seed; every per-layer metric whose unit is
``count`` or ``bytes`` must agree to the last digit, so later changes
can cite those counts as evidence.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_UNITS = ("count", "bytes")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n"
                         + completed.stdout[-4000:] + completed.stderr)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] in EXACT_UNITS}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)

    differences = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in sorted(first):
            if first[name] != second.get(name):
                differences += 1
                print(f"{workload} {name}: {first[name]} != {second[name]}")
        print(f"{workload}: {len(first)} counts compared, "
              + ("identical" if first == second else "DIFFERENT"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
