"""Regenerate ``references/`` from the program at the current commit.

    python3 perfbench/make_references.py

Run from the repository root.  The references are what every benchmark
op is checked against, so regenerate them only when a change to the
program is meant to change its outputs, and review the diff.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import REFERENCES, STIMULUS_SETS, WORKLOADS  # noqa: E402


def records(workload) -> dict:
    """Every item of one pass, by key, in key order."""
    outputs = []
    for item in workload.pass_items():
        workload.prepare(item)
        outputs.append((item, workload.run(item)))
    problems = workload.check_pass(outputs)
    if problems:
        raise SystemExit(f"{workload.name}: {problems}")
    return dict(sorted(record for item, output in outputs
                       for record in workload.records(item, output).items()))


def main() -> int:
    references = {}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for name in ("conformance", "retarget", "lint"):
            workload = WORKLOADS[name](0, work)
            try:
                references[workload.reference_name] = records(workload)
            finally:
                workload.close()
        cosim = {}
        for stimulus in range(STIMULUS_SETS):
            workload = WORKLOADS["cosim"](stimulus, work)
            try:
                cosim[str(stimulus)] = records(workload)
            finally:
                workload.close()
        references["cosim"] = cosim

    lint = references["lint"]
    witnessed = sum(r["witnessed"] for r in lint.values())
    errors = sum(r["errors"] for r in lint.values())
    findings = sum(len(r["finding_keys"]) for r in lint.values())
    print(f"lint: {findings} findings, {witnessed} witnessed, "
          f"{errors} errors")
    failing = [key for key, r in references["conformance"].items()
               if not (all(r["passed"]) and r["summaries_equal"])]
    if failing:
        raise SystemExit(f"conformance cases not conformant: {failing}")

    REFERENCES.mkdir(exist_ok=True)
    for name, payload in references.items():
        with open(REFERENCES / f"{name}.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
