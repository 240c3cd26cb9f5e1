"""Golden op counts and traces for every catalog case on every platform.

``golden_exec.json`` pins, for each catalog model x suite case x
platform of :func:`repro.verify.standard_targets` (abstract, csim,
vsim), the number of IR statements the case executed and the sha256 of
its exported trace.  The co-simulation cost model turns ``ops_executed``
into time, so a drift in either number is an observable change, not an
implementation detail.

The file is data, produced from a known-good tree::

    PYTHONPATH=src python -m tests.exec.test_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.models import build_model
from repro.models.catalog import CATALOG
from repro.obs import dump_jsonl
from repro.verify import run_case, standard_builds, standard_targets, suite_for

GOLDEN_PATH = Path(__file__).with_name("golden_exec.json")


def measure_catalog() -> dict[str, dict[str, int | str]]:
    """``{"model/case/platform": {"ops": n, "trace_sha256": hex}}``."""
    measured = {}
    for entry in CATALOG:
        for case in suite_for(entry.name):
            model = build_model(entry.name)
            for target in standard_targets(model, *standard_builds(model)):
                run_case(case, target)
                trace = dump_jsonl(target.trace).encode()
                measured[f"{entry.name}/{case.name}/{target.name}"] = {
                    "ops": target.engine.ops_executed,
                    "trace_sha256": hashlib.sha256(trace).hexdigest(),
                }
    return measured


def test_catalog_matches_golden_ops_and_traces():
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = measure_catalog()
    assert sorted(measured) == sorted(golden)
    drifted = [key for key in golden if measured[key] != golden[key]]
    assert not drifted, drifted


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.exec.test_golden --write")
    GOLDEN_PATH.write_text(
        json.dumps(measure_catalog(), indent=1, sort_keys=True) + "\n")
