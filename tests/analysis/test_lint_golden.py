"""Golden lint reports for every catalog model at defaults.

``golden_lint.json`` pins ``LintReport.to_json()`` of ``lint_model``
at its defaults (24 seeded schedules, seed 0, 1,000 steps) for each
catalog model, minus the wall-clock ``elapsed_s``.  It includes every
finding's witness: scenario, seed, schedule and baseline schedule.  Any
change to the explorer or to the abstract runtime's dispatch path that
moves one interleaved choice, one finding or one exploration count
shows up here.

The file is data, produced from a known-good tree::

    PYTHONPATH=src python -m tests.analysis.test_lint_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis import lint_model
from repro.models import build_model
from repro.models.catalog import CATALOG

GOLDEN_PATH = Path(__file__).with_name("golden_lint.json")


def measure_catalog() -> dict[str, dict]:
    """``{model: lint report JSON without elapsed_s}``."""
    measured = {}
    for entry in CATALOG:
        report = lint_model(build_model(entry.name)).to_json()
        del report["elapsed_s"]
        measured[entry.name] = report
    return measured


def test_catalog_lint_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = json.loads(json.dumps(measure_catalog()))
    assert sorted(measured) == sorted(golden)
    drifted = [name for name in golden if measured[name] != golden[name]]
    assert not drifted, drifted


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.analysis.test_lint_golden --write")
    GOLDEN_PATH.write_text(
        json.dumps(measure_catalog(), indent=1, sort_keys=True) + "\n")
