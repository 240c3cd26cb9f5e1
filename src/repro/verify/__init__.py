"""Model-level verification (paper section 2).

* :class:`TestCase` — formal, platform-independent test cases
* :func:`run_case` — execute one case on one :class:`Target`
* :func:`check_conformance` — the E3 matrix: every case on the abstract
  model, the generated C and the generated VHDL, traces compared
* :data:`SUITES` — the formal suites of the catalog models
"""

from .chaos import (
    ChaosCaseResult,
    ChaosPoint,
    ChaosReport,
    chaos_build,
    chaos_sweep,
    default_hardware_for,
    reliability_marks,
)
from .conformance import (
    CaseConformance,
    ConformanceReport,
    check_conformance,
)
from .runner import run_case
from .suitefile import (
    SuiteFileError,
    suite_from_dict,
    suite_from_json,
    suite_to_dict,
    suite_to_json,
)
from .suites import SUITES, suite_for
from .targets import (
    AbstractTarget,
    CoSimTarget,
    CSimTarget,
    Target,
    VSimTarget,
    standard_builds,
    standard_targets,
)
from .testcase import Failure, TestCase, TestResult

__all__ = [
    "AbstractTarget",
    "CSimTarget",
    "CaseConformance",
    "ChaosCaseResult",
    "ChaosPoint",
    "ChaosReport",
    "CoSimTarget",
    "ConformanceReport",
    "Failure",
    "SUITES",
    "SuiteFileError",
    "Target",
    "TestCase",
    "TestResult",
    "VSimTarget",
    "chaos_build",
    "chaos_sweep",
    "check_conformance",
    "default_hardware_for",
    "reliability_marks",
    "run_case",
    "standard_builds",
    "standard_targets",
    "suite_for",
    "suite_from_dict",
    "suite_from_json",
    "suite_to_dict",
    "suite_to_json",
]
