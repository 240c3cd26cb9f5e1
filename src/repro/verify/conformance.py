"""Conformance checking — one test suite, every platform.

Experiment E3's engine: run each formal test case on the abstract model,
the generated-C architecture and the generated-VHDL architecture (each
build compiled once, fresh platform instances per case), then compare
(a) assertion outcomes and (b) per-instance behavioural summaries.  A
model compiler that preserved the defined behaviour yields an all-PASS,
all-equal matrix — "the model compiler ... may do [the sequencing] any
manner it chooses so long as the defined behavior is preserved" (paper
section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xuml.model import Model

from .runner import run_case
from .targets import standard_builds, standard_targets
from .testcase import TestCase, TestResult


@dataclass
class CaseConformance:
    """One test case's outcome across every platform."""

    case_name: str
    results: list[TestResult] = field(default_factory=list)
    summaries_equal: bool = True

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def conformant(self) -> bool:
        return self.all_passed and self.summaries_equal


@dataclass
class ConformanceReport:
    """The full matrix for one model."""

    model_name: str
    cases: list[CaseConformance] = field(default_factory=list)
    target_names: tuple[str, ...] = ()

    @property
    def conformant(self) -> bool:
        return all(case.conformant for case in self.cases)

    def pass_rate(self) -> float:
        total = sum(len(case.results) for case in self.cases)
        if total == 0:
            return 1.0
        passed = sum(
            1 for case in self.cases for result in case.results
            if result.passed)
        return passed / total

    def render(self) -> str:
        """A paper-style conformance table."""
        lines = [f"conformance of model {self.model_name}:"]
        header = f"{'case':32s} " + " ".join(
            f"{name:>16s}" for name in self.target_names) + "  traces"
        lines.append(header)
        for case in self.cases:
            cells = " ".join(
                f"{'PASS' if result.passed else 'FAIL':>16s}"
                for result in case.results)
            traces = "equal" if case.summaries_equal else "DIVERGE"
            lines.append(f"{case.case_name:32s} {cells}  {traces}")
        verdict = "CONFORMANT" if self.conformant else "NOT CONFORMANT"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


def check_conformance(model: Model,
                      cases: list[TestCase]) -> ConformanceReport:
    """Run *cases* on all standard targets of *model*.

    Both builds compile once; each case runs on fresh platform instances
    over them, so no case sees state another case left behind.
    """
    builds = standard_builds(model)
    report = ConformanceReport(model.name)
    for case in cases:
        targets = standard_targets(model, *builds)
        report.target_names = tuple(target.name for target in targets)
        conformance = CaseConformance(case.name)
        for target in targets:
            conformance.results.append(run_case(case, target))
        summaries = [target.trace.behavioural_summary()
                     for target in targets]
        conformance.summaries_equal = all(
            summary == summaries[0] for summary in summaries)
        report.cases.append(conformance)
    return report
