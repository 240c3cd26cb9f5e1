"""Tests of the verification harness itself."""

import pytest

from repro.mda import ModelCompiler
from repro.models import build_microwave_model, build_model
from repro.models.catalog import CATALOG
from repro.verify import (
    AbstractTarget,
    CSimTarget,
    TestCase,
    VSimTarget,
    check_conformance,
    run_case,
    standard_builds,
    standard_targets,
    suite_for,
)


@pytest.fixture
def model():
    return build_microwave_model()


def cook_case():
    return (
        TestCase("cook")
        .create("oven", "MO", oven_id=1)
        .inject("oven", "MO1", {"seconds": 1})
        .run()
        .expect_state("oven", "Complete")
    )


class TestRunner:
    def test_passing_case(self, model):
        result = run_case(cook_case(), AbstractTarget(model))
        assert result.passed
        assert "PASS" in str(result)

    def test_failing_assertion_collected_not_raised(self, model):
        case = (
            TestCase("wrong-state")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 1})
            .run()
            .expect_state("oven", "Idle")
            .expect_attr("oven", "cycles_run", 99)
        )
        result = run_case(case, AbstractTarget(model))
        assert not result.passed
        assert len(result.failures) == 2
        assert "FAIL" in str(result)

    def test_platform_error_captured(self, model):
        case = (
            TestCase("cant-happen")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO5")       # can't happen in Idle
            .run()
        )
        result = run_case(case, AbstractTarget(model))
        assert not result.passed
        assert "CantHappenError" in result.error

    def test_unknown_binding_reported(self, model):
        case = TestCase("bad").inject("ghost", "MO1")
        result = run_case(case, AbstractTarget(model))
        assert result.error is not None

    def test_expect_count(self, model):
        case = (
            TestCase("count")
            .create("oven", "MO", oven_id=1)
            .expect_count("MO", 1)
            .expect_count("PT", 0)
        )
        assert run_case(case, AbstractTarget(model)).passed

    def test_advance_step(self, model):
        case = (
            TestCase("timed")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 5})
            .advance(2_000_000)
            .expect_state("oven", "Cooking")
        )
        assert run_case(case, AbstractTarget(model)).passed


class TestTargets:
    def test_standard_targets_cover_three_platforms(self, model):
        targets = standard_targets(model, *standard_builds(model))
        names = [t.name for t in targets]
        assert names == ["abstract-model", "generated-c", "generated-vhdl"]

    def test_same_case_passes_everywhere(self, model):
        for target in standard_targets(model, *standard_builds(model)):
            assert run_case(cook_case(), target).passed, target.name

    def test_csim_target_wraps_software_machine(self, model):
        from repro.marks import marks_for_partition
        from repro.mda import ModelCompiler
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, ()))
        target = CSimTarget(build)
        assert run_case(cook_case(), target).passed

    def test_vsim_target_wraps_hardware_machine(self, model):
        from repro.marks import marks_for_partition
        from repro.mda import ModelCompiler
        component = model.components[0]
        build = ModelCompiler(model).compile(
            marks_for_partition(component, tuple(component.class_keys)))
        target = VSimTarget(build, clock_mhz=25)
        assert run_case(cook_case(), target).passed


class TestConformanceReport:
    def test_report_structure(self, model):
        report = check_conformance(model, [cook_case()])
        assert report.conformant
        assert report.pass_rate() == 1.0
        assert len(report.cases) == 1
        assert len(report.cases[0].results) == 3
        assert "CONFORMANT" in report.render()

    def test_divergence_detected(self, model):
        # an intentionally wrong expectation fails on every platform but
        # still counts as non-conformant overall
        bad = (
            TestCase("bad")
            .create("oven", "MO", oven_id=1)
            .inject("oven", "MO1", {"seconds": 1})
            .run()
            .expect_state("oven", "Paused")
        )
        report = check_conformance(model, [bad])
        assert not report.conformant
        assert report.pass_rate() == 0.0

    def test_full_suite_compiles_each_build_once(self, model, monkeypatch):
        compiles = []
        original = ModelCompiler.compile

        def counting(compiler, marks):
            compiles.append(marks)
            return original(compiler, marks)

        monkeypatch.setattr(ModelCompiler, "compile", counting)
        suite = suite_for("microwave")
        assert len(suite) == 6
        assert check_conformance(model, suite).conformant
        assert len(compiles) == 2

    @pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
    def test_shared_builds_match_a_fresh_compile_per_case(self, name):
        def outcome(case):
            return ([result.passed for result in case.results],
                    [result.error for result in case.results],
                    [len(result.failures) for result in case.results],
                    case.summaries_equal)

        suite = suite_for(name)
        shared = check_conformance(build_model(name), suite)
        assert [case.case_name for case in shared.cases] == \
            [case.name for case in suite]
        for case, result in zip(suite, shared.cases):
            fresh = check_conformance(build_model(name), [case])
            assert outcome(result) == outcome(fresh.cases[0]), case.name

    def test_all_catalog_suites_exist(self):
        for name in ("microwave", "trafficlight", "packetproc",
                     "elevator", "checksum"):
            assert suite_for(name)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_for("nope")
