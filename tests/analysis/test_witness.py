"""Unit tests for scenario distillation and the interleaving explorer."""

import dataclasses

import pytest

import repro.analysis.witness as witness_module
from repro.analysis.witness import (
    RecordingScheduler,
    ReplayScheduler,
    Scenario,
    WitnessSearch,
    replay_witness,
    run_scenario,
    scenarios_for_model,
    scenarios_from_cases,
    stimuli_from_scenarios,
)
from repro.models import build_elevator_model, build_microwave_model, build_model
from repro.models.catalog import CATALOG
from repro.runtime import EventPool, SignalInstance
from repro.runtime.scheduler import InterleavedScheduler, SynchronousScheduler
from repro.verify import suite_for
from repro.verify.testcase import (
    CreateStep,
    ExpectState,
    InjectStep,
    RelateStep,
    RunStep,
    TestCase,
)


@pytest.fixture(scope="module")
def microwave():
    return build_microwave_model()


@pytest.fixture(scope="module")
def microwave_scenarios():
    return scenarios_for_model("Microwave")


@pytest.fixture(scope="module")
def microwave_search(microwave, microwave_scenarios):
    return WitnessSearch(microwave, microwave_scenarios,
                         component="control", schedules=8)


class TestScenarioDistillation:
    def test_every_scenario_has_a_stimulus(self, microwave_scenarios):
        assert microwave_scenarios
        for scenario in microwave_scenarios:
            assert any(isinstance(s, InjectStep) for s in scenario.steps)

    def test_expectations_are_stripped(self, microwave_scenarios):
        for scenario in microwave_scenarios:
            assert not any(isinstance(s, (ExpectState, RunStep))
                           for s in scenario.steps)

    def test_concurrent_variant_strips_delays(self):
        # the elevator suite spaces calls out with inject delays, so it
        # must also yield +concurrent variants with the delays removed
        scenarios = scenarios_for_model("Elevator")
        concurrent = [s for s in scenarios if s.name.endswith("+concurrent")]
        assert concurrent
        for scenario in concurrent:
            assert all(s.delay_us == 0 for s in scenario.steps
                       if isinstance(s, InjectStep))

    def test_model_name_drift_tolerated(self):
        # the catalog key is "packetproc"; the model names itself
        # "PacketProcessor" — both must resolve to the same suite
        assert scenarios_for_model("PacketProcessor")
        assert scenarios_for_model("packetproc")

    def test_unknown_model_yields_no_scenarios(self):
        assert scenarios_for_model("NoSuchModel") == ()

    def test_distillation_dedupes(self):
        cases = suite_for("microwave")
        once = scenarios_from_cases(cases)
        twice = scenarios_from_cases(list(cases) + list(cases))
        assert [s.name for s in once] == [s.name for s in twice]

    def test_distillation_keeps_cases_that_differ_in_setup(self):
        # same stimulus, but a different instance related or class created
        def case(name, first_class, partner):
            return TestCase(name, steps=[
                CreateStep("a", first_class),
                CreateStep("b", "B"),
                CreateStep("c", "B"),
                RelateStep("a", partner, "R1"),
                InjectStep("a", "E1"),
            ])

        cases = [case("relate-b", "A", "b"), case("relate-c", "A", "c"),
                 case("create-other", "Z", "b")]
        assert [s.name for s in scenarios_from_cases(cases)] == [
            "relate-b", "relate-c", "create-other"]

    def test_stimuli_map(self, microwave_scenarios):
        stimuli = stimuli_from_scenarios(microwave_scenarios)
        assert "MO1" in stimuli["MO"]


class TestRunAndReplay:
    def test_synchronous_run_reaches_quiescence(self, microwave,
                                                microwave_scenarios):
        record = run_scenario(microwave, microwave_scenarios[0],
                              SynchronousScheduler(), component="control")
        assert not record.truncated
        assert record.steps == len(record.schedule)
        assert any(key == "MO" for key, _, _ in record.fingerprint)

    def test_replay_reproduces_fingerprint(self, microwave,
                                           microwave_scenarios):
        scenario = microwave_scenarios[-1]
        original = run_scenario(microwave, scenario,
                                InterleavedScheduler(5), component="control")
        replayer = ReplayScheduler(original.schedule)
        again = run_scenario(microwave, scenario, replayer,
                             component="control")
        assert again.fingerprint == original.fingerprint
        assert again.drops == original.drops
        assert not replayer.diverged

    def test_max_steps_truncates_instead_of_raising(self, microwave,
                                                    microwave_scenarios):
        record = run_scenario(microwave, microwave_scenarios[0],
                              SynchronousScheduler(), component="control",
                              max_steps=2)
        assert record.truncated
        assert record.steps == 2


class TestWitnessSearch:
    def test_finds_delayed_tick_drop(self, microwave, microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        assert witness is not None
        assert witness.kind == "drop"
        assert replay_witness(microwave, witness, component="control")

    def test_drop_witness_is_trimmed_to_first_occurrence(self,
                                                         microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        for record in microwave_search.records_for(witness.scenario):
            if record.seed == witness.seed:
                first = record.drop_step("MO", "MO4", "Paused", "ignored")
                assert len(witness.schedule) == first
                break
        else:  # pragma: no cover - the witness came from these records
            pytest.fail("witness record not found")

    def test_unrealizable_drop_returns_none(self, microwave_search):
        # MO5 is pinned to its generating state; no schedule can drop it
        assert microwave_search.find_drop(
            "MO", "MO5", "Idle", "ignored") is None

    def test_run_cache_counts_each_run_once(self, microwave,
                                            microwave_scenarios):
        search = WitnessSearch(microwave, microwave_scenarios[:1],
                               component="control", schedules=3)
        search.records_for(microwave_scenarios[0])
        after_first = search.runs_executed
        search.records_for(microwave_scenarios[0])
        assert search.runs_executed == after_first == 4  # baseline + 3

    def test_witness_json_is_self_describing(self, microwave_search):
        witness = microwave_search.find_drop("MO", "MO4", "Paused", "ignored")
        payload = witness.to_json()
        assert payload["kind"] == "drop"
        assert payload["observed"]["label"] == "MO4"
        assert payload["steps"]  # human-readable scenario script


class TestRaceWitness:
    def test_elevator_call_dispatch_races(self):
        model = build_elevator_model()
        search = WitnessSearch(model, scenarios_for_model("Elevator"),
                               schedules=8)
        witness = search.find_race("E", "E1")
        assert witness is not None
        assert witness.kind == "race"
        assert witness.baseline_schedule != witness.schedule
        assert replay_witness(model, witness)

    def test_pinned_signal_never_races(self, microwave_search):
        assert microwave_search.find_race("MO", "MO5") is None


def _count_runs(monkeypatch) -> list:
    """Record every scenario ``run_scenario`` simulates."""
    simulated = []
    real = witness_module.run_scenario

    def counting(model, scenario, *args, **kwargs):
        simulated.append(scenario.name)
        return real(model, scenario, *args, **kwargs)

    monkeypatch.setattr(witness_module, "run_scenario", counting)
    return simulated


class TestRecordCacheKey:
    def test_same_name_different_steps_gets_its_own_records(
            self, microwave, microwave_scenarios):
        first, second = microwave_scenarios[0], microwave_scenarios[1]
        impostor = Scenario(first.name, second.steps, second.source_case)
        search = WitnessSearch(microwave, microwave_scenarios,
                               component="control", schedules=2)
        assert (search.records_for(first)[0].consumed
                != search.records_for(second)[0].consumed)
        assert search.records_for(impostor) == search.records_for(second)
        assert search.runs_executed == 9

    def test_equal_scenario_is_a_cache_hit(self, microwave,
                                           microwave_scenarios):
        scenario = microwave_scenarios[0]
        search = WitnessSearch(microwave, microwave_scenarios,
                               component="control", schedules=2)
        search.records_for(scenario)
        search.records_for(Scenario(scenario.name, scenario.steps,
                                    scenario.source_case))
        assert search.runs_executed == 3


class TestChoicePoints:
    @staticmethod
    def _signal(sequence, target):
        return SignalInstance(sequence=sequence, label="EV", class_key="W",
                              target_handle=target)

    def test_only_calls_with_two_ready_sources_count(self):
        pool = EventPool()
        recorder = RecordingScheduler(SynchronousScheduler())
        pool.push_ready(self._signal(1, 4))
        recorder.choose(pool)           # one source: no choice
        pool.push_ready(self._signal(2, 5))
        recorder.choose(pool)           # two sources: a choice point
        pool.pop_for(4)
        recorder.choose(pool)
        assert recorder.choice_points == 1
        assert recorder.choices == [4, 4, 5]

    def test_recorded_on_the_run_record(self, microwave, microwave_scenarios):
        counts = [run_scenario(microwave, scenario, SynchronousScheduler(),
                               component="control").choice_points
                  for scenario in microwave_scenarios]
        assert 0 in counts and any(counts)


def _schedule_independent_scenarios():
    for entry in CATALOG:
        model = build_model(entry.name)
        for scenario in scenarios_for_model(entry.name):
            baseline = run_scenario(model, scenario, SynchronousScheduler())
            if baseline.choice_points == 0:
                yield pytest.param(model, scenario,
                                   id=f"{entry.name}/{scenario.name}")


class TestScheduleIndependence:
    """A baseline with no choice point stands for every seeded run."""

    @pytest.mark.parametrize("model,scenario",
                             list(_schedule_independent_scenarios()))
    def test_shortcut_records_equal_real_runs(self, model, scenario):
        search = WitnessSearch(model, (scenario,), schedules=3, seed=11)
        shortcut = search.records_for(scenario)[1:]
        for seed, record in zip((11, 12, 13), shortcut, strict=True):
            real = run_scenario(model, scenario, InterleavedScheduler(seed),
                                seed=seed)
            for field in dataclasses.fields(real):
                assert (getattr(record, field.name)
                        == getattr(real, field.name)), field.name

    def test_catalog_has_schedule_independent_scenarios(self):
        names = {param.id.split("/")[0]
                 for param in _schedule_independent_scenarios()}
        assert {"trafficlight", "microwave", "checksum"} <= names

    def test_independent_scenario_is_simulated_once(self, monkeypatch):
        model = build_model("checksum")
        scenario = next(s for s in scenarios_for_model("checksum")
                        if s.name == "single-job-correct")
        simulated = _count_runs(monkeypatch)
        search = WitnessSearch(model, (scenario,))
        records = search.records_for(scenario)
        assert simulated == ["single-job-correct"]
        assert len(records) == search.runs_executed == 25
        assert [r.seed for r in records] == [None, *range(24)]
        assert {r.scheduler_name for r in records[1:]} == {"interleaved"}

    def test_scenario_with_a_choice_point_simulates_every_run(
            self, monkeypatch):
        model = build_elevator_model()
        scenario = next(s for s in scenarios_for_model("Elevator")
                        if s.name == "two-cars-split-work")
        simulated = _count_runs(monkeypatch)
        search = WitnessSearch(model, (scenario,))
        records = search.records_for(scenario)
        assert records[0].choice_points > 0
        assert len(simulated) == len(records) == search.runs_executed == 25
