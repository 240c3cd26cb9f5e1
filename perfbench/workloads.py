"""The benchmark's workloads: closed loops with one client.

Each workload is a fixed set of items; one *pass* issues every item
once, in an order drawn from the workload seed, each after the previous
one returned.  One item is one *op*, timed on its own.  ``prepare``
runs untimed before an op (cache clearing that a fresh command-line
invocation would get for free), ``run`` is the timed call into the
``repro`` API, and ``record`` reduces its output to the values compared
with the committed references in ``references/``.

Why these workloads (each stresses a different layer, so a gain on one
can be checked for "no change" on the others):

* ``conformance`` -- every catalog suite case verified on the abstract,
  generated-C and generated-VHDL platforms; compile-heavy (front end,
  manifest, emitters).
* ``cosim`` -- the packet-processor partition sweep plus the congested
  bus leg; the IR evaluator and co-sim engine dominate, compile is small.
* ``retarget`` -- the batch matrix compiled through the incremental
  compiler into a fresh store (writes) and again from the filled store
  (reads); compile only, no execution.
* ``lint`` -- the signal-flow lint with its interleaving explorer over
  the catalog; the abstract runtime under recorded schedules.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from repro.analysis import lint_model
from repro.build import (
    ArtifactStore,
    IncrementalCompiler,
    catalog_matrix,
    clear_manifest_memo,
)
from repro.build.fingerprint import artifacts_digest
from repro.cosim import CoSimConfig, measure_partition, poisson_packets
from repro.cosim.engine import CoSimMachine
from repro.exec import clear_lowering_cache
from repro.marks import marks_for_partition
from repro.models import CATALOG, build_model
from repro.verify import check_conformance, suite_for

REFERENCES = Path(__file__).resolve().parent / "references"


def clear_process_caches() -> None:
    """The in-process memos a fresh ``repro`` command starts without."""
    clear_lowering_cache()
    clear_manifest_memo()


def load_reference(name: str) -> dict:
    with open(REFERENCES / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _float_equal(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def diff_records(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between two reference records."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            if _float_equal(want, float(got)):
                continue
        elif want == got:
            continue
        problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


class Workload:
    """One workload's items, timed call, reference record and checks."""

    name = ""
    #: file under ``references/`` holding the expected records
    reference_name = ""
    #: passes the traced part of a ``--trace 1`` run covers
    traced_passes = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self._reference = None

    def pass_items(self) -> list:
        """The items of the next pass, in seeded order."""
        raise NotImplementedError

    def prepare(self, item) -> None:
        """Untimed state reset before *item*."""

    def run(self, item):
        raise NotImplementedError

    def key(self, item) -> str:
        raise NotImplementedError

    def group(self, item) -> str:
        """The report group of *item* (retarget: cold or warm)."""
        return ""

    def record(self, item, output) -> dict:
        raise NotImplementedError

    def reference(self) -> dict:
        """The committed reference records, by item key."""
        if self._reference is None:
            self._reference = load_reference(self.reference_name)
        return self._reference

    def records(self, item, output) -> dict:
        """The records of one op, by reference key."""
        return {self.key(item): self.record(item, output)}

    def check(self, item, output) -> list[str]:
        problems = []
        for key, actual in self.records(item, output).items():
            label = "" if key == self.key(item) else f"{key}: "
            problems += [label + problem for problem in
                         diff_records(self.reference()[key], actual)]
        return problems

    def check_pass(self, outputs: list) -> list[str]:
        """Checks over a whole pass: (item, output) pairs."""
        return []

    def domain_count(self, item, output) -> int:
        """Work units of one checked op (packets, witnesses), if any."""
        return 0

    def warm_up(self) -> list[str]:
        """One untimed, checked op so first-call costs leave the loop."""
        item = self.pass_items()[0]
        self.prepare(item)
        return self.check(item, self.run(item))

    def close(self) -> None:
        """Remove whatever the workload wrote."""


# --------------------------------------------------------------------------
# conformance
# --------------------------------------------------------------------------


class Conformance(Workload):
    name = reference_name = "conformance"
    traced_passes = 10

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.models = {entry.name: build_model(entry.name)
                       for entry in CATALOG}
        self.suites = {name: suite_for(name) for name in self.models}

    def pass_items(self):
        # Cases of one model stay together: caches are cleared once per
        # model, as a fresh `repro verify <model>` would have them.
        names = sorted(self.models)
        self.rng.shuffle(names)
        items = []
        for name in names:
            cases = list(self.suites[name])
            self.rng.shuffle(cases)
            items.extend((name, case, index == 0)
                         for index, case in enumerate(cases))
        return items

    def prepare(self, item):
        if item[2]:
            clear_process_caches()

    def run(self, item):
        name, case, _ = item
        return check_conformance(self.models[name], [case])

    def key(self, item):
        return f"{item[0]}/{item[1].name}"

    def record(self, item, report):
        (case,) = report.cases
        return {
            "targets": list(report.target_names),
            "passed": [result.passed for result in case.results],
            "errors": [result.error for result in case.results],
            "failures": [len(result.failures) for result in case.results],
            "summaries_equal": case.summaries_equal,
        }


# --------------------------------------------------------------------------
# cosim
# --------------------------------------------------------------------------

PARTITIONS = ((), ("CE",), ("CE", "D"), ("CE", "CL", "D"))
LOADS_PER_MS = (40, 300)
CONGESTED_LOAD_PER_MS = 250
POLICIES = ("fifo", "priority", "round_robin")
PACKETS = 250
#: packet-arrival sets with committed references; the seed picks one
STIMULUS_SETS = 16


class _DispatchCounter:
    """Keeps the return value of ``CoSimMachine.run`` (its dispatches).

    ``measure_partition`` does not report dispatches, so the class's
    ``run`` is wrapped for the workload's lifetime; the wrapper adds one
    Python call per co-simulation.
    """

    def __init__(self):
        self.last = None
        self._original = CoSimMachine.__dict__["run"]
        original = self._original
        counter = self

        def run(machine, *args, **kwargs):
            counter.last = original(machine, *args, **kwargs)
            return counter.last

        CoSimMachine.run = run

    def close(self):
        CoSimMachine.run = self._original


def cosim_item_key(item) -> str:
    leg, load_or_policy, partition = item
    label = "+".join(partition) or "sw"
    return f"{leg}/{load_or_policy}/{label}"


class Cosim(Workload):
    name = reference_name = "cosim"
    traced_passes = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.model = build_model("packetproc")
        self.stimulus = seed % STIMULUS_SETS
        self.packets = {
            rate: poisson_packets(PACKETS, rate_per_ms=rate,
                                  seed=self.stimulus)
            for rate in (*LOADS_PER_MS, CONGESTED_LOAD_PER_MS)
        }
        self.dispatches = _DispatchCounter()

    def pass_items(self):
        items = [("e4", rate, partition)
                 for rate in LOADS_PER_MS for partition in PARTITIONS]
        items += [("e4b", policy, ("CE", "D")) for policy in POLICIES]
        self.rng.shuffle(items)
        return items

    def run(self, item):
        leg, load_or_policy, partition = item
        if leg == "e4":
            measurement = measure_partition(
                self.model, partition, self.packets[load_or_policy])
        else:
            # the E4b congested bus: arbitration does real work here
            config = CoSimConfig(bus_policy=load_or_policy,
                                 bus_arbitration_ns=2_000,
                                 bus_ns_per_byte=120.0)
            measurement = measure_partition(
                self.model, partition, self.packets[CONGESTED_LOAD_PER_MS],
                config=config)
        return measurement, self.dispatches.last

    def key(self, item):
        return cosim_item_key(item)

    def record(self, item, output):
        measurement, dispatches = output
        return {
            "offered": measurement.offered_packets,
            "completed": measurement.completed,
            "mean_latency_ns": measurement.mean_latency_ns,
            "p99_latency_ns": measurement.p99_latency_ns,
            "makespan_ns": measurement.makespan_ns,
            "bus_messages": measurement.bus_messages,
            "dispatches": dispatches,
        }

    def reference(self):
        return super().reference()[str(self.stimulus)]

    def domain_count(self, item, output):
        return output[0].completed

    def check_pass(self, outputs):
        return e4_shape_problems(
            {self.key(item): output[0] for item, output in outputs})

    def close(self):
        self.dispatches.close()


def e4_shape_problems(rows: dict) -> list[str]:
    """The E4/E4b shape: who wins and by roughly what factor."""
    problems = []

    def expect(condition: bool, text: str) -> None:
        if not condition:
            problems.append(f"shape: {text}")

    low, high = (
        {key.rsplit("/", 1)[1]: m for key, m in rows.items()
         if key.startswith(f"e4/{rate}/")}
        for rate in LOADS_PER_MS)
    for key, m in rows.items():
        expect(m.completed == m.offered_packets,
               f"{key} completed {m.completed} of {m.offered_packets}")
    expect(high["sw"].cpu_utilization > 0.95, "software saturates")
    expect(high["sw"].mean_latency_ns > 10 * low["sw"].mean_latency_ns,
           "software latency inflates >10x with load")
    expect(high["CE+D"].mean_latency_ns < 10 * low["CE+D"].mean_latency_ns,
           "offloaded latency stays flat")
    expect(high["sw"].mean_latency_ns > 5 * high["CE+D"].mean_latency_ns,
           "offload wins >5x at high load")
    winner = min(high.values(), key=lambda m: m.mean_latency_ns)
    expect("CE" in winner.hardware_classes, "high-load winner offloads CE")
    expect(high["sw"].mean_latency_ns / high["CE+CL+D"].mean_latency_ns
           > low["sw"].mean_latency_ns / low["CE+CL+D"].mean_latency_ns,
           "offload gap grows with load")
    policies = {key.split("/")[1]: m for key, m in rows.items()
                if key.startswith("e4b/")}
    expect(len({m.bus_messages for m in policies.values()}) == 1,
           "every arbitration policy moves the same messages")
    latencies = {policy: m.mean_latency_ns for policy, m in policies.items()}
    expect(max(latencies.values()) > 1.1 * min(latencies.values()),
           "arbitration policies differ measurably")
    expect(latencies["round_robin"] < latencies["priority"],
           "round robin beats fixed priority")
    return problems


# --------------------------------------------------------------------------
# retarget
# --------------------------------------------------------------------------


class Retarget(Workload):
    """Each pass builds the matrix cold into an empty store, then warm.

    The cold half writes the store; the warm half recompiles every job
    from it after the process memos are cleared again, like a second
    ``repro batch`` invocation over the same cache.  One store serves
    the whole run and is emptied with ``ArtifactStore.clear`` (untimed)
    before each cold half, as after a full cache eviction.  A new store
    directory per pass, removed at the end of the run, made cold builds
    10-35% slower and their p95 drift from run to run with the state of
    the disk.
    """

    name = reference_name = "retarget"
    traced_passes = 10

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.models = {entry.name: build_model(entry.name)
                       for entry in CATALOG}
        self.jobs = catalog_matrix()
        self.store = ArtifactStore(self.work_dir / "store")
        self.cold: dict = {}

    def pass_items(self):
        self.store.clear()
        self.cold = {}
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        # caches are cleared before the first build of each half: each
        # half is a new `repro batch` process
        return [(kind, job, index == 0)
                for kind in ("cold", "warm")
                for index, job in enumerate(jobs)]

    def prepare(self, item):
        if item[2]:
            clear_process_caches()

    def run(self, item):
        model = self.models[item[1].model]
        marks = marks_for_partition(model.components[0], item[1].hardware)
        return IncrementalCompiler(model, store=self.store).compile(marks)

    def key(self, item):
        return item[1].label

    def group(self, item):
        return item[0]

    def record(self, item, build):
        return {"artifacts_digest": artifacts_digest(build.artifacts)}

    def check(self, item, build):
        problems = super().check(item, build)
        kind, job, _ = item
        if kind == "cold":
            self.cold[job.label] = build.artifacts
        elif build.artifacts != self.cold.get(job.label):
            problems.append("warm artifacts differ from the cold build")
        return problems

    def close(self):
        shutil.rmtree(self.store.root, ignore_errors=True)


# --------------------------------------------------------------------------
# lint
# --------------------------------------------------------------------------


class Lint(Workload):
    """``repro lint`` defaults over the whole catalog as one op.

    One op lints the five models in seeded order, as one ``repro lint``
    invocation given the catalog would; the explorer keeps its own fixed
    seed.  The op is the catalog, not a model: per-model times run from
    0.1 to 6 s, so a run holds three or four of each, and a percentile
    over them jumps from one model to another between runs.
    """

    name = reference_name = "lint"
    traced_passes = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.models = {entry.name: build_model(entry.name)
                       for entry in CATALOG}

    def pass_items(self):
        names = sorted(self.models)
        self.rng.shuffle(names)
        return [tuple(names)]

    def prepare(self, names):
        clear_process_caches()

    def run(self, names):
        return {name: lint_model(self.models[name]) for name in names}

    def key(self, names):
        return "+".join(names)

    def records(self, names, reports):
        return {name: {
            "finding_keys": sorted(f.baseline_key for f in report.findings),
            "witnessed": len(report.witnessed),
            "errors": report.counts()["error"],
            "runs": report.runs_executed,
        } for name, report in reports.items()}

    def domain_count(self, names, reports):
        return sum(len(report.witnessed) for report in reports.values())

    def warm_up(self):
        # the cheapest model alone: the whole catalog would double set-up
        self.prepare(("checksum",))
        return self.check(("checksum",), self.run(("checksum",)))


WORKLOADS = {cls.name: cls for cls in (Conformance, Cosim, Retarget, Lint)}
