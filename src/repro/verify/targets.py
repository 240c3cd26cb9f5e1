"""Execution targets — one protocol over every platform.

A :class:`Target` adapts one execution platform (the abstract model
runtime, the generated-C architecture, the generated-VHDL architecture)
to the uniform surface the test runner drives.  The point of the
adapter being thin is the point of the whole profile: the platforms
already agree on population, signals and time because the compiler
preserved the defined behaviour.
"""

from __future__ import annotations

from repro.cosim.config import CoSimConfig
from repro.cosim.engine import US_TO_NS, CoSimMachine
from repro.cosim.faults import FaultPlan
from repro.marks.partition import marks_for_partition
from repro.mda.compiler import Build, ModelCompiler
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.runtime.scheduler import Scheduler
from repro.runtime.simulator import Simulation
from repro.xuml.model import Model


class Target:
    """Uniform driving surface over one platform instance."""

    name = "target"

    def __init__(self, engine):
        self._engine = engine

    # population
    def create_instance(self, class_key: str, **attributes) -> int:
        return self._engine.create_instance(class_key, **attributes)

    def relate(self, left: int, right: int, association: str, phrase=None):
        return self._engine.relate(left, right, association, phrase)

    def instances_of(self, class_key: str):
        return self._engine.instances_of(class_key)

    # stimulus
    def inject(self, handle: int, label: str, params=None, delay_us: int = 0):
        return self._engine.inject(handle, label, params, delay=delay_us)

    def send_creation(self, class_key: str, label: str, params=None):
        return self._engine.send_creation(class_key, label, params)

    # execution
    def run_to_quiescence(self, max_steps: int = 1_000_000):
        return self._engine.run_to_quiescence(max_steps)

    def run_until(self, time_us: int):
        return self._engine.run_until(time_us)

    # observation
    def state_of(self, handle: int):
        return self._engine.state_of(handle)

    def read_attribute(self, handle: int, name: str):
        return self._engine.read_attribute(handle, name)

    @property
    def trace(self):
        return self._engine.trace

    @property
    def engine(self):
        return self._engine


class AbstractTarget(Target):
    """The model itself, executed by :class:`repro.runtime.Simulation`."""

    name = "abstract-model"

    def __init__(self, model: Model, scheduler: Scheduler | None = None):
        super().__init__(Simulation(model, scheduler=scheduler))
        if scheduler is not None:
            self.name = f"abstract-model/{scheduler.name}"


class CSimTarget(Target):
    """The generated C, executed by the single-task kernel semantics."""

    name = "generated-c"

    def __init__(self, build: Build):
        super().__init__(CSoftwareMachine(build.manifest))


class VSimTarget(Target):
    """The generated VHDL, executed by the clocked FSM semantics."""

    name = "generated-vhdl"

    def __init__(self, build: Build, clock_mhz: int = 100):
        super().__init__(VHardwareMachine(build.manifest, clock_mhz))


#: Sim-time budget of one :meth:`CoSimTarget.run_to_quiescence` call.
QUIESCENCE_BUDGET_US = 3_600 * 1_000_000


class CoSimTarget(Target):
    """The timed co-simulation platform, optionally under fault injection.

    ``run_to_quiescence`` gives each run step a bounded *sim-time*
    budget (:data:`QUIESCENCE_BUDGET_US`) instead of running to true
    quiescence: a corrupted parameter can legally ask for an absurdly
    long behaviour (a four-billion second cook), and chaos runs must
    terminate anyway.  The budget is generous enough that every
    fault-free suite finishes unchanged.
    """

    name = "cosim"

    def __init__(self, build: Build, config: CoSimConfig | None = None,
                 fault_plan: FaultPlan | None = None):
        super().__init__(CoSimMachine(build, config, fault_plan))
        if fault_plan is not None:
            self.name = "cosim/faulted"

    def run_to_quiescence(self, max_steps: int = 1_000_000):
        machine = self._engine
        horizon_us = machine.now // US_TO_NS + QUIESCENCE_BUDGET_US
        return machine.run(horizon_us=horizon_us, max_dispatches=max_steps)

    def run_until(self, time_us: int):
        return self._engine.run(horizon_us=time_us)


def standard_builds(model: Model) -> tuple[Build, Build]:
    """The all-software and the all-hardware build of *model* (E3).

    Each architecture then executes *every* class, which is the
    strongest conformance statement a single target can make.
    """
    component = model.components[0]
    compiler = ModelCompiler(model)
    return (
        compiler.compile(marks_for_partition(component, ())),
        compiler.compile(
            marks_for_partition(component, tuple(component.class_keys))),
    )


def standard_targets(model: Model, sw_build: Build,
                     hw_build: Build) -> list[Target]:
    """Fresh instances of the three platforms every model is verified on.

    The C target runs *sw_build* and the VHDL target *hw_build*, as
    :func:`standard_builds` returns them.  Builds are read-only, so one
    pair serves any number of cases.
    """
    return [
        AbstractTarget(model),
        CSimTarget(sw_build),
        VSimTarget(hw_build),
    ]
