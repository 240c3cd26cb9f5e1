"""Partition derivation — from marks to a hardware/software split.

"At system construction time, the conceptual objects are mapped to
hardware and software" (paper section 4).  The split is decided solely by
``isHardware`` marks; everything else in the toolchain (generators,
interface spec, co-simulation) consumes the derived :class:`Partition`,
never the marks directly — so a partition change really is "a matter of
changing the placement of the marks".

The partition also computes the *boundary*: every (sender class, event)
pair whose receiver lives on the other side.  Boundary signals are what
the interface generator turns into bus messages with generated C and
VHDL endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from repro.exec import lower_component, walk_ir_generates
from repro.xuml.component import Component
from repro.xuml.model import Model

from .model import MarkSet


@dataclass(frozen=True, order=True)
class SignalFlow:
    """A statically discovered signal path: sender class -> receiver class."""

    sender_class: str
    receiver_class: str
    event_label: str

    def __str__(self) -> str:
        return f"{self.sender_class} --{self.event_label}--> {self.receiver_class}"


def flows_from_ir(bodies: Iterable[tuple[str, list]]) -> tuple[SignalFlow, ...]:
    """The sorted, distinct flows of ``(sender class key, lowered block)`` pairs.

    Every IR ``generate`` names its resolved receiving class, so the flows
    are read straight off the lowered bodies the executors run.
    """
    return tuple(sorted({
        SignalFlow(sender, stmt[2], stmt[1])
        for sender, block in bodies
        for stmt, _in_loop, _conditional in walk_ir_generates(block)
    }))


def signal_flows(model: Model, component: Component) -> tuple[SignalFlow, ...]:
    """All (sender, receiver, event) triples found in the component's actions.

    Read from every state activity and operation body in the component's
    cached lowering.  Environment injections are not included (they have
    no sending class).
    """
    lowered = lower_component(model, component)
    return flows_from_ir(
        (class_key, block)
        for (class_key, _name), block in chain(
            lowered.activities.items(), lowered.operations.items())
    )


@dataclass
class Partition:
    """The realized hardware/software split of one component."""

    component_name: str
    hardware_classes: tuple[str, ...]
    software_classes: tuple[str, ...]
    boundary_flows: tuple[SignalFlow, ...]
    internal_flows: tuple[SignalFlow, ...] = field(default_factory=tuple)

    def side_of(self, class_key: str) -> str:
        if class_key in self.hardware_classes:
            return "hw"
        if class_key in self.software_classes:
            return "sw"
        raise KeyError(f"class {class_key!r} is not in this partition")

    @property
    def is_pure_software(self) -> bool:
        return not self.hardware_classes

    @property
    def is_pure_hardware(self) -> bool:
        return not self.software_classes

    def describe(self) -> str:
        lines = [f"partition of component {self.component_name}:"]
        lines.append(f"  hardware: {', '.join(self.hardware_classes) or '(none)'}")
        lines.append(f"  software: {', '.join(self.software_classes) or '(none)'}")
        lines.append(f"  boundary signals: {len(self.boundary_flows)}")
        for flow in self.boundary_flows:
            lines.append(f"    {flow}")
        return "\n".join(lines)


def derive_partition(
    model: Model, component: Component, marks: MarkSet
) -> Partition:
    """Compute the partition the marks describe."""
    return partition_from_flows(
        component, marks, signal_flows(model, component))


def partition_from_flows(
    component: Component, marks: MarkSet, flows: tuple[SignalFlow, ...]
) -> Partition:
    """Derive the partition from marks and precomputed signal flows.

    The flows depend only on the model, not the marks, so the compilers
    read them from the build manifest (``ComponentManifest.flows``) and
    every retarget only re-splits them here.
    """
    hardware: list[str] = []
    software: list[str] = []
    for klass in component.classes:
        path = f"{component.name}.{klass.key_letters}"
        if marks.get(path, "isHardware"):
            hardware.append(klass.key_letters)
        else:
            software.append(klass.key_letters)
    side = {key: "hw" for key in hardware}
    side.update({key: "sw" for key in software})
    boundary = tuple(
        flow for flow in flows
        if side[flow.sender_class] != side[flow.receiver_class]
    )
    internal = tuple(
        flow for flow in flows
        if side[flow.sender_class] == side[flow.receiver_class]
    )
    return Partition(
        component.name, tuple(hardware), tuple(software), boundary, internal
    )


def all_partitions(component: Component) -> tuple[tuple[str, ...], ...]:
    """Every possible hardware subset of the component's classes.

    Used by the E4 sweep; for k classes this is 2^k candidate partitions,
    ordered by (size, lexicographic) for reproducible sweeps.
    """
    keys = sorted(component.class_keys)
    subsets: list[tuple[str, ...]] = []
    for bits in range(1 << len(keys)):
        subset = tuple(keys[i] for i in range(len(keys)) if bits & (1 << i))
        subsets.append(subset)
    subsets.sort(key=lambda s: (len(s), s))
    return tuple(subsets)


def marks_for_partition(
    component: Component, hardware_classes: tuple[str, ...],
    base: MarkSet | None = None,
) -> MarkSet:
    """Produce the mark set that realizes *hardware_classes*.

    Starts from *base* (default: empty standard-vocabulary set) and sets
    ``isHardware`` explicitly on every class — the generated marking file
    is the complete, reviewable record of the partition decision.
    """
    marks = base.copy() if base is not None else MarkSet()
    for key in component.class_keys:
        path = f"{component.name}.{key}"
        marks.set(path, "isHardware", key in hardware_classes)
    return marks
