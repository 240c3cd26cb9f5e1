"""Target-architecture runtime — executes what the compiler emitted.

The abstract runtime (:mod:`repro.runtime`) executes the *model*.  This
module executes the *build manifest*: the lowered IR, state tables and
attribute layouts the generators printed as C and VHDL.  The C and VHDL
architecture simulators (:mod:`repro.mda.csim`, :mod:`repro.mda.vsim`)
subclass :class:`TargetMachine` and supply only their dispatch
discipline; everything they run comes from the manifest, so an emitter
that lowers wrongly fails conformance (experiment E3) instead of slipping
through.

Value semantics (C integer division, handle numbering, attribute
defaults) are kept identical to the abstract runtime on purpose: the
profile promises the model means the same thing before and after
translation.
"""

from __future__ import annotations

from collections import defaultdict

from repro.exec import IRExecutor
from repro.runtime.events import EventPool, SignalInstance
from repro.runtime.tracing import Trace, TraceKind

from .manifest import ClassManifest, ComponentManifest


class ArchError(Exception):
    """Target-architecture execution failure."""


class TargetMachine:
    """Manifest executor with pluggable dispatch (see csim/vsim).

    The machine mirrors the :class:`repro.runtime.Simulation` surface
    closely enough that verification test cases can drive either through
    one adapter.  Action semantics live entirely in the shared execution
    core (:mod:`repro.exec`); this class supplies only storage, links,
    signal queues and dispatch discipline.
    """

    def __init__(self, manifest: ComponentManifest):
        self.manifest = manifest
        self.trace = Trace()
        self.pool = EventPool()
        self.now = 0                       # architecture-specific unit
        self.loop_bound = 100_000
        self.cant_happen_count = 0
        # the executor keeps a private compiled table: the manifest cannot
        # own one, since it is pickled into the artifact store
        self.executor = IRExecutor(self, error=ArchError,
                                   selection_error=ArchError)
        self.log_lines: list[tuple[int, str]] = []
        self.metrics: dict[str, list[tuple[int, float]]] = {}
        self._next_handle = 1
        self._next_sequence = 1
        self._next_activity = 1
        self._activity_stack: list[int] = []
        #: class key -> handle -> {attr: value}
        self._data: dict[str, dict[int, dict[str, object]]] = {
            key: {} for key in manifest.classes
        }
        self._state: dict[int, str] = {}
        self._class_of: dict[int, str] = {}
        #: assoc -> phrase -> handle -> set(handles)
        self._links: dict[str, dict[str, dict[int, set[int]]]] = {}
        for number, (one, other, _link) in manifest.associations.items():
            self._links[number] = {
                one[1]: defaultdict(set),
                other[1]: defaultdict(set),
            }

    @property
    def execution_core(self) -> str:
        """Which execution core serves this machine's actions."""
        from repro.exec import CORE_NAME

        return f"{CORE_NAME} (lowered action IR)"

    @property
    def ops_executed(self) -> int:
        """Dynamically executed IR statements (shared-core counter)."""
        return self.executor.ops_executed

    # -- population ---------------------------------------------------------

    def create_instance(self, class_key: str, **attribute_values) -> int:
        klass = self._klass(class_key)
        handle = self._next_handle
        self._next_handle += 1
        data = {name: default for name, _tag, default in klass.attributes}
        data.update(attribute_values)
        self._data[class_key][handle] = data
        self._class_of[handle] = class_key
        if klass.is_active:
            self._state[handle] = klass.initial_state
        self.trace.record(
            self.now, TraceKind.INSTANCE_CREATED,
            handle=handle, class_key=class_key,
            state=self._state.get(handle),
        )
        return handle

    def delete_instance(self, handle: int) -> None:
        class_key = self.class_of(handle)
        del self._data[class_key][handle]
        del self._class_of[handle]
        self._state.pop(handle, None)
        for by_phrase in self._links.values():
            for table in by_phrase.values():
                table.pop(handle, None)
                for peers in table.values():
                    peers.discard(handle)
        dropped = self.pool.drop_instance(handle)
        self.trace.record(
            self.now, TraceKind.INSTANCE_DELETED,
            handle=handle, class_key=class_key, pending_dropped=dropped,
        )

    def class_of(self, handle: int) -> str:
        try:
            return self._class_of[handle]
        except KeyError:
            raise ArchError(f"no live instance #{handle}") from None

    def instances_of(self, class_key: str) -> tuple[int, ...]:
        return tuple(sorted(self._data[self._klass(class_key).key]))

    def state_of(self, handle: int) -> str | None:
        self.class_of(handle)
        return self._state.get(handle)

    def read_attribute(self, handle: int, name: str):
        class_key = self.class_of(handle)
        klass = self._klass(class_key)
        if name in klass.derived:
            return self.executor.run(klass.derived[name], handle, {})
        data = self._data[class_key][handle]
        if name not in data:
            raise ArchError(f"{class_key}#{handle} has no attribute {name!r}")
        return data[name]

    def write_attribute(self, handle: int, name: str, value) -> None:
        class_key = self.class_of(handle)
        data = self._data[class_key][handle]
        if name not in data:
            raise ArchError(f"{class_key}#{handle} has no attribute {name!r}")
        data[name] = value

    def _klass(self, class_key: str) -> ClassManifest:
        try:
            return self.manifest.classes[class_key]
        except KeyError:
            raise ArchError(f"manifest has no class {class_key!r}") from None

    # -- links ---------------------------------------------------------------

    def _ends(self, number: str):
        one, other, _link = self.manifest.associations[number]
        return one, other   # (class, phrase, mult)

    def relate(self, left: int, right: int, number: str, phrase=None) -> None:
        left_end, right_end = self._resolve_ends(left, right, number, phrase)
        forward = self._links[number][right_end[1]]
        backward = self._links[number][left_end[1]]
        if right in forward[left]:
            return
        if right_end[2] in ("1", "0..1") and forward[left]:
            raise ArchError(f"{number}: multiplicity overflow at {left}")
        if left_end[2] in ("1", "0..1") and backward[right]:
            raise ArchError(f"{number}: multiplicity overflow at {right}")
        forward[left].add(right)
        backward[right].add(left)

    def unrelate(self, left: int, right: int, number: str, phrase=None) -> None:
        left_end, right_end = self._resolve_ends(left, right, number, phrase)
        forward = self._links[number][right_end[1]]
        backward = self._links[number][left_end[1]]
        if right not in forward[left]:
            raise ArchError(f"{number}: {left} and {right} are not related")
        forward[left].discard(right)
        backward[right].discard(left)

    def _resolve_ends(self, left, right, number, phrase):
        one, other, _link = self.manifest.associations[number]
        left_class = self.class_of(left)
        right_class = self.class_of(right)
        reflexive = one[0] == other[0]
        if reflexive:
            if phrase is None:
                raise ArchError(f"{number} is reflexive; phrase required")
            right_end = one if one[1] == phrase else other
            left_end = other if right_end is one else one
            return left_end, right_end
        if one[0] == right_class:
            right_end, left_end = one, other
        elif other[0] == right_class:
            right_end, left_end = other, one
        else:
            raise ArchError(f"{number}: {right_class} does not participate")
        if left_end[0] != left_class:
            raise ArchError(f"{number}: {left_class} does not participate")
        return left_end, right_end

    def navigate(self, handle: int, number: str, to_class: str,
                 phrase=None) -> tuple[int, ...]:
        one, other, _link = self.manifest.associations[number]
        candidates = [end for end in (one, other) if end[0] == to_class]
        if not candidates:
            raise ArchError(f"{number}: {to_class} does not participate")
        if len(candidates) == 2:
            if phrase is None:
                raise ArchError(f"{number} is reflexive; phrase required")
            candidates = [end for end in candidates if end[1] == phrase]
        elif phrase is not None:
            candidates = [end for end in candidates if end[1] == phrase]
            if not candidates:
                raise ArchError(f"{number}: no {to_class} end phrased {phrase!r}")
        to_end = candidates[0]
        table = self._links[number][to_end[1]]
        return tuple(sorted(table.get(handle, ())))

    # -- signals ----------------------------------------------------------------

    def _stamp(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    @property
    def _current_activity(self) -> int:
        return self._activity_stack[-1] if self._activity_stack else 0

    def send_signal(self, target: int, class_key: str, label: str,
                    params=None, sender=None, delay: int = 0) -> SignalInstance:
        signal = SignalInstance(
            sequence=self._stamp(), label=label, class_key=class_key,
            params=dict(params or {}), target_handle=target,
            sender_handle=sender, activity_id=self._current_activity,
            sent_at=self.now,
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_SENT,
            sequence=signal.sequence, label=label, target=target,
            sender=sender, activity=signal.activity_id, delay=delay,
        )
        self._enqueue(signal, delay)
        return signal

    def send_creation(self, class_key: str, label: str, params=None,
                      sender=None, delay: int = 0) -> SignalInstance:
        klass = self._klass(class_key)
        if not klass.events[label].creation:
            raise ArchError(f"{class_key}.{label} is not a creation event")
        signal = SignalInstance(
            sequence=self._stamp(), label=label, class_key=class_key,
            params=dict(params or {}), target_handle=None,
            sender_handle=sender, activity_id=self._current_activity,
            sent_at=self.now, is_creation=True,
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_SENT,
            sequence=signal.sequence, label=label, target=None,
            sender=sender, activity=signal.activity_id, delay=delay,
        )
        self._enqueue(signal, delay)
        return signal

    def inject(self, target: int, label: str, params=None, delay: int = 0):
        return self.send_signal(
            target, self.class_of(target), label, params, sender=None,
            delay=delay,
        )

    def _enqueue(self, signal: SignalInstance, delay: int) -> None:
        """Architecture hook: csim queues immediately, vsim clocks delays."""
        if delay > 0:
            self.pool.push_delayed(signal, self.now + self.scale_delay(delay))
        else:
            self.pool.push_ready(signal)

    def scale_delay(self, delay: int) -> int:
        """Convert a model-time delay into this architecture's time unit."""
        return delay

    # -- dispatch core -------------------------------------------------------------

    def dispatch(self, signal: SignalInstance) -> None:
        if signal.is_creation:
            self._dispatch_creation(signal)
            return
        handle = signal.target_handle
        if handle not in self._class_of:
            self.trace.record(
                self.now, TraceKind.SIGNAL_IGNORED,
                sequence=signal.sequence, label=signal.label, target=handle,
                reason="target deleted",
            )
            return
        klass = self._klass(signal.class_key)
        state = self._state[handle]
        response = klass.response(state, signal.label)
        if response == "ignore":
            self.trace.record(
                self.now, TraceKind.SIGNAL_IGNORED,
                sequence=signal.sequence, label=signal.label, target=handle,
                reason="ignored",
            )
            return
        if response == "cant_happen":
            self.cant_happen_count += 1
            raise ArchError(
                f"event {signal.label} can't happen in state {state} of "
                f"{signal.class_key}#{handle}"
            )
        to_state = klass.transitions[(state, signal.label)]
        self.trace.record(
            self.now, TraceKind.SIGNAL_CONSUMED,
            sequence=signal.sequence, label=signal.label, target=handle,
            sender=signal.sender_handle, sent_activity=signal.activity_id,
        )
        self._state[handle] = to_state
        self.trace.record(
            self.now, TraceKind.TRANSITION,
            handle=handle, class_key=signal.class_key,
            from_state=state, to_state=to_state, label=signal.label,
        )
        self._run_activity(klass, handle, to_state, signal)

    def _dispatch_creation(self, signal: SignalInstance) -> None:
        klass = self._klass(signal.class_key)
        to_state = klass.creations[signal.label]
        handle = self.create_instance(signal.class_key)
        self.trace.record(
            self.now, TraceKind.SIGNAL_CONSUMED,
            sequence=signal.sequence, label=signal.label, target=handle,
            sender=signal.sender_handle, sent_activity=signal.activity_id,
        )
        self._state[handle] = to_state
        self.trace.record(
            self.now, TraceKind.TRANSITION,
            handle=handle, class_key=signal.class_key,
            from_state=None, to_state=to_state, label=signal.label,
        )
        self._run_activity(klass, handle, to_state, signal)

    def _run_activity(self, klass: ClassManifest, handle: int,
                      state: str, signal: SignalInstance) -> None:
        activity_id = self._next_activity
        self._next_activity += 1
        self.trace.record(
            self.now, TraceKind.ACTIVITY_START,
            activity=activity_id, handle=handle, class_key=klass.key,
            state=state, consumed_sequence=signal.sequence,
        )
        self._activity_stack.append(activity_id)
        try:
            self.executor.run(klass.activities[state], handle, signal.params)
        finally:
            self._activity_stack.pop()
            self.trace.record(
                self.now, TraceKind.ACTIVITY_END,
                activity=activity_id, handle=handle, class_key=klass.key,
                state=state,
            )

    # -- bridges and operations ------------------------------------------------------

    def call_bridge(self, self_handle, entity: str, operation: str, kwargs):
        self.trace.record(
            self.now, TraceKind.BRIDGE_CALL,
            entity=entity, operation=operation, handle=self_handle,
        )
        if entity == "LOG" and operation == "info":
            self.log_lines.append((self.now, str(kwargs.get("message", ""))))
            return None
        if entity == "LOG" and operation == "metric":
            self.metrics.setdefault(str(kwargs.get("name", "")), []).append(
                (self.now, float(kwargs.get("value", 0.0))))
            return None
        if entity == "TIM" and operation == "current_time":
            return self.now
        if entity == "TIM" and operation == "timer_start":
            class_key = self.class_of(self_handle)
            self.send_signal(
                self_handle, class_key, str(kwargs.get("event", "")),
                sender=self_handle, delay=int(kwargs.get("duration", 0)),
            )
            return 0
        if entity == "TIM" and operation == "timer_cancel":
            label = str(kwargs.get("event", ""))
            return self.pool.cancel_delayed(
                lambda s: s.target_handle == self_handle and s.label == label
            )
        raise ArchError(f"no architecture bridge for {entity}::{operation}")

    def call_operation(self, class_key: str, name: str, self_handle, kwargs):
        klass = self._klass(class_key)
        operation = klass.operations[name]
        return self.executor.run(operation.ir, self_handle, kwargs)

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        return self.call_operation(class_key, name, None, kwargs)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        return self.call_operation(self.class_of(handle), name, handle, kwargs)
