"""The model executor.

:class:`Simulation` runs one component of a model exactly by the paper's
rules: concurrently executing instance state machines, signal-only
communication, and run-to-completion action execution — "a model can be
executed independent of implementation" (section 2).

One :meth:`step` dispatches one signal: the scheduler picks a ready
source, the target's state table answers TRANSITION / IGNORE /
CANT_HAPPEN, and on a transition the destination state's activity runs to
completion (possibly generating further signals, creating and deleting
instances, starting timers) before any other signal is consumed.

For the E6 ablation the simulator also supports ``eager_dispatch=True``,
which *breaks* run-to-completion on purpose by delivering generated
signals immediately, mid-activity — the causality checker then shows
exactly the cause-and-effect violations the paper's rules exist to
prevent.
"""

from __future__ import annotations

from repro.exec import IRExecutor, LoweredComponent, lower_component
from repro.obs.metrics import active_registry
from repro.oal.errors import OALRuntimeError
from repro.xuml.component import Component
from repro.xuml.model import Model
from repro.xuml.statemachine import EventResponse

from .bridges import BridgeContext, BridgeRegistry
from .errors import CantHappenError, SelectionError, SimulationError
from .events import EventPool, SignalInstance
from .instances import Instance, Population
from .links import LinkStore
from .scheduler import CREATION, Scheduler, SynchronousScheduler
from .tracing import Trace, TraceKind


class Simulation:
    """Executable instance of one model component.

    Parameters
    ----------
    model:
        A well-formed model.
    component:
        Component name; defaults to the model's only component.
    scheduler:
        Dispatch policy (default: :class:`SynchronousScheduler`).
    cant_happen:
        ``"error"`` (raise, the default) or ``"record"`` (count and go on).
    eager_dispatch:
        Ablation switch: deliver generated signals immediately instead of
        queueing them (violates run-to-completion; see E6).
    self_priority:
        Ablation switch: ``False`` disables the self-directed-events-
        first queue rule (plain FIFO per instance; see E6).
    """

    def __init__(
        self,
        model: Model,
        component: str | None = None,
        scheduler: Scheduler | None = None,
        cant_happen: str = "error",
        eager_dispatch: bool = False,
        self_priority: bool = True,
    ):
        self.model = model
        if component is None:
            components = model.components
            if len(components) != 1:
                raise SimulationError(
                    "model has several components; name one explicitly"
                )
            self.component: Component = components[0]
        else:
            self.component = model.component(component)
        self.scheduler = scheduler or SynchronousScheduler()
        self.trace = Trace()
        self.bridges = BridgeRegistry()
        self.pool = EventPool(self_priority)
        self.links = LinkStore(self.component)
        self.loop_bound = 100_000
        self.cant_happen_policy = cant_happen
        self.cant_happen_count = 0
        self.eager_dispatch = eager_dispatch

        self.now = 0
        self._next_handle = 1
        self._next_sequence = 1
        self._next_activity = 1
        self._next_timer = 1
        self._activity_stack: list[int] = []
        self._populations: dict[str, Population] = {
            klass.key_letters: Population(klass) for klass in self.component.classes
        }
        # every live instance by handle (handles are unique across classes)
        self._instances: dict[int, Instance] = {}
        # (entity, operation) pairs already checked against the component
        self._known_bridges: set[tuple[str, str]] = set()
        # One lowering per model content (fingerprint-cached), one shared
        # evaluator: the abstract runtime executes literally the same IR
        # through literally the same code as csim and vsim.  The lowering
        # owns the compiled closures, so each body compiles once per model.
        self._lowered: LoweredComponent = lower_component(model, self.component)
        self._exec = IRExecutor(
            self, error=OALRuntimeError, selection_error=SelectionError,
            compiled=self._lowered.compiled,
        )

        # observability: bind metrics once at construction; when no
        # registry is active every hook is one `is not None` test
        registry = active_registry()
        if registry is None:
            self._metric_dispatches = None
            self._metric_queue_depth = None
            self._metric_wait = None
        else:
            self._metric_dispatches = registry.counter("runtime.dispatches")
            self._metric_queue_depth = registry.histogram(
                "runtime.queue_depth")
            self._metric_wait = registry.histogram("runtime.dispatch_wait_us")

    # -- execution core ----------------------------------------------------------

    @property
    def execution_core(self) -> str:
        """Which execution core serves this simulation's actions."""
        from repro.exec import CORE_NAME

        return f"{CORE_NAME} (lowered action IR)"

    @property
    def ops_executed(self) -> int:
        """Dynamically executed IR statements (shared-core counter)."""
        return self._exec.ops_executed

    # -- population --------------------------------------------------------------

    def population(self, class_key: str) -> Population:
        try:
            return self._populations[class_key]
        except KeyError:
            raise SimulationError(f"no class {class_key!r} in component") from None

    def create_instance(self, class_key: str, **attribute_values) -> int:
        population = self.population(class_key)
        handle = self._next_handle
        self._next_handle += 1
        instance = population.create(handle)
        self._instances[handle] = instance
        for name, value in attribute_values.items():
            instance.set(name, value)
        self.trace.record(
            self.now, TraceKind.INSTANCE_CREATED,
            handle=handle, class_key=class_key, state=instance.current_state,
        )
        return handle

    def delete_instance(self, handle: int) -> None:
        instance = self.instance(handle)
        self.population(instance.class_key).delete(handle)
        del self._instances[handle]
        self.links.drop_instance(handle)
        dropped = self.pool.drop_instance(handle)
        self.trace.record(
            self.now, TraceKind.INSTANCE_DELETED,
            handle=handle, class_key=instance.class_key, pending_dropped=dropped,
        )

    def instance(self, handle: int) -> Instance:
        try:
            return self._instances[handle]
        except KeyError:
            raise SimulationError(f"no live instance #{handle}") from None

    def class_of(self, handle: int) -> str:
        return self.instance(handle).class_key

    def instances_of(self, class_key: str) -> tuple[int, ...]:
        return tuple(sorted(i.handle for i in self.population(class_key)))

    def state_of(self, handle: int) -> str | None:
        return self.instance(handle).current_state

    # -- attributes ----------------------------------------------------------------

    def read_attribute(self, handle: int, name: str):
        instance = self.instance(handle)
        klass = self.component.klass(instance.class_key)
        attribute = klass.attribute(name)
        if attribute.derived is not None:
            ir = self._lowered.derived[(instance.class_key, name)]
            return self._exec.run(ir, handle, {})
        return instance.get(name)

    def write_attribute(self, handle: int, name: str, value) -> None:
        self.instance(handle).set(name, value)

    # -- links ------------------------------------------------------------------------

    def relate(self, left: int, right: int, association_number: str, phrase=None):
        association = self.component.association(association_number)
        self.links.relate(
            association,
            left, self.class_of(left),
            right, self.class_of(right),
            phrase,
        )

    def unrelate(self, left: int, right: int, association_number: str, phrase=None):
        association = self.component.association(association_number)
        self.links.unrelate(
            association,
            left, self.class_of(left),
            right, self.class_of(right),
            phrase,
        )

    def navigate(
        self, handle: int, association_number: str, to_class: str, phrase=None
    ) -> tuple[int, ...]:
        association = self.component.association(association_number)
        return self.links.navigate(
            association, handle, self.class_of(handle), to_class, phrase
        )

    def referential_violations(self) -> list[str]:
        populations = {
            key: [i.handle for i in population]
            for key, population in self._populations.items()
        }
        return self.links.integrity_violations(populations)

    # -- signals ---------------------------------------------------------------------

    def _stamp(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    @property
    def _current_activity(self) -> int:
        return self._activity_stack[-1] if self._activity_stack else 0

    def send_signal(
        self,
        target: int,
        class_key: str,
        label: str,
        params: dict | None = None,
        sender: int | None = None,
        delay: int = 0,
    ) -> SignalInstance:
        """Queue (or, with delay, schedule) a signal to a live instance."""
        klass = self.component.klass(class_key)
        klass.event(label)  # validates the label
        signal = SignalInstance(
            sequence=self._stamp(),
            label=label,
            class_key=class_key,
            params=dict(params or {}),
            target_handle=target,
            sender_handle=sender,
            activity_id=self._current_activity,
            sent_at=self.now,
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_SENT,
            sequence=signal.sequence, label=label, target=target,
            sender=sender, activity=signal.activity_id, delay=delay,
        )
        if delay > 0:
            self.pool.push_delayed(signal, self.now + delay)
        elif self.eager_dispatch and self._activity_stack:
            # ablation: break run-to-completion by delivering immediately
            self._dispatch(signal)
        else:
            self.pool.push_ready(signal)
        return signal

    def send_creation(
        self,
        class_key: str,
        label: str,
        params: dict | None = None,
        sender: int | None = None,
        delay: int = 0,
    ) -> SignalInstance:
        """Queue a creation event: the instance is born when it dispatches."""
        klass = self.component.klass(class_key)
        event = klass.event(label)
        if not event.creation:
            raise SimulationError(f"{class_key}.{label} is not a creation event")
        signal = SignalInstance(
            sequence=self._stamp(),
            label=label,
            class_key=class_key,
            params=dict(params or {}),
            target_handle=None,
            sender_handle=sender,
            activity_id=self._current_activity,
            sent_at=self.now,
            is_creation=True,
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_SENT,
            sequence=signal.sequence, label=label, target=None,
            sender=sender, activity=signal.activity_id, delay=delay,
        )
        if delay > 0:
            self.pool.push_delayed(signal, self.now + delay)
        else:
            self.pool.push_ready(signal)
        return signal

    def inject(self, target: int, label: str, params: dict | None = None, delay: int = 0):
        """Send a signal from the environment (test benches, stimuli)."""
        return self.send_signal(
            target, self.class_of(target), label, params, sender=None, delay=delay
        )

    # -- timers -----------------------------------------------------------------------

    def schedule_timer(
        self, handle: int, class_key: str, label: str, duration: int
    ) -> int:
        klass = self.component.klass(class_key)
        klass.event(label)  # validates
        timer_id = self._next_timer
        self._next_timer += 1
        signal = SignalInstance(
            sequence=self._stamp(),
            label=label,
            class_key=class_key,
            params={},
            target_handle=handle,
            sender_handle=handle,   # timers deliver back to the requester
            activity_id=self._current_activity,
            sent_at=self.now,
        )
        self.pool.push_delayed(signal, self.now + max(0, duration))
        self.trace.record(
            self.now, TraceKind.TIMER_SET,
            timer=timer_id, handle=handle, label=label, duration=duration,
        )
        return timer_id

    def cancel_timer(self, handle: int, label: str) -> int:
        return self.pool.cancel_delayed(
            lambda s: s.target_handle == handle and s.label == label
        )

    # -- bridges and operations ----------------------------------------------------------

    def call_bridge(self, self_handle, entity: str, operation: str, kwargs: dict):
        if (entity, operation) not in self._known_bridges:
            self.component.external(entity).bridge(operation)  # validates
            self._known_bridges.add((entity, operation))
        class_key = self.class_of(self_handle) if self_handle is not None else None
        context = BridgeContext(self, self_handle, class_key)
        self.trace.record(
            self.now, TraceKind.BRIDGE_CALL,
            entity=entity, operation=operation, handle=self_handle,
        )
        return self.bridges.call(context, entity, operation, **kwargs)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        class_key = self.class_of(handle)
        ir = self._lowered.operations[(class_key, name)]
        return self._exec.run(ir, handle, kwargs)

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        ir = self._lowered.operations[(class_key, name)]
        return self._exec.run(ir, None, kwargs)

    # -- dispatch -----------------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch one ready signal.  Returns False when nothing is ready."""
        self.pool.release_due(self.now)
        source = self.scheduler.choose(self.pool)
        if source is None:
            return False
        if self._metric_dispatches is not None:
            self._metric_dispatches.inc()
            self._metric_queue_depth.observe(self.pool.ready_count)
        if source == CREATION:
            signal = self.pool.pop_creation()
        else:
            signal = self.pool.pop_for(source)
        if self._metric_wait is not None:
            self._metric_wait.observe(self.now - signal.sent_at)
        self._dispatch(signal)
        return True

    def _dispatch(self, signal: SignalInstance) -> None:
        if signal.is_creation:
            self._dispatch_creation(signal)
            return
        handle = signal.target_handle
        instance = self._instances.get(handle)
        if instance is None or instance.class_key != signal.class_key:
            # target died while the signal was in flight: drop it
            self.trace.record(
                self.now, TraceKind.SIGNAL_IGNORED,
                sequence=signal.sequence, label=signal.label, target=handle,
                reason="target deleted",
            )
            return
        klass = self.component.klass(signal.class_key)
        response = klass.statemachine.response_to(instance.current_state, signal.label)
        if response is EventResponse.IGNORE:
            self.trace.record(
                self.now, TraceKind.SIGNAL_IGNORED,
                sequence=signal.sequence, label=signal.label, target=handle,
                reason="ignored",
            )
            return
        if response is EventResponse.CANT_HAPPEN:
            self.cant_happen_count += 1
            message = (
                f"event {signal.label} can't happen in state "
                f"{instance.current_state} of {signal.class_key}#{handle}"
            )
            if self.cant_happen_policy == "error":
                raise CantHappenError(message)
            self.trace.record(
                self.now, TraceKind.SIGNAL_IGNORED,
                sequence=signal.sequence, label=signal.label, target=handle,
                reason="cant_happen",
            )
            return
        transition = klass.statemachine.transition_for(
            instance.current_state, signal.label
        )
        self.trace.record(
            self.now, TraceKind.SIGNAL_CONSUMED,
            sequence=signal.sequence, label=signal.label, target=handle,
            sender=signal.sender_handle, sent_activity=signal.activity_id,
        )
        old_state = instance.current_state
        instance.current_state = transition.to_state
        self.trace.record(
            self.now, TraceKind.TRANSITION,
            handle=handle, class_key=signal.class_key,
            from_state=old_state, to_state=transition.to_state,
            label=signal.label,
        )
        self._run_state_activity(instance, transition.to_state, signal)

    def _dispatch_creation(self, signal: SignalInstance) -> None:
        klass = self.component.klass(signal.class_key)
        creation = klass.statemachine.creation_transition_for(signal.label)
        if creation is None:
            raise SimulationError(
                f"no creation transition for {signal.class_key}.{signal.label}"
            )
        handle = self.create_instance(signal.class_key)
        instance = self.instance(handle)
        self.trace.record(
            self.now, TraceKind.SIGNAL_CONSUMED,
            sequence=signal.sequence, label=signal.label, target=handle,
            sender=signal.sender_handle, sent_activity=signal.activity_id,
        )
        instance.current_state = creation.to_state
        self.trace.record(
            self.now, TraceKind.TRANSITION,
            handle=handle, class_key=signal.class_key,
            from_state=None, to_state=creation.to_state, label=signal.label,
        )
        self._run_state_activity(instance, creation.to_state, signal)

    def _run_state_activity(
        self, instance: Instance, state_name: str, signal: SignalInstance
    ) -> None:
        key = (instance.class_key, state_name)
        activity_id = self._next_activity
        self._next_activity += 1
        self.trace.record(
            self.now, TraceKind.ACTIVITY_START,
            activity=activity_id, handle=instance.handle,
            class_key=instance.class_key, state=state_name,
            consumed_sequence=signal.sequence,
        )
        self._activity_stack.append(activity_id)
        try:
            names = self._lowered.event_parameters[key]
            params = (
                {name: signal.params.get(name) for name in names}
                if names else {}
            )
            self._exec.run(self._lowered.activities[key], instance.handle, params)
        finally:
            self._activity_stack.pop()
            self.trace.record(
                self.now, TraceKind.ACTIVITY_END,
                activity=activity_id, handle=instance.handle,
                class_key=instance.class_key, state=state_name,
            )

    # -- time -----------------------------------------------------------------------------

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
        """Dispatch until no event is ready or scheduled.  Returns steps."""
        steps = 0
        while steps < max_steps:
            if self.step():
                steps += 1
                continue
            due = self.pool.next_due_time()
            if due is None:
                break
            self.now = max(self.now, due)
        else:
            raise SimulationError(f"no quiescence within {max_steps} steps")
        return steps

    def run_until(self, time: int, max_steps: int = 1_000_000) -> int:
        """Advance simulated time to *time*, dispatching everything due."""
        if time < self.now:
            raise SimulationError("cannot run backwards")
        steps = 0
        while True:
            while self.step():
                steps += 1
                if steps > max_steps:
                    raise SimulationError(f"exceeded {max_steps} steps")
            due = self.pool.next_due_time()
            if due is None or due > time:
                break
            self.now = max(self.now, due)
        self.now = time
        return steps
