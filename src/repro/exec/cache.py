"""The lowering cache — parse/analyze/lower each component once.

Lowering is a pure function of the model's content, so the cache is
content-addressed with the *build layer's* fingerprint
(:func:`repro.build.fingerprint.model_fingerprint`): two structurally
identical models — e.g. a catalog model rebuilt for every verification
case — share one lowered form, while any model edit changes the key and
misses.  Its readers:

* the abstract runtime, at model-load, which is what lets it execute IR
  with no per-run parse/analyze cost;
* the signal-flow analyzer (:mod:`repro.analysis.signalflow`);
* :func:`repro.marks.partition.signal_flows`, the partition's flows.

So analysis, partitioning and execution read literally the same lowered
bodies.

Hit/miss counters are kept module-level (``repro check`` prints them)
and mirrored into the active metrics registry when observability is on
(``exec.lower_cache.hits`` / ``exec.lower_cache.misses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.oal.analyzer import analyze_activity
from repro.oal.parser import parse_activity
from repro.xuml.component import Component
from repro.xuml.klass import derived_operation
from repro.xuml.model import Model

from .ir import lower_block


@dataclass(frozen=True)
class LoweredComponent:
    """One component's activities, operations and derived bodies, lowered.

    Keys mirror what the executors look up: ``activities`` by
    ``(class_key, state_name)``, ``operations`` by ``(class_key, name)``,
    ``derived`` by ``(class_key, attribute_name)``.  ``event_parameters``
    holds, per activity, the parameter names its analysis declared
    visible — the dispatch loop uses it to project a signal's payload
    into the frame.

    ``compiled`` is the evaluator's table of closure-compiled bodies
    (:func:`repro.exec.compile_block`), filled lazily by every
    :class:`~repro.exec.IRExecutor` handed it.  Owning it here shares
    each compile among all simulations of the model and drops it with
    the lowering.
    """

    fingerprint: str
    component_name: str
    activities: dict[tuple[str, str], list] = field(default_factory=dict)
    event_parameters: dict[tuple[str, str], tuple[str, ...]] = field(
        default_factory=dict)
    operations: dict[tuple[str, str], list] = field(default_factory=dict)
    derived: dict[tuple[str, str], list] = field(default_factory=dict)
    compiled: dict = field(default_factory=dict, compare=False, repr=False)


#: (model fingerprint, component name) -> LoweredComponent
_cache: dict[tuple[str, str], LoweredComponent] = {}
_hits = 0
_misses = 0


def _count(hit: bool) -> None:
    global _hits, _misses
    from repro.obs.metrics import active_registry

    registry = active_registry()
    if hit:
        _hits += 1
        if registry is not None:
            registry.counter("exec.lower_cache.hits").inc()
    else:
        _misses += 1
        if registry is not None:
            registry.counter("exec.lower_cache.misses").inc()


def lowering_cache_stats() -> dict[str, int]:
    """Snapshot of the cache: entries held, hits and misses so far."""
    return {"entries": len(_cache), "hits": _hits, "misses": _misses}


def clear_lowering_cache() -> None:
    """Drop every cached lowering and reset the counters (tests)."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def _lower_component_uncached(
    model: Model, component: Component, fingerprint: str
) -> LoweredComponent:
    lowered = LoweredComponent(fingerprint, component.name)
    for klass in component.classes:
        key = klass.key_letters
        for state in klass.statemachine.states:
            block = parse_activity(state.activity)
            analysis = analyze_activity(block, model, component, klass, state)
            lowered.activities[(key, state.name)] = lower_block(
                block, analysis, component)
            lowered.event_parameters[(key, state.name)] = tuple(
                analysis.event_parameters)
        for operation in klass.operations:
            block = parse_activity(operation.body)
            analysis = analyze_activity(
                block, model, component, klass, None, operation=operation)
            lowered.operations[(key, operation.name)] = lower_block(
                block, analysis, component)
        for attribute in klass.attributes:
            if attribute.derived is None:
                continue
            pseudo = derived_operation(attribute)
            block = parse_activity(pseudo.body)
            analysis = analyze_activity(
                block, model, component, klass, None, operation=pseudo)
            lowered.derived[(key, attribute.name)] = lower_block(
                block, analysis, component)
    return lowered


def lower_component(model: Model, component: Component) -> LoweredComponent:
    """The component's lowered form, served from the fingerprint cache."""
    # Imported lazily: the build layer sits above exec in the package
    # graph, and only this entry point reaches up for the fingerprint.
    from repro.build.fingerprint import model_fingerprint

    key = (model_fingerprint(model), component.name)
    cached = _cache.get(key)
    if cached is not None:
        _count(hit=True)
        return cached
    _count(hit=False)
    lowered = _lower_component_uncached(model, component, key[0])
    _cache[key] = lowered
    return lowered
