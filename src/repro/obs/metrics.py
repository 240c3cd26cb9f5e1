"""Metrics registry — counters, gauges and sample histograms.

One registry is the single source of measurement truth for the whole
toolchain: the runtime scheduler (queue depth, dispatch wait), the
co-simulation engine and bus (signal latency, occupancy, retransmits)
and the build scheduler/store (hit/miss/evict, per-job wall time) all
report into the same namespace, so ``repro metrics`` can print one
coherent table instead of three bespoke ones.

Instrumented code looks the registry up **once**, at construction time,
via :func:`active_registry`.  When no registry is active the lookup
returns ``None`` and every hook collapses to a single ``is not None``
test — the hot path pays nothing for observability it did not ask for.

The percentile helper here is the one shared by every caller (including
:class:`repro.cosim.perf.LatencyProbe`): ceil-based nearest rank, which
never under-reports the tail at small sample counts the way round-based
indexing does.
"""

from __future__ import annotations

import math
from contextlib import contextmanager


class MetricsError(Exception):
    """Bad metric name or percentile fraction."""


def percentile_nearest_rank(values, fraction: float) -> float:
    """Ceil-based nearest-rank percentile of *values*.

    ``fraction`` is in 0..1.  The rank is ``ceil(fraction * (n - 1))``
    over the sorted samples, so the estimate is always an observed value
    and the tail is never under-reported: the p99 of 100 distinct
    samples is the 100th value, not the 99th (round-based indexing — the
    bug this helper replaces — picks the 99th).  Empty input is NaN.

    The estimator is deliberately upper-biased: rounding the rank up
    means the p50 of an even count is the upper median (the p50 of two
    samples is the larger one), not an average or the lower median.
    Committed benchmark references pin percentiles computed this way.
    """
    if not 0.0 <= fraction <= 1.0:
        raise MetricsError(f"percentile fraction {fraction} is outside 0..1")
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = math.ceil(fraction * (len(ordered) - 1))
    return float(ordered[index])


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name}: cannot add {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; remembers its high-water mark."""

    __slots__ = ("name", "value", "max_value", "_set")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self.value = value
        self.max_value = value if not self._set else max(self.max_value, value)
        self._set = True


class Histogram:
    """A distribution kept as its raw samples.

    Keeping every observation makes :meth:`percentile` *exact* — the
    shared ceil-based nearest-rank helper over real observations, not a
    bucket-boundary approximation.  Memory grows with the sample count.
    """

    __slots__ = ("name", "_samples", "total")

    def __init__(self, name: str):
        self.name = name
        self._samples: list[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self.total += value

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else float("nan")

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return self.total / len(self._samples)

    def percentile(self, fraction: float) -> float:
        return percentile_nearest_rank(self._samples, fraction)


def _number(value: float):
    """Ints stay ints in reports; everything else rounds readably."""
    if isinstance(value, int):
        return value
    if math.isnan(value):
        return None
    return int(value) if float(value).is_integer() else round(value, 3)


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _claim(self, name: str, kind: dict) -> None:
        if not name or not isinstance(name, str):
            raise MetricsError(f"metric name must be a non-empty string, "
                               f"got {name!r}")
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise MetricsError(
                    f"metric {name!r} already registered with another type")

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, self._histograms)
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- introspection -------------------------------------------------------

    @property
    def counters(self) -> tuple[Counter, ...]:
        return tuple(self._counters[n] for n in sorted(self._counters))

    @property
    def gauges(self) -> tuple[Gauge, ...]:
        return tuple(self._gauges[n] for n in sorted(self._gauges))

    @property
    def histograms(self) -> tuple[Histogram, ...]:
        return tuple(self._histograms[n] for n in sorted(self._histograms))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> dict:
        """A JSON-ready snapshot, stable under key sorting."""
        return {
            "counters": {c.name: c.value for c in self.counters},
            "gauges": {g.name: _number(g.value) for g in self.gauges},
            "histograms": {
                h.name: {
                    "count": h.count,
                    "sum": _number(h.total),
                    "min": _number(h.min),
                    "max": _number(h.max),
                    "mean": _number(h.mean()),
                    "p50": _number(h.percentile(0.50)),
                    "p90": _number(h.percentile(0.90)),
                    "p99": _number(h.percentile(0.99)),
                }
                for h in self.histograms
            },
        }

    def render_table(self) -> str:
        """One aligned text table over every metric, sorted by name."""
        rows: list[tuple[str, str, str]] = []
        for counter in self.counters:
            rows.append((counter.name, "counter", str(counter.value)))
        for gauge in self.gauges:
            rows.append((gauge.name, "gauge",
                         f"{_number(gauge.value)} (max {_number(gauge.max_value)})"))
        for histogram in self.histograms:
            rows.append((
                histogram.name, "histogram",
                f"n={histogram.count} mean={_number(histogram.mean())} "
                f"p50={_number(histogram.percentile(0.50))} "
                f"p99={_number(histogram.percentile(0.99))} "
                f"max={_number(histogram.max)}"))
        if not rows:
            return "(no metrics recorded)"
        rows.sort()
        width = max(len(name) for name, _, _ in rows)
        return "\n".join(
            f"{name:{width}s}  {kind:9s}  {detail}"
            for name, kind, detail in rows)


#: The process-wide registry instrumented code reports into, or None.
_ACTIVE: MetricsRegistry | None = None


def active_registry() -> MetricsRegistry | None:
    """The registry hooks should report into; None disables them."""
    return _ACTIVE


def set_active_registry(
        registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install *registry* (or None to disable); returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def observe(registry: MetricsRegistry | None = None):
    """Run a block with a registry active; yields that registry.

    ``with observe() as registry: ...`` is the one-liner the CLI and the
    tests use: everything constructed inside the block reports into
    *registry*, everything outside stays a no-op.
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_active_registry(active)
    try:
        yield active
    finally:
        set_active_registry(previous)
