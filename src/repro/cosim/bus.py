"""The shared on-chip bus.

Cross-partition messages are serialized through one bus.  The bus grants
pending requests one at a time; the grant order is the arbitration
policy (E4 ablates fixed-priority against round-robin against FIFO).
Occupancy per message comes from :meth:`CoSimConfig.bus_transfer_ns`.

When a :class:`~repro.cosim.faults.FaultPlan` is installed, the grant
path is where faults strike: the bus draws the transfer's (seeded,
reproducible) :class:`~repro.cosim.faults.FaultDecision`, counts it in
the shared :class:`~repro.cosim.faults.FaultStats`, attaches it to the
request for the receiver to act on, and stretches the delivery time of
delayed frames.  The bus itself stays oblivious to frame contents —
detection and recovery are the engine's business.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import active_registry

from .config import CoSimConfig
from .faults import FaultDecision, FaultPlan, FaultStats


@dataclass
class BusRequest:
    """One pending cross-partition message."""

    ready_at: int
    sequence: int
    message_id: int
    payload_bytes: int
    sender_side: str            # "hw" or "sw"
    deliver: object             # zero-arg callable run at delivery time
    payload: bytes = b""        # the (possibly framed) wire bytes
    message_name: str = ""      # interface message this frame carries
    attempt: int = 1            # 1 = first send, >1 = retransmission
    #: FaultDecision drawn at grant time (None until granted / no plan)
    fault: FaultDecision | None = None


@dataclass
class BusStats:
    """Aggregate bus accounting."""

    messages: int = 0
    bytes_moved: int = 0
    busy_ns: int = 0
    wait_ns: int = 0

    def utilization(self, horizon_ns: int) -> float:
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / horizon_ns)


class Bus:
    """Single-master-at-a-time shared bus with pluggable arbitration."""

    def __init__(self, config: CoSimConfig,
                 fault_plan: FaultPlan | None = None,
                 fault_stats: FaultStats | None = None):
        self._config = config.validated()
        self._pending: list[BusRequest] = []
        self._free_at = 0
        self._rr_last_side = "hw"    # round-robin alternates sides
        self.stats = BusStats()
        self._fault_plan = fault_plan
        self.fault_stats = fault_stats if fault_stats is not None \
            else FaultStats()
        registry = active_registry()
        if registry is None:
            self._m_messages = None
            self._m_bytes = None
            self._m_busy_ns = None
            self._m_wait = None
        else:
            self._m_messages = registry.counter("cosim.bus.messages")
            self._m_bytes = registry.counter("cosim.bus.bytes_moved")
            self._m_busy_ns = registry.counter("cosim.bus.busy_ns")
            self._m_wait = registry.histogram("cosim.bus.wait_ns")

    @property
    def free_at(self) -> int:
        return self._free_at

    def request(self, request: BusRequest) -> None:
        self._pending.append(request)

    def has_pending(self) -> bool:
        return bool(self._pending)

    def next_ready_time(self) -> int | None:
        if not self._pending:
            return None
        earliest = min(r.ready_at for r in self._pending)
        return max(earliest, self._free_at)

    def grant(self, now: int) -> tuple[int, BusRequest] | None:
        """Grant one request if the bus is idle at *now*.

        Returns ``(delivery_time, request)`` after accounting, or None.
        The caller invokes ``request.deliver()`` at the delivery time.
        """
        if now < self._free_at or not self._pending:
            return None
        ready = [r for r in self._pending if r.ready_at <= now]
        if not ready:
            return None
        chosen = self._arbitrate(ready)
        self._pending.remove(chosen)
        transfer = self._config.bus_transfer_ns(chosen.payload_bytes)
        start = max(now, chosen.ready_at)
        delivery = start + transfer
        self._free_at = delivery
        self.stats.messages += 1
        self.stats.bytes_moved += chosen.payload_bytes
        self.stats.busy_ns += transfer
        self.stats.wait_ns += start - chosen.ready_at
        if self._m_messages is not None:
            self._m_messages.inc()
            self._m_bytes.inc(chosen.payload_bytes)
            self._m_busy_ns.inc(transfer)
            self._m_wait.observe(start - chosen.ready_at)
        if self._config.bus_policy == "round_robin":
            self._rr_last_side = chosen.sender_side
        if self._fault_plan is not None:
            decision = self._fault_plan.decide(
                chosen.message_name, chosen.sequence, chosen.attempt)
            self.fault_stats.count_injected(decision)
            chosen.fault = decision
            # a delayed frame leaves the bus on time but lands late
            delivery += decision.delay_ns
        return delivery, chosen

    def _arbitrate(self, ready: list[BusRequest]) -> BusRequest:
        policy = self._config.bus_policy
        if policy == "priority":
            # lower message id = higher priority; FIFO within a priority
            return min(ready, key=lambda r: (r.message_id, r.sequence))
        if policy == "round_robin":
            other = "sw" if self._rr_last_side == "hw" else "hw"
            preferred = [r for r in ready if r.sender_side == other]
            pool = preferred or ready
            return min(pool, key=lambda r: r.sequence)
        return min(ready, key=lambda r: r.sequence)   # fifo
