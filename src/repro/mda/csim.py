"""The C-architecture simulator — the generated software, executed.

Mirrors the dispatch discipline of the emitted ``kernel.c``: a single
task draining two global FIFOs (self-directed events first, then send
order), each dispatched event running to completion.  Time is the model's
microsecond clock; delayed events re-enter the queues at their due time,
exactly like the kernel's timer list.
"""

from __future__ import annotations

from repro.runtime.events import SignalInstance

from .archrt import ArchError, TargetMachine


class CSoftwareMachine(TargetMachine):
    """Executes the software half the way the generated kernel does."""

    architecture = "c-single-task"

    def _choose_source(self) -> int | None:
        """kernel_next(): global self queue first, then global FIFO."""
        candidates: list[tuple[bool, int, int]] = []
        for handle in self.pool.ready_handles():
            head = self.pool.peek_for(handle)
            candidates.append((not head.is_self_directed, head.sequence, handle))
        if self.pool.has_ready_creation():
            candidates.append((True, self.pool.peek_creation().sequence, -1))
        if not candidates:
            return None
        return min(candidates)[2]

    def step(self) -> bool:
        self.pool.release_due(self.now)
        source = self._choose_source()
        if source is None:
            return False
        if source == -1:
            signal: SignalInstance = self.pool.pop_creation()
        else:
            signal = self.pool.pop_for(source)
        self.dispatch(signal)
        return True

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
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
            raise ArchError(f"no quiescence within {max_steps} steps")
        return steps

    def run_until(self, time: int, max_steps: int = 1_000_000) -> int:
        if time < self.now:
            raise ArchError("cannot run backwards")
        steps = 0
        while True:
            while self.step():
                steps += 1
                if steps > max_steps:
                    raise ArchError(f"exceeded {max_steps} steps")
            due = self.pool.next_due_time()
            if due is None or due > time:
                break
            self.now = max(self.now, due)
        self.now = time
        return steps
