"""The simulator core: a time-ordered callback queue and a clock."""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.engine.event import Event, PooledTimeout, Timeout
from repro.errors import SimulationError

_INF = float("inf")


class Simulator:
    """Owns simulation time and the pending-event heap.

    Time is a float measured in cycles of the accelerator/uncore clock.
    Entries at equal times execute in insertion order (a monotonically
    increasing sequence number breaks ties), which makes runs fully
    deterministic.
    """

    __slots__ = ("now", "_heap", "_seq", "_timeout_pool")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, typing.Callable[[], None]]] = []
        self._seq = 0
        # Recycled PooledTimeout instances (see Simulator.delay).
        self._timeout_pool: list[PooledTimeout] = []

    def _schedule(self, time: float, callback: typing.Callable[[], None]) -> None:
        # The chained comparison rejects past times, NaN (every
        # comparison involving it is false) and +/-inf in one test.
        if not (self.now <= time < _INF):
            raise SimulationError(
                f"cannot schedule at {time!r} (now={self.now}): "
                "times must be finite and not in the past"
            )
        heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def event(self) -> Event:
        """Create a new pending event bound to this simulator."""
        return Event(self)

    def at(self, time: float, value: object = None) -> Event:
        """An event that fires at absolute time ``time`` with ``value``."""
        event = Event(self)
        event.value = value
        event._scheduled = True
        self._schedule(time, event._fire)
        return event

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` cycles from now."""
        return Timeout(self, delay, value)

    def delay(self, delay: float, value: object = None) -> PooledTimeout:
        """A pooled fixed-delay event for internal hot paths.

        Semantically identical to :meth:`timeout`, but the returned
        event is recycled once a process consumes it, eliminating the
        per-wait allocation.  Callers must yield it immediately and
        never retain a reference past its firing; code that holds
        timeout objects should use :meth:`timeout`.
        """
        pool = self._timeout_pool
        if not pool:
            return PooledTimeout(self, delay, value)
        # Re-arm inline (same checks as Timeout.__init__): this is the
        # single hottest allocation site in a simulation, and the extra
        # _reinit call was measurable.
        if not (0.0 <= delay < _INF):
            raise SimulationError(
                f"timeout delay must be finite and non-negative, got {delay!r}"
            )
        recycled = pool.pop()
        recycled.delay = delay
        recycled.value = value
        recycled._triggered = False
        recycled._scheduled = True
        recycled._callback = None
        time = self.now + delay
        if time >= _INF:
            raise SimulationError(
                f"cannot schedule at {time!r} (now={self.now}): "
                "times must be finite and not in the past"
            )
        heappush(self._heap, (time, self._seq, recycled._fire_cb))
        self._seq += 1
        return recycled

    def process(self, generator: typing.Generator) -> "Process":
        """Spawn a new process running ``generator``."""
        from repro.engine.process import Process

        return Process(self, generator)

    def run(self, until: typing.Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulation time.  ``until`` must be finite and
        not in the past (the clock never moves backwards); ``None`` runs
        until the queue drains.

        The event loop is the hottest code in any simulation, so both
        branches pop entries directly (one heap operation per event);
        the deadline branch pushes the single overshooting entry back
        rather than peeking before every pop.
        """
        heap = self._heap
        pop = heappop
        if until is None:
            while heap:
                time, _seq, callback = pop(heap)
                self.now = time
                callback()
            return self.now
        # The same chained comparison as _schedule: past times, NaN and
        # +/-inf all fail it.
        if not (self.now <= until < _INF):
            raise SimulationError(
                f"cannot run until {until!r} (now={self.now}): "
                "the deadline must be finite and not in the past"
            )
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time > until:
                heappush(heap, entry)
                self.now = until
                return until
            self.now = time
            entry[2]()
        return self.now

    def peek(self) -> typing.Optional[float]:
        """Time of the next pending entry, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None
