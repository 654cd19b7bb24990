"""The simulator core: a time-ordered callback queue and a clock."""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.engine.event import Event
from repro.errors import SimulationError

_INF = float("inf")


class Simulator:
    """Owns simulation time and the pending-event heap.

    Time is a float measured in cycles of the accelerator/uncore clock.
    Entries at equal times execute in insertion order (a monotonically
    increasing sequence number breaks ties), which makes runs fully
    deterministic.
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, typing.Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, time: float, callback: typing.Callable[[], None]) -> None:
        """Run ``callback()`` at absolute time ``time``.

        After every entry already queued for that time: entries at
        equal times run in push order.
        """
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
        self.schedule(time, event._fire)
        return event

    def timeout(self, delay: float, value: object = None) -> Event:
        """An event that fires ``delay`` cycles from now with ``value``."""
        # One chained comparison rejects negative, NaN and infinite delays.
        if not (0.0 <= delay < _INF):
            raise SimulationError(
                f"timeout delay must be finite and non-negative, got {delay!r}"
            )
        return self.at(self.now + delay, value)

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
        # The same chained comparison as schedule: past times, NaN and
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

    def stop(self) -> None:
        """Drop every pending entry: :meth:`run` returns at now."""
        self._heap.clear()

    def peek(self) -> typing.Optional[float]:
        """Time of the next pending entry, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None
