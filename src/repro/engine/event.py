"""Events: the unit of synchronization in the simulation kernel."""

from __future__ import annotations

import typing
from heapq import heappush

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

_INF = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` schedules it to
    *trigger* at the current simulation time, at which point all registered
    callbacks run (in registration order) and late callbacks run
    immediately.  :meth:`trigger` fires it inline instead, with no heap
    entry.

    Events are the most-allocated objects in a simulation (every
    transfer, timeout and resource grant creates one), so the class is
    ``__slots__``-based to cut per-instance memory and attribute-lookup
    cost on the hot path, and ``_callback`` is a single slot — ``None``
    when empty, the callable itself for the overwhelmingly common
    one-waiter case, and a list only once a second waiter registers.
    Lists are not callable, so ``__class__ is list`` disambiguates
    without a separate discriminator field.
    """

    __slots__ = ("sim", "value", "_triggered", "_scheduled", "_callback")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.value: object = None
        self._triggered = False
        self._scheduled = False
        self._callback: typing.Any = None

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    def succeed(self, value: object = None) -> "Event":
        """Schedule this event to fire now with an optional payload."""
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered")
        self._scheduled = True
        self.value = value
        # Push directly instead of going through Simulator.schedule:
        # "now" trivially passes schedule's time validation, and
        # succeed() runs once per non-timeout event in a simulation.
        sim = self.sim
        heappush(sim._heap, (sim.now, sim._seq, self._fire))
        sim._seq += 1
        return self

    def trigger(self, value: object = None) -> "Event":
        """Fire this event now, inline: its callbacks run in this call.

        Adds no heap entry (see the same-time rule in
        :mod:`repro.engine.route`).
        """
        if self._triggered or self._scheduled:
            raise SimulationError("event already triggered")
        self.value = value
        self._fire()
        return self

    def _fire(self) -> None:
        self._triggered = True
        callback = self._callback
        if callback is None:
            return
        self._callback = None
        if callback.__class__ is list:
            for entry in callback:
                entry(self)
        else:
            callback(self)

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (or now if it has)."""
        if self._triggered:
            callback(self)
            return
        current = self._callback
        if current is None:
            self._callback = callback
        elif current.__class__ is list:
            current.append(callback)
        else:
            self._callback = [current, callback]


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        # One chained comparison rejects negative, NaN (all comparisons
        # false) and infinite delays, mirroring Tracer.record's non-finite
        # span rejection.
        if not (0.0 <= delay < _INF):
            raise SimulationError(
                f"timeout delay must be finite and non-negative, got {delay!r}"
            )
        # Timeouts are allocated by the million; initializing the Event
        # slots inline skips the super().__init__ call, and the direct
        # heap push skips Simulator.schedule — its validation reduces
        # to rejecting overflow to +inf, since delay is already checked
        # and ``now`` is finite.
        self.sim = sim
        self.value = value
        self._triggered = False
        self._scheduled = True
        self._callback = None
        self.delay = delay
        time = sim.now + delay
        if time >= _INF:
            raise SimulationError(
                f"cannot schedule at {time!r} (now={sim.now}): "
                "times must be finite and not in the past"
            )
        heappush(sim._heap, (time, sim._seq, self._fire))
        sim._seq += 1
