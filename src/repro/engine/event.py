"""Events: one-shot occurrences that processes and callbacks wait on."""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` schedules it to
    *trigger* at the current simulation time, at which point all registered
    callbacks run (in registration order) and late callbacks run
    immediately.  :meth:`trigger` fires it inline instead, with no heap
    entry.

    Model code waits through scheduled callbacks and never allocates
    an event; events are the engine of the differential reference checks
    (``tests/test_route_reference.py``, ``tests/test_task_reference.py``)
    and of process-style drivers.  ``_callback`` is a single slot —
    ``None`` when empty, the callable itself for the common one-waiter
    case, and a list once a second waiter registers.  Lists are not
    callable, so ``__class__ is list`` disambiguates without a separate
    discriminator field.
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
        self.sim.schedule(self.sim.now, self._fire)
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

