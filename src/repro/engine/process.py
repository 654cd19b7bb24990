"""Generator-based processes for the simulation kernel.

A process body is a Python generator that ``yield``s :class:`Event`
objects.  The process suspends until the yielded event fires, then resumes
with the event's ``value`` as the result of the ``yield`` expression.  The
process itself is an event that fires (with the generator's return value)
when the body completes, so processes can wait on each other.  A process
that completes with nothing waiting on it pushes no heap entry.

Resumption is allocation-free: the bound resume method is created once
at spawn and reused as the callback for every yielded event.
"""

from __future__ import annotations

import typing

from repro.engine.event import Event
from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator


class Process(Event):
    """A running coroutine inside the simulation."""

    __slots__ = ("_generator", "_send", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: typing.Generator) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        self._send = generator.send  # bound once; loaded on every resume
        resume = self._resume_cb = self._resume
        # Kick the body off at the current time (not synchronously) so that
        # spawning order does not depend on the caller's position in a step.
        sim.schedule(sim.now, resume)

    def _resume(self, event: typing.Optional[Event] = None) -> None:
        send_value = None if event is None else event.value  # None: the kick
        try:
            target = self._send(send_value)
        except StopIteration as stop:
            if not self._triggered and not self._scheduled:
                if self._callback is None:
                    # Nothing waits: mark it done; a later add_callback
                    # runs at once, as for any triggered event.
                    self.trigger(stop.value)
                else:
                    self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            self._generator.close()
            raise SimulationError(
                f"process yielded {target!r} ({type(target).__name__}); "
                "processes must yield Events"
            )
        target.add_callback(self._resume_cb)
