"""Generator-based processes for the simulation kernel.

A process body is a Python generator that ``yield``s :class:`Event`
objects.  The process suspends until the yielded event fires, then resumes
with the event's ``value`` as the result of the ``yield`` expression.  The
process itself is an event that fires (with the generator's return value)
when the body completes, so processes can wait on each other.  A process
that completes with nothing waiting on it pushes no heap entry.

Resumption is allocation-free on the hot path: the bound resume method is
created once at spawn and reused as the callback for every yielded event,
and pooled timeouts (:meth:`Simulator.delay`) are returned to the
simulator's pool as soon as the generator has consumed their value.
"""

from __future__ import annotations

import typing

from repro.engine.event import Event, PooledTimeout
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
        sim._schedule(sim.now, resume)

    def _resume(
        self,
        event: typing.Optional[Event] = None,
        # Bound at definition time: _resume runs once per yield of every
        # process, and the default-argument cell turns two global
        # lookups into local loads.
        _pooled: type = PooledTimeout,
        _event_type: type = Event,
    ) -> None:
        if event is None:  # the spawn kick
            send_value: object = None
        else:
            send_value = event.value
            # Pooled timeouts are single-use by contract; recycle the
            # instance the moment its value has been extracted.
            if event.__class__ is _pooled:
                self.sim._timeout_pool.append(event)
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
        if not isinstance(target, _event_type):
            self._generator.close()
            raise SimulationError(
                f"process yielded {target!r} ({type(target).__name__}); "
                "processes must yield Events"
            )
        target.add_callback(self._resume_cb)
