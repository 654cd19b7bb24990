"""Routes: every multi-leg data movement, run by one interpreter.

A transfer through the system — NoC interface, DMA engine, island
network, mesh, memory channel — is a straight line of *legs*.  A
:class:`Route` walks one such line for one transfer.  The legs are plain
tuples, built once by the component that owns the path (an island, a
network, the mesh, the system) and shared by every transfer over it::

    (op, arg, span, charge, fault)

``op`` says what the leg does:

* :data:`SERVE` — reserve ``arg``, a
  :class:`~repro.engine.resources.BandwidthServer`, for the route's
  bytes (:meth:`~repro.engine.resources.BandwidthServer.reserve`);
* :data:`WAIT` — a fixed latency of ``arg`` cycles;
* :data:`CALL` — ``arg(route)`` returns a completion time (float) or an
  :class:`~repro.engine.event.Event`: a nested route, a mesh transfer,
  an island ingress/egress, a memory access;
* :data:`END` — the route is done; its event fires, inline, with
  :attr:`Route.value`.  Every leg tuple ends with one.

The optional attributes apply to any leg:

* ``span`` — ``(tracer, actor, kind)``: when the leg ends, a span from
  the end of the route's previous span (or the route's creation) to now
  is recorded;
* ``charge`` — ``charge(route)`` runs when the leg starts (energy);
* ``fault`` — ``fault(route)`` runs when the leg starts, before
  ``charge``; a float return means "wait that many cycles, then start
  the leg again" (DMA stall and drop/retry), ``None`` lets it proceed.

The same-time rule.  Routes add a heap entry only where the model has
a delay, so work at one instant runs in the order it is issued:

* work that starts at time *t* starts when it is issued: a route's first
  leg runs inside the call that creates it;
* a route's completion runs its waiters inside the leg that ends it (the
  :data:`END` leg fires :attr:`Route.event` inline, so a nested route
  finishes its outer route directly);
* only a modelled delay (a :data:`SERVE` completion, a :data:`WAIT`, a
  memory access, a fault hook's wait) or an :meth:`Event.succeed` adds a
  heap entry.  Entries at equal times still run in push order.

Heap entries: one per leg (the route's own wake-up for a float, the
event's fire otherwise), even for a leg that ends as it starts, and one
per fault-hook wait.  Nothing else: no entry to start the route, none
to finish it.
"""

from __future__ import annotations

import typing

from repro.engine.event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

#: Leg operations.
SERVE = 0
WAIT = 1
CALL = 2
END = 3

#: A leg: ``(op, arg, span, charge, fault)``.
Leg = typing.Tuple[int, typing.Any, typing.Any, typing.Any, typing.Any]


def leg(
    op: int,
    arg: typing.Any = None,
    span: typing.Optional[tuple] = None,
    charge: typing.Optional[typing.Callable[["Route"], None]] = None,
    fault: typing.Optional[
        typing.Callable[["Route"], typing.Optional[float]]
    ] = None,
) -> Leg:
    """Build one leg tuple (see the module docstring)."""
    return (op, arg, span, charge, fault)


#: The plain final leg.
DONE = leg(END)


class Route:
    """One transfer walking a shared tuple of legs.

    ``nbytes`` is what :data:`SERVE` legs reserve and ``value`` (default
    ``nbytes``) what :attr:`event` fires with.  ``src``/``dst`` are the
    transfer's endpoints, whatever the owner's ``CALL`` and ``charge``
    functions need (slot indices, ``(island, slot)`` pairs, memory
    stream ids); ``ref`` and ``label`` go into traced spans.
    """

    __slots__ = (
        "sim",
        "event",
        "nbytes",
        "value",
        "src",
        "dst",
        "ref",
        "label",
        "attempt",
        "_legs",
        "_index",
        "_t0",
        "_advance_cb",
    )

    def __init__(
        self,
        sim: "Simulator",
        legs: typing.Sequence[Leg],
        nbytes: float,
        src: typing.Any = None,
        dst: typing.Any = None,
        ref: str = "",
        label: str = "",
        value: typing.Any = None,
    ) -> None:
        self.sim = sim
        self.event = Event(sim)
        self.nbytes = nbytes
        self.value = nbytes if value is None else value
        self.src = src
        self.dst = dst
        self.ref = ref
        self.label = label
        #: Fault-hook state of the current leg (see ``Island._dma_fault``).
        self.attempt = 0
        self._legs = legs
        self._index = 0
        self._t0 = sim.now
        self._advance_cb = self._advance
        self._start()

    def _advance(self, _event: typing.Optional[Event] = None) -> None:
        """End the current leg (recording its span), start the next."""
        index = self._index
        span = self._legs[index][2]
        if span is not None:
            now = self.sim.now
            span[0].span(self._t0, now, span[1], span[2], self.label, self.ref)
            self._t0 = now
        self._index = index + 1
        self._start()

    def _start(self) -> None:
        """Start the current leg (again, after a fault hook's wait)."""
        sim = self.sim
        op, arg, _span, charge, fault = self._legs[self._index]
        if fault is not None:
            wait = fault(self)
            if wait is not None:
                sim._schedule(sim.now + wait, self._start)
                return
        if charge is not None:
            charge(self)
        if op == SERVE:
            done = arg.reserve(self.nbytes)
        elif op == WAIT:
            done = sim.now + arg
        elif op == CALL:
            done = arg(self)
        else:
            self.event.trigger(self.value)
            return
        if done.__class__ is float:
            sim._schedule(done, self._advance_cb)
        else:
            done.add_callback(self._advance_cb)
