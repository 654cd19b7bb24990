"""Routes: every multi-leg data movement, run by one interpreter.

A transfer through the system — NoC interface, DMA engine, island
network, mesh, memory channel — is a straight line of *legs*, and one
:class:`Route` walks the whole line.  The legs are plain tuples, built
once by the component that owns each stretch of the path and shared by
every transfer over it.  Owners splice their legs into one flat tuple:
the network's go into the island's ingress, and the system's read leg,
the mesh's crossing leg and that ingress make a memory-to-island
transfer::

    (op, arg, span, charge, fault)

``op`` says what the leg does:

* :data:`SERVE` — reserve ``arg``, a
  :class:`~repro.engine.resources.BandwidthServer`, for the route's
  bytes (:meth:`~repro.engine.resources.BandwidthServer.reserve`);
* :data:`WAIT` — a fixed latency of ``arg`` cycles;
* :data:`CALL` — ``arg(route)`` does the owner's work (a memory access,
  a mesh crossing) and returns its completion time, or ``None`` when
  nothing moves: the leg then ends as it starts, with no heap entry and
  no span;
* :data:`END` — the route is done; its ``then()`` runs, inline.  Every
  leg tuple ends with one.

The optional attributes apply to any leg:

* ``span`` — ``(tracer, actor, kind, label)``: when the leg ends, a span
  labelled ``label(nbytes)`` is recorded from the route's span clock
  (its creation, at first) to now, and the clock moves to now.
  :data:`MARK` only moves the clock: it marks a leg whose owner records
  its own span (a memory access);
* ``charge`` — ``charge(route)`` runs when the leg starts (energy);
* ``fault`` — ``fault(route)`` runs when the leg starts, before
  ``charge``; a float return means "wait that many cycles, then start
  the leg again" (DMA stall and drop/retry), ``None`` lets it proceed.

The same-time rule: work at one instant runs in issue order, and only a
modelled delay or a deferred grant adds a heap entry.  Contracts, each
pinned by the named test under ``tests/``:

* a release at a :class:`~repro.engine.resources.Resource` or the ABC
  hands its unit to the oldest waiter from one heap entry
  (``test_release_hands_off_from_one_heap_entry``,
  ``test_release_grants_waiter_from_one_heap_entry``);
* a route's first leg runs inside the call that creates it, its
  :data:`END` inside its last leg
  (``test_same_instant_routes_served_in_issue_order``,
  ``test_route_end_runs_inside_its_last_leg``);
* equal-time entries run in push order
  (``test_equal_time_events_fire_in_insertion_order``).

Ties between different tiles, tenants or routes are incidental.

Heap entries: one per leg, but none for a :data:`CALL` that returns
``None``; and one per fault-hook wait.  None to start the route or to
finish it.  Each entry holds a bound method made as it is pushed, since
the route keeps no callable of itself: the heap entries are unchanged,
and a finished route is freed by reference count instead of waiting in a
cycle for the garbage collector.  Legs follow the same rule: a leg holds
the parts it uses (a server, an energy account, a counters record),
never a bound method of the owner that caches it.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

#: Leg operations.
SERVE = 0
WAIT = 1
CALL = 2
END = 3

#: A leg: ``(op, arg, span, charge, fault)``.
Leg = typing.Tuple[int, typing.Any, typing.Any, typing.Any, typing.Any]

#: The ``span`` of a leg that records no span but moves the span clock.
MARK = (None, None, None, None)


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

    ``then()`` runs when the route ends; ``nbytes`` is what
    :data:`SERVE` legs reserve.  ``src``/``dst`` name the transfer's ends for the
    owners' ``CALL`` and ``charge`` functions (``(island, slot)`` pairs,
    memory stream ids); ``ref`` goes into traced spans.
    """

    __slots__ = (
        "sim",
        "then",
        "nbytes",
        "src",
        "dst",
        "ref",
        "attempt",
        "_legs",
        "_index",
        "_t0",
    )

    def __init__(
        self,
        sim: "Simulator",
        legs: typing.Sequence[Leg],
        then: typing.Callable[[], None],
        nbytes: float,
        src: typing.Any = None,
        dst: typing.Any = None,
        ref: str = "",
    ) -> None:
        self.sim = sim
        self.then = then
        self.nbytes = nbytes
        self.src = src
        self.dst = dst
        self.ref = ref
        #: Fault-hook state of the current leg (see ``FaultInjector.dma_fault``).
        self.attempt = 0
        self._legs = legs
        self._index = 0
        self._t0 = sim.now
        self._advance(False)

    def _advance(self, ended: bool = True) -> None:
        """Run the route on: end the current leg first when ``ended``
        (recording its span), then start legs until one waits (a
        :data:`CALL` that ends as it starts goes on in this loop)."""
        sim = self.sim
        legs = self._legs
        index = self._index
        if ended:
            span = legs[index][2]
            if span is not None:
                now = sim.now
                tracer = span[0]
                if tracer is not None:
                    tracer.record(
                        self._t0, now, span[1], span[2], span[3](self.nbytes), self.ref
                    )
                self._t0 = now
            index += 1
        while True:
            op, arg, _span, charge, fault = legs[index]
            if fault is not None:
                self._index = index
                wait = fault(self)
                if wait is not None:
                    sim.schedule(sim.now + wait, self._restart)
                    return
            if charge is not None:
                charge(self)
            if op == SERVE:
                done = arg.reserve(self.nbytes)
            elif op == WAIT:
                done = sim.now + arg
            elif op == CALL:
                done = arg(self)
                if done is None:
                    index += 1
                    continue
            else:
                self.then()
                return
            self._index = index
            sim.schedule(done, self._advance)
            return

    def _restart(self) -> None:
        """Start the current leg again, after a fault hook's wait."""
        self._advance(False)
