"""Discrete-event simulation kernel.

A small, dependency-free engine: a
:class:`~repro.engine.simulator.Simulator` owns a time-ordered queue of
callbacks and the clock.  Model code waits one way: a ``then``
callback, run inline where its cause completes (a
:class:`~repro.engine.route.Route`'s end) or scheduled with
:meth:`~repro.engine.simulator.Simulator.schedule` (a
:class:`~repro.engine.resources.Resource` grant, a completion time).
The same-time rule: work at one instant runs in issue order, and only
a modelled delay or a deferred grant adds a heap entry (see the
contract list in :mod:`repro.engine.route`).
:class:`~repro.engine.event.Event`, ``AllOf`` and the SimPy-style
generator :class:`~repro.engine.process.Process` are the engine of the
differential reference checks; no model run allocates one.

This is the substrate every timing model in the library is built on.
"""

from repro.engine.event import Event
from repro.engine.process import Process
from repro.engine.route import Route
from repro.engine.simulator import Simulator
from repro.engine.resources import AllOf, BandwidthServer, Resource
from repro.engine.stats import Histogram, UtilizationTracker

__all__ = [
    "AllOf",
    "BandwidthServer",
    "Event",
    "Histogram",
    "Process",
    "Resource",
    "Route",
    "Simulator",
    "UtilizationTracker",
]
