"""Discrete-event simulation kernel.

A small, dependency-free engine: a
:class:`~repro.engine.simulator.Simulator` owns a time-ordered queue of
callbacks and the clock.  Models run as callback chains: a
:class:`~repro.engine.route.Route` walks a transfer's legs, and the
tile scheduler's task records, serve arrivals and host-core jobs
schedule their next step at the previous one's completion time.
:class:`~repro.engine.event.Event` objects join waiters to an
occurrence.  A :class:`~repro.engine.process.Process` runs a Python
generator that yields events, in the style of SimPy; no run path uses
it (the BiN extension's driver does).

This is the substrate every timing model in the library is built on.
"""

from repro.engine.event import Event, Timeout
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
    "Timeout",
    "UtilizationTracker",
]
