"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: a
:class:`~repro.engine.simulator.Simulator` owns a time-ordered event queue;
:class:`~repro.engine.process.Process` objects are Python generators that
``yield`` events (timeouts, resource grants, other processes) to suspend.

This is the substrate every timing model in the library is built on.
"""

from repro.engine.event import Event, PooledTimeout, Timeout
from repro.engine.process import Process
from repro.engine.route import Route
from repro.engine.simulator import Simulator
from repro.engine.resources import (
    AllOf,
    BandwidthServer,
    Resource,
    Store,
)
from repro.engine.stats import Counter, Histogram, UtilizationTracker

__all__ = [
    "AllOf",
    "BandwidthServer",
    "Counter",
    "Event",
    "Histogram",
    "PooledTimeout",
    "Process",
    "Resource",
    "Route",
    "Simulator",
    "Store",
    "Timeout",
    "UtilizationTracker",
]
