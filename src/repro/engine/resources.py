"""Shared-resource primitives: unit pools and bandwidth servers.

These are the contention models used throughout the architecture
simulation.  A :class:`BandwidthServer` is the workhorse: it models a link
or port that serializes transfers at a fixed bytes/cycle rate, which is how
NoC links, ring segments, DMA engines and memory channels are represented.
"""

from __future__ import annotations

import collections
import typing
from functools import partial

from repro.engine.event import Event
from repro.errors import AllocationError, ConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

_INF = float("inf")


class Resource:
    """A pool of numbered units with a FIFO wait queue.

    ``request(then)`` runs ``then(unit)`` from one heap entry at the
    grant: at once when a unit is free, otherwise when a release hands
    one over.  The holder returns it with ``release(unit)``.  Grants go
    to the lowest free unit first, then to the unit released last.
    """

    __slots__ = ("sim", "capacity", "_free", "_held", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ConfigError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        # Reversed so pop() grants the lowest free unit first.
        self._free = list(range(capacity - 1, -1, -1))
        self._held: set[int] = set()
        self._waiters: collections.deque = collections.deque()

    @property
    def in_use(self) -> int:
        """Number of units held right now."""
        return len(self._held)

    @property
    def available(self) -> int:
        """Number of free units right now."""
        return len(self._free)

    def request(self, then: typing.Callable[[int], None]) -> None:
        """Ask for a unit; ``then(unit)`` runs when one is granted."""
        if self._free:
            unit = self._free.pop()
            self._held.add(unit)
            self.sim.schedule(self.sim.now, partial(then, unit))
        else:
            self._waiters.append(then)

    def release(self, unit: int) -> None:
        """Return ``unit``, handing it to the oldest waiter if any."""
        if unit not in self._held:
            raise AllocationError(f"release of unit {unit}, which is not held")
        if self._waiters:
            self.sim.schedule(self.sim.now, partial(self._waiters.popleft(), unit))
        else:
            self._held.remove(unit)
            self._free.append(unit)

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting."""
        return len(self._waiters)


class BandwidthServer:
    """A FIFO-serialized channel with a fixed service rate.

    ``transfer(nbytes)`` returns an event firing when the transfer has
    fully drained through the channel.  Transfers queue behind one another,
    so the completion time of a transfer issued at ``t`` is::

        max(t, channel_free_time) + latency + nbytes / bytes_per_cycle

    ``latency`` models fixed per-transfer overhead (router pipeline,
    request setup) that does not occupy the channel.

    The server tracks busy time so utilization and total bytes moved can be
    reported after a run.
    """

    __slots__ = (
        "sim", "bytes_per_cycle", "latency", "name", "_free_at", "busy_cycles",
        "total_bytes", "total_transfers",
    )

    def __init__(
        self,
        sim: "Simulator",
        bytes_per_cycle: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if not bytes_per_cycle > 0:  # NaN too
            raise ConfigError(
                f"bandwidth must be positive, got {bytes_per_cycle} (server {name!r})"
            )
        if not latency >= 0:
            raise ConfigError(f"latency must be non-negative, got {latency}")
        self.sim = sim
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.name = name
        self._free_at = 0.0
        self.busy_cycles = 0.0
        self.total_bytes = 0.0
        self.total_transfers = 0

    def reserve(self, nbytes: float) -> float:
        """Account one transfer; returns its completion time.

        FIFO queueing behind earlier transfers included, so the time is
        exact under contention; nothing is scheduled.
        """
        # One chained comparison rejects negative, NaN and infinite sizes.
        if not (0.0 <= nbytes < _INF):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )
        now = self.sim.now
        free_at = self._free_at
        start = now if now > free_at else free_at
        occupancy = nbytes / self.bytes_per_cycle
        self._free_at = start + occupancy
        self.busy_cycles += occupancy
        self.total_bytes += nbytes
        self.total_transfers += 1
        return start + occupancy + self.latency

    def transfer(self, nbytes: float) -> Event:
        """Enqueue a transfer; the returned event fires at completion.

        This is :meth:`reserve` plus one scheduled event; routes reserve
        directly and schedule their own wake-up instead.
        """
        return self.sim.at(self.reserve(nbytes), nbytes)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` cycles the channel was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)


class AllOf(Event):
    """An event that fires once all child events have fired.

    The value is the list of child values in the order given.

    Every child shares one bound callback (no per-child closure); the
    value list is gathered from the children when the last one fires —
    an event's value never changes after it triggers, so the gathered
    list is identical to one captured fire-by-fire.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]) -> None:
        super().__init__(sim)
        count = len(events)
        self._pending = count
        if count == 0:
            self._children: typing.Tuple[Event, ...] = ()
            self.succeed([])
            return
        children = self._children = tuple(events)
        on_child = self._on_child
        for child in children:
            child.add_callback(on_child)

    def _on_child(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._children])
