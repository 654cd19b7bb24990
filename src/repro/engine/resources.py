"""Shared-resource primitives: semaphores, FIFO stores and bandwidth servers.

These are the contention models used throughout the architecture
simulation.  A :class:`BandwidthServer` is the workhorse: it models a link
or port that serializes transfers at a fixed bytes/cycle rate, which is how
NoC links, ring segments, DMA engines and memory channels are represented.
"""

from __future__ import annotations

import collections
import typing

from repro.engine.event import Event
from repro.errors import CapacityError, ConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator


class Resource:
    """A counting semaphore with a FIFO wait queue.

    ``request()`` returns an event that fires when a slot is granted; the
    holder must call ``release()`` exactly once per grant.
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ConfigError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: collections.deque[Event] = collections.deque()

    @property
    def available(self) -> int:
        """Number of free slots right now."""
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Return an event that fires when a slot is acquired."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise CapacityError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; in_use is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

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

    def __init__(
        self,
        sim: "Simulator",
        bytes_per_cycle: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ConfigError(
                f"bandwidth must be positive, got {bytes_per_cycle} (server {name!r})"
            )
        if latency < 0:
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
        if nbytes < 0:
            raise ConfigError(f"transfer size must be non-negative, got {nbytes}")
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
