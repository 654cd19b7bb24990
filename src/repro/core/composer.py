"""The Accelerator Block Composer (ABC).

CHARM extends the GAM with an ABC that consumes compiler-produced ABB
flow graphs at runtime, dynamically allocating free ABBs across islands
to compose virtual accelerators, and load-balancing work over the
available compute resources [8].

The ABC here is the allocation authority of the simulated system: every
task asks it for an ABB of the right type and receives a :class:`Grant`
naming ``(island, slot)``, possibly after waiting FIFO for one to free
up.

Under fault injection the ABC is also the graceful-degradation
authority: failed slots are skipped (virtual accelerators re-compose
from survivors automatically, since every allocation re-runs the
policy), and when a hard failure removes the *last* operational slot of
a type the ABC resolves affected requests — queued or new — with
:data:`SOFTWARE_FALLBACK` instead of deadlocking, mirroring ARC's GAM
wait-time-feedback decision to run in software.
"""

from __future__ import annotations

import collections
import typing
from dataclasses import dataclass

from repro.core.allocation import AllocationPolicy, locality_then_load_balance
from repro.engine import Event, Simulator
from repro.engine.stats import Histogram
from repro.errors import AllocationError, ConfigError
from repro.island.island import Island

#: Sentinel value a :meth:`AcceleratorBlockComposer.request` event fires
#: with when no operational ABB of the requested type remains anywhere on
#: the platform; the caller must run the task in software on the cores.
SOFTWARE_FALLBACK = "software-fallback"


@dataclass(frozen=True)
class Grant:
    """An allocated ABB slot, returned by :meth:`ABC.request`.

    The grant itself is the slot's owner on its island, compared by
    identity: two grants of one slot at one instant are equal but never
    the same object.

    Attributes:
        island_index: Which island the block sits on.
        slot: Slot index within the island.
        type_name: ABB type of the slot.
        granted_at: Simulation time the slot was handed out (feeds the
            ABC's per-type service-time statistics on release).
    """

    island_index: int
    slot: int
    type_name: str
    granted_at: float = 0.0


@dataclass
class _Waiter:
    """A queued allocation request."""

    event: Event
    type_name: str
    preferred: typing.Optional[int]
    requested_at: float


class AcceleratorBlockComposer:
    """Allocates ABB slots across islands for flow-graph tasks."""

    def __init__(
        self,
        sim: Simulator,
        islands: typing.Sequence[Island],
        policy: AllocationPolicy = locality_then_load_balance,
    ) -> None:
        if not islands:
            raise ConfigError("ABC needs at least one island")
        self.sim = sim
        self.islands = list(islands)
        self.policy = policy
        # Each island's usable-slot counts by type, read on every request.
        self._usable_counts = [island.usable_counts for island in self.islands]
        self._waiters: collections.deque[_Waiter] = collections.deque()
        # Queued requests per type, kept on enqueue, grant and fallback
        # (estimate_wait reads it on every admission decision).
        self._pending: collections.Counter[str] = collections.Counter()
        # Operational (non-failed, free or busy) slots per type across
        # all islands, kept by :meth:`fail_slot`.  A type with no key
        # exists nowhere; a count of zero means every slot of it failed.
        self._operational: collections.Counter[str] = collections.Counter(
            abb_type.name for island in self.islands for abb_type in island.abbs
        )
        self.wait_cycles = Histogram("abc.wait")
        self.service_cycles = Histogram("abc.service")
        self.total_grants = 0
        self.total_queued = 0
        self.fallback_grants = 0

    # ------------------------------------------------------------ internals
    def _try_allocate(
        self, type_name: str, preferred: typing.Optional[int]
    ) -> typing.Optional[Grant]:
        candidates = [
            index
            for index, counts in enumerate(self._usable_counts)
            if counts.get(type_name)
        ]
        if not candidates:
            return None
        index = self.policy(self.islands, candidates, preferred)
        island = self.islands[index]
        slot = island.first_usable(type_name)
        grant = Grant(index, slot, type_name, self.sim.now)
        island.allocate(slot, grant)
        return grant

    # --------------------------------------------------------------- public
    def request(
        self,
        type_name: str,
        preferred_island: typing.Optional[int] = None,
    ) -> Event:
        """Request an ABB of ``type_name``.

        The returned event fires with a :class:`Grant` once a block has
        been allocated; the caller must eventually :meth:`release` it.
        If hard failures have taken every slot of the type out of
        service, the event instead fires immediately with
        :data:`SOFTWARE_FALLBACK` and the caller runs in software.
        """
        operational = self._operational.get(type_name)
        if operational is None:
            raise AllocationError(
                f"no island carries ABB type {type_name!r}; "
                f"the platform cannot compose this graph"
            )
        event = Event(self.sim)
        if not operational:
            self.fallback_grants += 1
            event.succeed(SOFTWARE_FALLBACK)
            return event
        grant = self._try_allocate(type_name, preferred_island)
        if grant is not None:
            self.total_grants += 1
            self.wait_cycles.record(0.0)
            event.succeed(grant)
        else:
            self.total_queued += 1
            self._pending[type_name] += 1
            self._waiters.append(
                _Waiter(event, type_name, preferred_island, self.sim.now)
            )
        return event

    def release(self, grant: Grant) -> None:
        """Return a granted slot; retries queued waiters in FIFO order."""
        if not 0 <= grant.island_index < len(self.islands):
            raise ConfigError(f"island index {grant.island_index} out of range")
        self.service_cycles.record(self.sim.now - grant.granted_at)
        self.islands[grant.island_index].release(grant.slot, grant)
        self._drain_waiters()

    def _drain_waiters(self) -> None:
        # One FIFO pass grants every waiter that can be served now.  A
        # release can free several slots (neighbours too, under SPM
        # sharing), but granting never frees one, so a type found
        # exhausted stays exhausted for the rest of the pass: its later
        # waiters are requeued with a set lookup instead of a policy
        # call.  Under the open-loop serving frontend the wait queue can
        # hold thousands of requests.
        exhausted: set[str] = set()
        operational = self._operational
        remaining: collections.deque[_Waiter] = collections.deque()
        pending = self._pending
        for waiter in self._waiters:
            type_name = waiter.type_name
            if type_name in exhausted:
                remaining.append(waiter)
                continue
            if not operational[type_name]:
                # Every slot of this type hard-failed while the request
                # was queued; resolve it to software rather than strand
                # it forever.
                pending[type_name] -= 1
                self.fallback_grants += 1
                waiter.event.succeed(SOFTWARE_FALLBACK)
                continue
            grant = self._try_allocate(type_name, waiter.preferred)
            if grant is None:
                exhausted.add(type_name)
                remaining.append(waiter)
                continue
            pending[type_name] -= 1
            self.total_grants += 1
            self.wait_cycles.record(self.sim.now - waiter.requested_at)
            waiter.event.succeed(grant)
        self._waiters = remaining

    def fail_slot(self, island_index: int, slot: int) -> None:
        """Take a slot out of service for good (ABB hard failure).

        The one entry for hard failures: the island marks the slot
        failed, the per-type operational count drops, and the wait
        queue is re-evaluated — waiters for a type that just lost its
        last operational slot resolve to software fallback at once
        (they can never be served in hardware).
        """
        # ``-=`` on the item keeps a zero count (all failed) distinct
        # from a missing key (type absent).
        self._operational[self.islands[island_index].fail_slot(slot)] -= 1
        if self._waiters:
            self._drain_waiters()

    # -------------------------------------------------------------- queries
    def queue_length(self) -> int:
        """Requests currently waiting for any type."""
        return len(self._waiters)

    def free_count(self, type_name: str) -> int:
        """Usable slots of a type across all islands right now."""
        return sum(counts.get(type_name, 0) for counts in self._usable_counts)

    def estimate_wait(
        self, type_name: str, service_hint: typing.Optional[float] = None
    ) -> float:
        """GAM-style wait-time feedback for one ABB type.

        Zero when a slot is free.  Otherwise the expected cycles until a
        slot frees up for a request issued *now*: the queue depth ahead
        of it plus the in-service blocks, times the observed mean
        hold time per grant, divided by the number of operational slots
        (slots drain the queue in parallel).  ``service_hint`` seeds the
        mean before any release has been observed (e.g. the compiler's
        cycle estimate); infinite when every slot of the type has
        hard-failed, since hardware composition can never happen.
        Monotone in queue depth, which is what makes it usable as an
        admission signal (see :mod:`repro.serve.frontend`).
        """
        if self.free_count(type_name) > 0:
            return 0.0
        units = self._operational[type_name]
        if units == 0:
            return float("inf")
        mean_service = (
            self.service_cycles.mean
            or service_hint
            or self.wait_cycles.mean
            or 1.0
        )
        ahead = self._pending[type_name] + units
        return ahead * mean_service / units
