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
from functools import partial

from repro.core.allocation import AllocationPolicy, locality_then_load_balance
from repro.engine import Simulator
from repro.engine.stats import Histogram
from repro.errors import AllocationError, ConfigError
from repro.island.island import Island

#: Sentinel value a :meth:`AcceleratorBlockComposer.request` answers
#: with when no operational ABB of the requested type remains anywhere on
#: the platform; the caller must run the task in software on the cores.
SOFTWARE_FALLBACK = "software-fallback"


class Grant(typing.NamedTuple):
    """An allocated ABB slot, returned by :meth:`ABC.request`.

    The grant itself is the slot's owner on its island, compared by
    identity: two grants of one slot at one instant are equal but never
    the same object.  A named tuple: a request makes one, and a tuple is
    the cheapest record to build.

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


class _Waiter(typing.NamedTuple):
    """A queued allocation request and the callback its answer goes to."""

    then: typing.Callable[[object], None]
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
        # Each island's busy fraction, what the policy balances load on:
        # set after every allocate and release, which only the ABC makes.
        self._busy = [island.busy_fraction() for island in self.islands]
        self._waiters: collections.deque[_Waiter] = collections.deque()
        # Queued requests per type, kept on enqueue, grant and fallback
        # (estimate_wait reads it on every admission decision).
        self._pending: collections.Counter[str] = collections.Counter()
        # Operational (non-failed, free or busy) slots per type across
        # all islands, kept by :meth:`fail_slot`.  A type with no key
        # exists nowhere; a count of zero means every slot of it failed.
        # The islands that carry each type, in index order: the slot
        # layout is fixed, so a request scans only these.
        self._operational: collections.Counter[str] = collections.Counter()
        self._carriers: dict[str, list[int]] = {}
        for index, island in enumerate(self.islands):
            for type_name in island.usable_counts:
                self._operational[type_name] += len(island.slots_of_type(type_name))
                self._carriers.setdefault(type_name, []).append(index)
        self.wait_cycles = Histogram("abc.wait")
        self.service_cycles = Histogram("abc.service")
        self.total_grants = 0
        self.total_queued = 0
        self.fallback_grants = 0

    # ------------------------------------------------------------ internals
    def _try_allocate(
        self, type_name: str, preferred: typing.Optional[int]
    ) -> typing.Optional[Grant]:
        usable = self._usable_counts
        candidates = [
            index for index in self._carriers[type_name] if usable[index][type_name]
        ]
        if not candidates:
            return None
        index = self.policy(self._busy, candidates, preferred)
        island = self.islands[index]
        slot = island.first_usable(type_name)
        grant = Grant(index, slot, type_name, self.sim.now)
        island.allocate(slot, grant)
        self._busy[index] = island.busy_fraction()
        return grant

    # --------------------------------------------------------------- public
    def request(
        self,
        type_name: str,
        preferred_island: typing.Optional[int],
        then: typing.Callable[[object], None],
    ) -> None:
        """Request an ABB of ``type_name``; ``then`` gets the answer.

        A block free now runs ``then(grant)`` inside this call;
        otherwise the request queues FIFO and a later release runs
        ``then(grant)`` from one heap entry.  The caller must eventually
        :meth:`release` the :class:`Grant`.  If hard failures have taken
        every slot of the type out of service, ``then`` gets
        :data:`SOFTWARE_FALLBACK` from one heap entry and the caller
        runs in software.
        """
        operational = self._operational.get(type_name)
        if operational is None:
            raise AllocationError(
                f"no island carries ABB type {type_name!r}; "
                f"the platform cannot compose this graph"
            )
        if not operational:
            self.fallback_grants += 1
            self._answer(then, SOFTWARE_FALLBACK)
            return
        grant = self._try_allocate(type_name, preferred_island)
        if grant is not None:
            self.total_grants += 1
            self.wait_cycles.record(0.0)
            then(grant)
            return
        self.total_queued += 1
        self._pending[type_name] += 1
        self._waiters.append(_Waiter(then, type_name, preferred_island, self.sim.now))

    def release(self, grant: Grant) -> None:
        """Return a granted slot; retries queued waiters in FIFO order."""
        if not 0 <= grant.island_index < len(self.islands):
            raise ConfigError(f"island index {grant.island_index} out of range")
        self.service_cycles.record(self.sim.now - grant.granted_at)
        island = self.islands[grant.island_index]
        island.release(grant.slot, grant)
        self._busy[grant.island_index] = island.busy_fraction()
        if self._waiters:
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
                self._answer(waiter.then, SOFTWARE_FALLBACK)
                continue
            grant = self._try_allocate(type_name, waiter.preferred)
            if grant is None:
                exhausted.add(type_name)
                remaining.append(waiter)
                continue
            pending[type_name] -= 1
            self.total_grants += 1
            self.wait_cycles.record(self.sim.now - waiter.requested_at)
            self._answer(waiter.then, grant)
        self._waiters = remaining

    def _answer(self, then: typing.Callable[[object], None], value: object) -> None:
        """Answer a deferred request with ``value`` from a heap entry at now."""
        self.sim.schedule(self.sim.now, partial(then, value))

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

    def stranded(self) -> list[str]:
        """The queued requests, named (a drained run leaves none)."""
        return [
            f"{waiter.type_name} request queued at cycle {waiter.requested_at:g}"
            for waiter in self._waiters
        ]

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
