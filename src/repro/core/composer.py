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
from dataclasses import dataclass, field

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
    _token: object = field(repr=False, default=None)
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
        self._waiters: collections.deque[_Waiter] = collections.deque()
        # Request-path caches: island ABB mixes are fixed at
        # construction, so type existence never changes; and until the
        # fault layer reports a hard failure every existing slot is
        # operational, making both checks O(1) on clean platforms.
        self._type_exists_cache: dict[str, bool] = {}
        self._any_failures = False
        self.wait_cycles = Histogram("abc.wait")
        self.service_cycles = Histogram("abc.service")
        self.total_grants = 0
        self.total_queued = 0
        self.fallback_grants = 0

    # ------------------------------------------------------------ internals
    def _type_exists(self, type_name: str) -> bool:
        exists = self._type_exists_cache.get(type_name)
        if exists is None:
            exists = any(
                island.slots_of_type(type_name) for island in self.islands
            )
            self._type_exists_cache[type_name] = exists
        return exists

    def _type_operational(self, type_name: str) -> bool:
        """Whether any non-failed slot of a type survives anywhere.

        A busy operational slot counts: it will free up and serve queued
        requests.  Only when every slot of the type has hard-failed is
        hardware composition impossible.
        """
        if not self._any_failures:
            return self._type_exists(type_name)
        return any(
            island.operational_slots(type_name) for island in self.islands
        )

    def _try_allocate(
        self, type_name: str, preferred: typing.Optional[int]
    ) -> typing.Optional[Grant]:
        for island_idx in self.policy(self.islands, preferred):
            free = self.islands[island_idx].free_slots(type_name)
            if free:
                slot = free[0]
                token = object()
                self.islands[island_idx].allocate(slot, token)
                return Grant(island_idx, slot, type_name, token, self.sim.now)
        return None

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
        if not self._type_exists(type_name):
            raise AllocationError(
                f"no island carries ABB type {type_name!r}; "
                f"the platform cannot compose this graph"
            )
        event = Event(self.sim)
        if not self._type_operational(type_name):
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
            self._waiters.append(
                _Waiter(event, type_name, preferred_island, self.sim.now)
            )
        return event

    def release(self, grant: Grant, invocations: int) -> None:
        """Return a granted slot; retries queued waiters in FIFO order."""
        if not 0 <= grant.island_index < len(self.islands):
            raise ConfigError(f"island index {grant.island_index} out of range")
        self.service_cycles.record(self.sim.now - grant.granted_at)
        self.islands[grant.island_index].release(
            grant.slot, grant._token, invocations
        )
        self._drain_waiters()

    def _drain_waiters(self) -> None:
        # Retry every waiter in FIFO order until a full pass grants
        # nothing (a release can free neighbours too, under SPM sharing,
        # so one release may unblock several waiters).
        #
        # Per-type free counts gate the scan: a waiter whose type has no
        # free slot left this pass is requeued with a cheap dict lookup
        # instead of a full policy + slot-scan `_try_allocate` call.
        # Under the open-loop serving frontend the wait queue can hold
        # thousands of requests, and the ungated scan made every release
        # O(waiters x slots) — this is the difference between serving
        # sessions draining in seconds versus minutes.
        progress = True
        while progress and self._waiters:
            progress = False
            free_count: dict[str, int] = {}
            operational: dict[str, bool] = {}
            remaining: collections.deque[_Waiter] = collections.deque()
            while self._waiters:
                waiter = self._waiters.popleft()
                type_name = waiter.type_name
                if type_name not in operational:
                    operational[type_name] = self._type_operational(type_name)
                if not operational[type_name]:
                    # Every slot of this type hard-failed while the
                    # request was queued; resolve it to software rather
                    # than strand it forever.
                    progress = True
                    self.fallback_grants += 1
                    waiter.event.succeed(SOFTWARE_FALLBACK)
                    continue
                if type_name not in free_count:
                    free_count[type_name] = self.free_count(type_name)
                if free_count[type_name] <= 0:
                    # No slot can serve this waiter; skip the policy call.
                    remaining.append(waiter)
                    continue
                grant = self._try_allocate(type_name, waiter.preferred)
                if grant is None:
                    # SPM-sharing port conflicts can shrink free slots
                    # mid-pass; treat the stale count as exhausted.
                    free_count[type_name] = 0
                    remaining.append(waiter)
                else:
                    # A cached count can only overestimate after this
                    # grant (allocation never frees slots mid-pass), and
                    # an overestimate merely costs one corrective
                    # `_try_allocate`, so other types' counts stay.
                    free_count[type_name] -= 1
                    progress = True
                    self.total_grants += 1
                    self.wait_cycles.record(self.sim.now - waiter.requested_at)
                    waiter.event.succeed(grant)
            self._waiters = remaining

    def on_slot_failed(self, type_name: str) -> None:
        """React to an ABB hard failure reported by the fault layer.

        Re-evaluates the wait queue: waiters for a type that just lost
        its last operational slot are resolved to software fallback
        immediately (they can never be served in hardware).
        """
        self._any_failures = True
        if self._waiters:
            self._drain_waiters()

    # -------------------------------------------------------------- queries
    def queue_length(self) -> int:
        """Requests currently waiting for any type."""
        return len(self._waiters)

    def free_count(self, type_name: str) -> int:
        """Usable slots of a type across all islands right now."""
        return sum(len(i.free_slots(type_name)) for i in self.islands)

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
        units = sum(len(i.operational_slots(type_name)) for i in self.islands)
        if units == 0:
            return float("inf")
        mean_service = (
            self.service_cycles.mean
            or service_hint
            or self.wait_cycles.mean
            or 1.0
        )
        pending = sum(1 for w in self._waiters if w.type_name == type_name)
        ahead = pending + units
        return ahead * mean_service / units
