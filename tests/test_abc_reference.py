"""Differential check: the ABC's allocation index against a plain reference.

The reference is the allocator the index replaced: on every request it
sorts the islands into the policy's order and scans every slot of the
type for the first usable one; its usable test reads the slot's raw
state (failure, the island's one owner record, sharing locks); its wait
queue is drained in repeated passes with per-pass free counts, and it
counts pending waiters by scanning the queue.  It runs on a twin
platform (same configuration).  Hypothesis generates platforms and
sequences of requests, releases, ABB failures and time steps, with SPM
sharing on and off and under both policies; after every step both
allocators must have made the same grants in the same order and report
the same free counts, queue length and wait estimates, and the ABC's
per-type operational count must equal a scan of the non-failed slots.
"""

import collections

from hypothesis import given, settings, strategies as st

from repro.abb import standard_library
from repro.core import AcceleratorBlockComposer, first_fit
from repro.core.allocation import locality_then_load_balance
from repro.core.composer import SOFTWARE_FALLBACK, Grant
from repro.engine import Event, Simulator
from repro.engine.stats import Histogram
from repro.errors import AllocationError
from repro.island import Island, IslandConfig

TYPES = ("poly", "div", "sum")


# ----------------------------------------------------------- reference
def ref_usable(island, slot):
    if island._failed[slot]:
        return False
    if island._owner[slot] is not None:
        return False
    if island.config.spm_sharing and island._neighbor_locks[slot] > 0:
        return False
    return True


def ref_free_slots(island, type_name):
    return [s for s in island.slots_of_type(type_name) if ref_usable(island, s)]


def ref_operational(island, type_name):
    return [s for s in island.slots_of_type(type_name) if not island._failed[s]]


def ref_order(policy, islands, preferred):
    """The island order the policy's sort produced."""
    if policy is first_fit:
        return list(range(len(islands)))
    order = sorted(
        range(len(islands)), key=lambda i: (islands[i].busy_fraction(), i)
    )
    if preferred is not None and 0 <= preferred < len(islands):
        order.remove(preferred)
        order.insert(0, preferred)
    return order


class ReferenceABC:
    """Sort-then-scan allocation with a multi-pass FIFO drain."""

    def __init__(self, sim, islands, policy):
        self.sim = sim
        self.islands = islands
        self.policy = policy
        self._waiters = collections.deque()
        self.wait_cycles = Histogram("ref.wait")
        self.service_cycles = Histogram("ref.service")
        self.total_grants = 0
        self.total_queued = 0
        self.fallback_grants = 0

    def _type_operational(self, type_name):
        return any(ref_operational(i, type_name) for i in self.islands)

    def _try_allocate(self, type_name, preferred):
        for island_idx in ref_order(self.policy, self.islands, preferred):
            free = ref_free_slots(self.islands[island_idx], type_name)
            if free:
                grant = Grant(island_idx, free[0], type_name, self.sim.now)
                self.islands[island_idx].allocate(free[0], grant)
                return grant
        return None

    def request(self, type_name, preferred=None):
        if not any(i.slots_of_type(type_name) for i in self.islands):
            raise AllocationError(type_name)
        event = Event(self.sim)
        if not self._type_operational(type_name):
            self.fallback_grants += 1
            return event.succeed(SOFTWARE_FALLBACK)
        grant = self._try_allocate(type_name, preferred)
        if grant is not None:
            self.total_grants += 1
            self.wait_cycles.record(0.0)
            event.succeed(grant)
        else:
            self.total_queued += 1
            self._waiters.append((event, type_name, preferred, self.sim.now))
        return event

    def release(self, grant):
        self.service_cycles.record(self.sim.now - grant.granted_at)
        self.islands[grant.island_index].release(grant.slot, grant)
        self._drain_waiters()

    def fail_slot(self, island_index, slot):
        self.islands[island_index].fail_slot(slot)
        if self._waiters:
            self._drain_waiters()

    def _drain_waiters(self):
        progress = True
        while progress and self._waiters:
            progress = False
            free_count = {}
            operational = {}
            remaining = collections.deque()
            while self._waiters:
                waiter = self._waiters.popleft()
                event, type_name, preferred, requested_at = waiter
                if type_name not in operational:
                    operational[type_name] = self._type_operational(type_name)
                if not operational[type_name]:
                    progress = True
                    self.fallback_grants += 1
                    event.succeed(SOFTWARE_FALLBACK)
                    continue
                if type_name not in free_count:
                    free_count[type_name] = self.free_count(type_name)
                if free_count[type_name] <= 0:
                    remaining.append(waiter)
                    continue
                grant = self._try_allocate(type_name, preferred)
                if grant is None:
                    free_count[type_name] = 0
                    remaining.append(waiter)
                else:
                    free_count[type_name] -= 1
                    progress = True
                    self.total_grants += 1
                    self.wait_cycles.record(self.sim.now - requested_at)
                    event.succeed(grant)
            self._waiters = remaining

    def queue_length(self):
        return len(self._waiters)

    def free_count(self, type_name):
        return sum(len(ref_free_slots(i, type_name)) for i in self.islands)

    def estimate_wait(self, type_name, service_hint=None):
        if self.free_count(type_name) > 0:
            return 0.0
        units = sum(len(ref_operational(i, type_name)) for i in self.islands)
        if units == 0:
            return float("inf")
        mean_service = (
            self.service_cycles.mean
            or service_hint
            or self.wait_cycles.mean
            or 1.0
        )
        pending = sum(1 for w in self._waiters if w[1] == type_name)
        return (pending + units) * mean_service / units


# -------------------------------------------------------------- driver
class Platform:
    """One allocator on its own simulator and islands."""

    def __init__(self, mixes, sharing, policy, reference):
        self.sim = Simulator()
        library = standard_library()
        self.islands = [
            Island(
                self.sim, index,
                IslandConfig(abb_mix=dict(mix), spm_sharing=sharing), library,
            )
            for index, mix in enumerate(mixes)
        ]
        cls = ReferenceABC if reference else AcceleratorBlockComposer
        self.abc = cls(self.sim, self.islands, policy)
        self.held = []  # grants not yet released, in grant order
        self.log = []  # (request id, grant or fallback), in firing order
        self.requests = 0

    def step(self, op):
        kind, a, b = op
        if kind == "request":
            if not any(i.slots_of_type(a) for i in self.islands):
                return
            rid = self.requests
            self.requests += 1
            self.abc.request(a, b).add_callback(
                lambda event, rid=rid: self._granted(rid, event.value)
            )
        elif kind == "release" and self.held:
            grant = self.held.pop(a % len(self.held))
            self.islands[grant.island_index].compute(grant.slot, 1)
            self.abc.release(grant)
        elif kind == "fail":
            index = a % len(self.islands)
            slot = b % self.islands[index].n_slots
            if not self.islands[index]._failed[slot]:
                self.abc.fail_slot(index, slot)
        elif kind == "wait":
            self.sim.timeout(float(a))
        self.sim.run()

    def _granted(self, rid, value):
        if value == SOFTWARE_FALLBACK:
            self.log.append((rid, value, self.sim.now))
            return
        self.held.append(value)
        self.log.append(
            (rid, value.island_index, value.slot, value.type_name, value.granted_at)
        )

    def observe(self):
        abc = self.abc
        return (
            list(self.log),
            abc.queue_length(),
            abc.total_grants,
            abc.total_queued,
            abc.fallback_grants,
            [abc.free_count(t) for t in TYPES],
            [abc.estimate_wait(t) for t in TYPES],
            [abc.estimate_wait(t, service_hint=37.0) for t in TYPES],
        )


mixes = st.lists(
    st.dictionaries(
        st.sampled_from(TYPES), st.integers(1, 3), min_size=1, max_size=3
    ),
    min_size=1,
    max_size=4,
)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(TYPES),
            st.one_of(st.none(), st.integers(0, 4)),
        ),
        st.tuples(st.just("release"), st.integers(0, 20), st.none()),
        st.tuples(st.just("fail"), st.integers(0, 3), st.integers(0, 8)),
        st.tuples(st.just("wait"), st.integers(1, 50), st.none()),
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(
    mixes=mixes,
    sharing=st.booleans(),
    policy=st.sampled_from([locality_then_load_balance, first_fit]),
    ops=ops,
)
def test_abc_index_matches_reference(mixes, sharing, policy, ops):
    indexed = Platform(mixes, sharing, policy, reference=False)
    reference = Platform(mixes, sharing, policy, reference=True)
    for op in ops:
        indexed.step(op)
        reference.step(op)
        assert indexed.observe() == reference.observe(), op
        types = {t.name for island in indexed.islands for t in island.abbs}
        operational = {
            t: sum(len(ref_operational(i, t)) for i in indexed.islands)
            for t in types
        }
        assert dict(indexed.abc._operational) == operational, op
