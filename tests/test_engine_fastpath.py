"""Tests for the kernel fast paths added by the engine hot-path work.

Covers the closed-form bandwidth-server reservation (against the
event-returning transfer built on it), AllOf edge cases around triggered
and duplicated children, Store get-before-put determinism, non-finite
time rejection in every scheduling entry point, the pooled-timeout
recycle path, and the lazy span materialization of the tracer.
"""

import pytest

from repro.engine import AllOf, BandwidthServer, Event, Simulator, Store
from repro.engine.event import PooledTimeout
from repro.engine.trace import TraceRecord, Tracer
from repro.errors import ConfigError, SimulationError


class TestTransferAnalytic:
    """The closed-form path: ``reserve`` against the event-returning
    ``transfer`` built on it."""

    def test_uncontended_returns_float(self):
        sim = Simulator()
        server = BandwidthServer(sim, bytes_per_cycle=4.0, latency=2.0)
        done = server.reserve(100.0)
        assert isinstance(done, float)
        assert done == 100.0 / 4.0 + 2.0

    def test_completion_times_match_plain_transfer_sequence(self):
        """reserve() and transfer() agree bit-for-bit under contention."""
        sizes = [100.0, 60.0, 0.0, 512.0, 7.0]

        def issue(sim, server, use_reserve, log):
            def body():
                for nbytes in sizes:
                    if use_reserve:
                        done = server.reserve(nbytes)
                        log.append(done)
                        yield sim.delay(done - sim.now)
                    else:
                        yield server.transfer(nbytes)
                        log.append(sim.now)

            sim.process(body())

        exact_log: list = []
        sim1 = Simulator()
        issue(sim1, BandwidthServer(sim1, 4.0, latency=2.0), False, exact_log)
        sim1.run()

        fast_log: list = []
        sim2 = Simulator()
        issue(sim2, BandwidthServer(sim2, 4.0, latency=2.0), True, fast_log)
        sim2.run()

        assert fast_log == exact_log

    def test_accounting_identical_on_both_paths(self):
        sim = Simulator()
        fast = BandwidthServer(sim, 8.0, latency=1.0)
        exact = BandwidthServer(sim, 8.0, latency=1.0)
        done = fast.reserve(64.0)
        event = exact.transfer(64.0)
        assert fast.busy_cycles == exact.busy_cycles
        assert fast.total_bytes == exact.total_bytes
        assert fast.total_transfers == exact.total_transfers
        assert fast._free_at == exact._free_at
        sim.run()
        assert event.triggered and sim.now == done

    def test_negative_size_rejected_on_fast_path(self):
        sim = Simulator()
        server = BandwidthServer(sim, 4.0)
        with pytest.raises(ConfigError):
            server.reserve(-1.0)
        with pytest.raises(ConfigError):
            server.transfer(-1.0)
        assert server.total_transfers == 0


class TestAllOfEdgeCases:
    def test_already_triggered_children_counted(self):
        """Children that fired before the join was built still resolve it."""
        sim = Simulator()
        early = Event(sim).succeed("early")
        late = sim.timeout(5.0, value="late")
        sim.run(until=1.0)  # fire `early` only
        assert early.triggered and not late.triggered
        join = AllOf(sim, [early, late])
        sim.run()
        assert join.value == ["early", "late"]

    def test_all_children_pretriggered_fires_without_stepping(self):
        sim = Simulator()
        a = Event(sim).succeed(1)
        b = Event(sim).succeed(2)
        sim.run()
        join = AllOf(sim, [a, b])
        # Both callbacks ran synchronously inside __init__; only the
        # join's own succeed() entry is left on the heap.
        sim.run()
        assert join.triggered
        assert join.value == [1, 2]

    def test_duplicate_event_counts_once_per_mention(self):
        """Listing one event twice needs only one firing, yields two values."""
        sim = Simulator()
        shared = sim.timeout(3.0, value="x")
        join = AllOf(sim, [shared, shared])
        sim.run()
        assert join.triggered
        assert join.value == ["x", "x"]

    def test_value_order_follows_argument_order_not_fire_order(self):
        sim = Simulator()
        slow = sim.timeout(9.0, value="slow")
        quick = sim.timeout(1.0, value="quick")
        join = AllOf(sim, [slow, quick])
        sim.run()
        assert join.value == ["slow", "quick"]


class TestStoreDeterminism:
    def test_getters_before_puts_fifo(self):
        """Blocked getters are served in arrival order, not put order."""
        sim = Simulator()
        store = Store(sim)
        log = []

        def getter(tag):
            item = yield store.get()
            log.append((tag, item, sim.now))

        def putter():
            yield sim.timeout(1.0)
            store.put("first")
            yield sim.timeout(1.0)
            store.put("second")

        sim.process(getter("g0"))
        sim.process(getter("g1"))
        sim.process(putter())
        sim.run()
        assert log == [("g0", "first", 1.0), ("g1", "second", 2.0)]

    def test_interleaved_get_put_get(self):
        sim = Simulator()
        store = Store(sim)
        blocked = store.get()
        store.put("a")  # wakes the blocked getter, bypassing the queue
        store.put("b")  # queued: nobody waiting
        ready = store.get()
        sim.run()
        assert blocked.triggered and blocked.value == "a"
        assert ready.triggered and ready.value == "b"
        assert len(store) == 0


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_non_finite(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim._schedule(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_timeout_rejects_bad_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.timeout(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_pooled_delay_rejects_bad_delay_fresh_and_recycled(self, bad):
        sim = Simulator()
        # Fresh path (empty pool) goes through PooledTimeout.__init__.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.delay(bad)

        # Prime the pool: a consumed delay is recycled by Process._resume.
        def body():
            yield sim.delay(1.0)

        sim.process(body())
        sim.run()
        assert sim._timeout_pool  # the recycle happened
        # Recycled path re-arms inline and must apply the same checks.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.delay(bad)

    def test_timeout_overflow_to_inf_rejected(self):
        big = 1e308
        sim = Simulator()
        sim.now = big
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.timeout(big)  # now + delay overflows to +inf


class TestPooledTimeoutRecycling:
    def test_consumed_delay_instance_is_reused(self):
        sim = Simulator()
        seen = []

        def body():
            first = sim.delay(1.0)
            seen.append(first)
            yield first
            second = sim.delay(1.0)
            seen.append(second)
            yield second

        sim.process(body())
        sim.run()
        assert isinstance(seen[0], PooledTimeout)
        assert seen[0] is seen[1]  # same object, re-armed from the pool

    def test_public_timeout_never_pooled(self):
        sim = Simulator()

        def body():
            held = sim.timeout(1.0, value="keep")
            yield held
            seen_value = held.value  # still readable after firing
            assert seen_value == "keep"
            yield sim.timeout(1.0)
            assert held.value == "keep"  # not recycled out from under us

        sim.process(body())
        sim.run()
        assert not sim._timeout_pool


class TestLazyTracerMaterialization:
    def test_records_materialized_once_and_cached(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        assert tracer._records is None  # nothing materialized yet
        first = tracer.records
        assert first is tracer.records  # same list object on re-access
        assert isinstance(first[0], TraceRecord)

    def test_spans_recorded_after_access_appear(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        assert len(tracer.records) == 1
        tracer.record(1.0, 2.0, "b", "mem")
        recs = tracer.records
        assert [r.actor for r in recs] == ["a", "b"]
        assert len(tracer) == 2

    def test_external_append_to_records_visible_to_raw_spans(self):
        tracer = Tracer()
        tracer.record(0.0, 1.0, "a", "compute")
        tracer.records.append(TraceRecord(1.0, 2.0, "b", "mem"))
        spans = tracer._raw_spans()
        assert [s[2] for s in spans] == ["a", "b"]
        assert tracer.end_time() == 2.0

    def test_record_validation_errors_preserved(self):
        tracer = Tracer()
        with pytest.raises(ConfigError, match="finite"):
            tracer.record(float("nan"), 1.0, "a", "compute")
        with pytest.raises(ConfigError, match="ends before it starts"):
            tracer.record(2.0, 1.0, "a", "compute")
        assert len(tracer) == 0  # nothing slipped in

    def test_trace_record_still_immutable(self):
        rec = TraceRecord(0.0, 1.0, "a", "compute")
        with pytest.raises(Exception):
            rec.start = 5.0


def test_process_non_event_yield_closes_generator():
    """The kernel closes the body so its finally blocks run."""
    sim = Simulator()
    closed = []

    def body():
        try:
            yield "not an event"
        finally:
            closed.append(True)

    sim.process(body())
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()
    assert closed == [True]
