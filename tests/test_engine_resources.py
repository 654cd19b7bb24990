"""Unit tests for resources, bandwidth servers and AllOf."""

import pytest

from repro.engine import AllOf, BandwidthServer, Resource, Simulator
from repro.errors import CapacityError, ConfigError


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        grants = []
        res.request().add_callback(lambda e: grants.append(sim.now))
        res.request().add_callback(lambda e: grants.append(sim.now))
        sim.run()
        assert grants == [0.0, 0.0]
        assert res.available == 0

    def test_third_request_waits_for_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        order = []

        def holder(tag, hold):
            yield res.request()
            order.append(("got", tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(holder("a", 5.0))
        sim.process(holder("b", 10.0))
        sim.process(holder("c", 1.0))
        sim.run()
        assert order == [("got", "a", 0.0), ("got", "b", 0.0), ("got", "c", 5.0)]

    def test_fifo_ordering_of_waiters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder(tag):
            yield res.request()
            order.append(tag)
            yield sim.timeout(1.0)
            res.release()

        for tag in ["a", "b", "c", "d"]:
            sim.process(holder(tag))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(CapacityError):
            res.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            Resource(sim, capacity=0)

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.request()
        sim.run()
        assert res.queue_length == 2


class TestBandwidthServer:
    def test_single_transfer_latency_and_occupancy(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=4.0, latency=3.0)
        done = []
        link.transfer(64).add_callback(lambda e: done.append(sim.now))
        sim.run()
        # 64 B / 4 B/cy = 16 cycles occupancy + 3 latency.
        assert done == [19.0]

    def test_transfers_serialize(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=1.0)
        done = []
        link.transfer(10).add_callback(lambda e: done.append(("a", sim.now)))
        link.transfer(10).add_callback(lambda e: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 10.0), ("b", 20.0)]

    def test_latency_does_not_occupy_channel(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=1.0, latency=100.0)
        done = []
        link.transfer(10).add_callback(lambda e: done.append(sim.now))
        link.transfer(10).add_callback(lambda e: done.append(sim.now))
        sim.run()
        # Pipelined: occupancies back-to-back, each plus fixed latency.
        assert done == [110.0, 120.0]

    def test_idle_gap_not_counted_busy(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=2.0)

        def late_sender():
            yield sim.timeout(50.0)
            yield link.transfer(20)

        sim.process(late_sender())
        sim.run()
        assert sim.now == 60.0
        assert link.busy_cycles == 10.0
        assert link.utilization(60.0) == pytest.approx(10.0 / 60.0)

    def test_accounting(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=8.0)
        link.transfer(64)
        link.transfer(32)
        sim.run()
        assert link.total_bytes == 96
        assert link.total_transfers == 2

    def test_zero_bandwidth_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            BandwidthServer(sim, bytes_per_cycle=0.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        link = BandwidthServer(sim, bytes_per_cycle=1.0)
        with pytest.raises(ConfigError):
            link.transfer(-5)


class TestAllOf:
    def test_waits_for_all_children(self):
        sim = Simulator()
        events = [sim.timeout(d, d) for d in (5.0, 1.0, 3.0)]
        done = []
        AllOf(sim, events).add_callback(lambda e: done.append((sim.now, e.value)))
        sim.run()
        assert done == [(5.0, [5.0, 1.0, 3.0])]

    def test_empty_fires_immediately(self):
        sim = Simulator()
        done = []
        AllOf(sim, []).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_usable_from_process(self):
        sim = Simulator()
        got = []

        def body():
            values = yield AllOf(sim, [sim.timeout(2.0, "x"), sim.timeout(4.0, "y")])
            got.append((sim.now, values))

        sim.process(body())
        sim.run()
        assert got == [(4.0, ["x", "y"])]
