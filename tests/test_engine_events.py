"""Unit tests for the event/timeout/simulator primitives."""

import pytest

from repro.engine import Event, Simulator, Timeout
from repro.errors import SimulationError


def test_simulator_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() is None


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda e: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_timeouts_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.timeout(3.0).add_callback(lambda e: order.append("b"))
    sim.timeout(1.0).add_callback(lambda e: order.append("a"))
    sim.timeout(7.0).add_callback(lambda e: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.timeout(2.0, tag).add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).add_callback(lambda e: fired.append(1))
    end = sim.run(until=4.0)
    assert end == 4.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed("payload")
    sim.run()
    assert seen == ["payload"]


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_callback_added_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim._schedule(1.0, lambda: None)


def test_event_triggered_flag():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed()
    sim.run()
    assert event.triggered


def test_hot_path_classes_are_slotted():
    """Event-loop objects are allocated per transfer/grant; they must
    stay ``__slots__``-based (no per-instance ``__dict__``)."""
    from repro.engine import AllOf, Resource

    sim = Simulator()
    instances = [
        sim.event(),
        sim.timeout(1.0),
        sim.process(x for x in []),
        Resource(sim),
        AllOf(sim, []),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
