"""Unit tests for the event/timeout/simulator primitives."""

import pytest

from repro.engine import BandwidthServer, Event, Route, Simulator
from repro.engine.route import DONE, SERVE, WAIT, leg
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


@pytest.mark.parametrize("until", [50.0, float("nan"), float("inf")])
def test_run_until_rejects_past_and_non_finite_deadlines(until):
    """The clock never moves backwards, and a NaN or infinite deadline
    is no deadline at all; each is an error, and nothing runs."""
    sim = Simulator()
    fired = []
    sim.timeout(200.0).add_callback(lambda e: fired.append(sim.now))
    assert sim.run(until=150.0) == 150.0
    with pytest.raises(SimulationError):
        sim.run(until=until)
    assert sim.now == 150.0
    assert fired == []


def test_finished_process_without_waiter_pushes_no_entry():
    """A process that ends with nothing waiting only marks itself
    triggered; a later waiter runs at once with its value."""
    sim = Simulator()

    def body():
        yield sim.timeout(3.0)
        return "done"

    process = sim.process(body())
    sim.run()
    assert sim._seq == 2  # the spawn kick and the timeout only
    assert process.triggered
    seen = []
    process.add_callback(lambda e: seen.append((sim.now, e.value)))
    assert seen == [(3.0, "done")]
    assert sim.peek() is None


def test_same_instant_routes_served_in_issue_order():
    """Two routes issued at one instant onto one server: the first leg
    of each runs inside its issue, so the first issued is served first."""
    sim = Simulator()
    server = BandwidthServer(sim, bytes_per_cycle=1.0)
    legs = (leg(SERVE, server), DONE)
    done = {}

    def issue(_event):
        for tag, nbytes in (("first", 10.0), ("second", 4.0)):
            Route(sim, legs, lambda tag=tag: done.setdefault(tag, sim.now), nbytes)

    sim.timeout(5.0).add_callback(issue)
    sim.run()
    assert done == {"first": 15.0, "second": 19.0}


def test_route_end_runs_inside_its_last_leg():
    """A route adds no heap entry to start or to end: one of only an
    END finishes inside its constructor, and a one-leg route finishes
    inside that leg's entry."""
    sim = Simulator()
    done = []
    Route(sim, (DONE,), lambda: done.append(sim.now), 1.0)
    assert done == [0.0]
    assert sim._seq == 0
    Route(sim, (leg(WAIT, 3.0), DONE), lambda: done.append(sim.now), 1.0)
    sim.run()
    assert done == [0.0, 3.0]
    assert sim._seq == 1


def test_stop_drops_pending_entries():
    sim = Simulator()
    fired = []
    sim.timeout(2.0).add_callback(lambda e: sim.stop())
    sim.timeout(9.0).add_callback(lambda e: fired.append(sim.now))
    assert sim.run() == 2.0
    assert fired == []
    assert sim.peek() is None


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
        sim.timeout(-1.0)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(1.0, lambda: None)


def test_event_triggered_flag():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    event.succeed()
    sim.run()
    assert event.triggered


def test_hot_path_classes_are_slotted():
    """Engine objects stay ``__slots__``-based (no per-instance
    ``__dict__``)."""
    from repro.engine import AllOf, Resource

    sim = Simulator()
    instances = [
        sim.event(),
        sim.process(x for x in []),
        Resource(sim),
        AllOf(sim, []),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
