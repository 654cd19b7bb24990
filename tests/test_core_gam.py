"""Tests for the ARC Global Accelerator Manager."""

import pytest
from hypothesis import given, strategies as st

from repro.core.gam import (
    GlobalAcceleratorManager,
    InterruptModel,
    LIGHTWEIGHT_INTERRUPT_CYCLES,
    OS_INTERRUPT_CYCLES,
)
from repro.engine import Simulator
from repro.errors import AllocationError, ConfigError


def make_gam(n_units=2, **kwargs):
    sim = Simulator()
    return sim, GlobalAcceleratorManager(sim, n_units, **kwargs)


def grant_now(sim, gam):
    """Request a unit and return the granted index."""
    granted = []
    gam.request().add_callback(lambda e: granted.append(e.value))
    sim.run()
    return granted[0]


class TestArbitration:
    def test_grants_up_to_capacity(self):
        sim, gam = make_gam(2)
        grants = []
        for _ in range(3):
            gam.request().add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert grants == [0, 1]  # the third request waits

    def test_third_request_queues_fifo(self):
        sim, gam = make_gam(1)
        order = []

        def user(tag, hold):
            unit = yield gam.request()
            order.append(tag)
            yield sim.timeout(hold)
            gam.release(unit)

        for tag in "abc":
            sim.process(user(tag, 10))
        sim.run()
        assert order == ["a", "b", "c"]

    @given(
        n_units=st.integers(1, 5),
        holds=st.lists(st.integers(1, 50), min_size=1, max_size=12),
    )
    def test_units_held_at_once_are_distinct(self, n_units, holds):
        sim, gam = make_gam(n_units)
        held = set()

        def user(hold):
            unit = yield gam.request()
            assert 0 <= unit < n_units
            assert unit not in held
            held.add(unit)
            yield sim.timeout(hold)
            held.remove(unit)
            gam.release(unit)

        for hold in holds:
            sim.process(user(hold))
        sim.run()
        assert not held

    def test_out_of_order_release_hands_over_released_unit(self):
        # Unit 0 is held longer than unit 1, so unit 1 comes back first:
        # the oldest waiter must get unit 1, not the still-busy unit 0.
        sim, gam = make_gam(2)
        grants = []

        def user(tag, hold):
            unit = yield gam.request()
            grants.append((tag, unit, sim.now))
            yield sim.timeout(hold)
            gam.release(unit)

        sim.process(user("long", 100))
        sim.process(user("short", 10))
        sim.process(user("waiter", 10))
        sim.run()
        assert grants == [
            ("long", 0, 0.0),
            ("short", 1, 0.0),
            ("waiter", 1, 10.0),
        ]

    def test_release_of_idle_unit_rejected(self):
        _, gam = make_gam(2)
        with pytest.raises(AllocationError):
            gam.release(0)

    def test_release_of_unheld_unit_rejected(self):
        sim, gam = make_gam(2)
        unit = grant_now(sim, gam)
        gam.release(unit)
        with pytest.raises(AllocationError):
            gam.release(unit)  # double release
        with pytest.raises(AllocationError):
            gam.release(7)  # no such unit

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            GlobalAcceleratorManager(Simulator(), 0)


class TestInterrupts:
    def test_lightweight_is_two_orders_cheaper(self):
        assert OS_INTERRUPT_CYCLES / LIGHTWEIGHT_INTERRUPT_CYCLES >= 100

    def test_release_fires_interrupt(self):
        sim, gam = make_gam()
        cost = gam.release(grant_now(sim, gam))
        assert cost == LIGHTWEIGHT_INTERRUPT_CYCLES
        assert gam.interrupts.count == 1

    def test_os_interrupt_mode(self):
        sim, gam = make_gam(lightweight_interrupts=False)
        assert gam.release(grant_now(sim, gam)) == OS_INTERRUPT_CYCLES

    def test_total_overhead_accumulates(self):
        model = InterruptModel(lightweight=True)
        for _ in range(5):
            model.record()
        assert model.total_overhead_cycles == 5 * LIGHTWEIGHT_INTERRUPT_CYCLES
