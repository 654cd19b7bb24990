"""Tests for the Accelerator Block Composer."""

import pytest

from repro.abb import standard_library
from repro.core import AcceleratorBlockComposer, first_fit
from repro.core.allocation import locality_then_load_balance
from repro.core.composer import SOFTWARE_FALLBACK
from repro.engine import Simulator
from repro.errors import AllocationError, ConfigError
from repro.island import Island, IslandConfig


def make_islands(sim, n_islands=2, mix=None):
    mix = mix or {"poly": 2, "div": 1}
    lib = standard_library()
    return [
        Island(sim, i, IslandConfig(abb_mix=dict(mix)), lib)
        for i in range(n_islands)
    ]


def make_abc(n_islands=2, mix=None, policy=locality_then_load_balance):
    sim = Simulator()
    islands = make_islands(sim, n_islands, mix)
    return sim, islands, AcceleratorBlockComposer(sim, islands, policy)


class TestRequestRelease:
    def test_immediate_grant_when_free(self):
        sim, islands, abc = make_abc()
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert len(grants) == 1
        grant = grants[0]
        assert grant.type_name == "poly"
        assert not islands[grant.island_index].slot_usable(grant.slot)

    def test_release_returns_slot(self):
        sim, islands, abc = make_abc()
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        grant = grants[0]
        islands[grant.island_index].compute(grant.slot, 1)
        abc.release(grant)
        assert islands[grant.island_index].slot_usable(grant.slot)

    def test_queue_when_all_busy(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"div": 1})
        order = []

        def user(tag, hold):
            grant = yield abc.request("div")
            order.append((tag, sim.now))
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(hold)
            abc.release(grant)

        sim.process(user("a", 10))
        sim.process(user("b", 10))
        sim.run()
        assert order == [("a", 0.0), ("b", 10.0)]
        assert abc.total_queued == 1

    def test_unknown_type_raises_immediately(self):
        _, _, abc = make_abc()
        with pytest.raises(AllocationError):
            abc.request("fft")

    def test_missing_type_on_platform_raises(self):
        _, _, abc = make_abc(mix={"poly": 2})
        with pytest.raises(AllocationError):
            abc.request("sum")

    def test_empty_islands_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorBlockComposer(Simulator(), [])


class TestPolicies:
    def test_load_balancing_spreads_work(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 4})
        grants = []
        for _ in range(4):
            abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        used = {g.island_index for g in grants}
        assert used == {0, 1}

    def test_first_fit_fills_island_zero_first(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 4}, policy=first_fit)
        grants = []
        for _ in range(4):
            abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert all(g.island_index == 0 for g in grants)

    def test_locality_preference_honoured(self):
        sim, islands, abc = make_abc(n_islands=3, mix={"poly": 4})
        grants = []
        abc.request("poly", preferred_island=2).add_callback(
            lambda e: grants.append(e.value)
        )
        sim.run()
        assert grants[0].island_index == 2


class TestEmptyIslandPolicies:
    @pytest.mark.parametrize("policy", [locality_then_load_balance, first_fit])
    def test_policy_rejects_empty_platform(self, policy):
        with pytest.raises(AllocationError, match="empty island list"):
            policy([], [], None)


class TestWaiterDrain:
    def test_fifo_wakeup_order(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})
        order = []

        def user(tag):
            grant = yield abc.request("poly")
            order.append(tag)
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(5)
            abc.release(grant)

        for tag in "abcd":
            sim.process(user(tag))
        sim.run()
        assert order == list("abcd")

    def test_waiter_of_other_type_not_starved(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1, "div": 1})
        got = []

        def poly_user():
            grant = yield abc.request("poly")
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(50)
            abc.release(grant)
            got.append("poly_done")

        def div_user():
            yield sim.timeout(1)
            grant = yield abc.request("div")
            got.append(("div", sim.now))
            islands[grant.island_index].compute(grant.slot, 1)
            abc.release(grant)

        sim.process(poly_user())
        sim.process(div_user())
        sim.run()
        # div allocation must not wait for the poly holder.
        assert ("div", 1.0) in got

    def test_free_count(self):
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 2})
        assert abc.free_count("poly") == 4
        grants = []
        abc.request("poly").add_callback(lambda e: grants.append(e.value))
        sim.run()
        assert abc.free_count("poly") == 3

    def test_estimate_wait_zero_when_free(self):
        _, _, abc = make_abc()
        assert abc.estimate_wait("poly") == 0.0

    def test_estimate_wait_monotone_in_queue_depth(self):
        # Same property the GAM guarantees: deeper queue, never a
        # smaller estimate (the admission-signal invariant).
        estimates = []
        for depth in range(5):
            sim, _, abc = make_abc(n_islands=1, mix={"poly": 2})
            for _ in range(2 + depth):
                abc.request("poly")
            sim.run()
            estimates.append(abc.estimate_wait("poly", service_hint=50.0))
        assert estimates == sorted(estimates)
        assert estimates[0] > 0

    def test_estimate_wait_infinite_when_type_dead(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1, "div": 1})
        abc.fail_slot(0, islands[0].slots_of_type("poly")[0])
        assert abc.estimate_wait("poly") == float("inf")

    def test_last_failure_resolves_waiters_to_software(self):
        # A type whose every slot failed still exists: requests fall
        # back to software instead of raising AllocationError.
        sim, islands, abc = make_abc(n_islands=2, mix={"poly": 1, "div": 1})
        values = []
        for _ in range(3):
            abc.request("poly").add_callback(lambda e: values.append(e.value))
        sim.run()
        assert len(values) == 2 and abc.queue_length() == 1
        abc.fail_slot(0, islands[0].slots_of_type("poly")[0])
        assert abc.queue_length() == 1
        abc.fail_slot(1, islands[1].slots_of_type("poly")[0])
        sim.run()
        assert values[2] == SOFTWARE_FALLBACK
        assert abc.queue_length() == 0
        abc.request("poly").add_callback(lambda e: values.append(e.value))
        sim.run()
        assert values[3] == SOFTWARE_FALLBACK
        assert abc.fallback_grants == 2
        assert abc.estimate_wait("poly") == float("inf")
        # In-flight grants on failed slots still drain normally.
        for grant in values[:2]:
            islands[grant.island_index].compute(grant.slot, 1)
            abc.release(grant)
        assert abc.free_count("poly") == 0

    def test_service_cycles_observed_on_release(self):
        sim, islands, abc = make_abc(n_islands=1, mix={"poly": 1})

        def user(hold):
            grant = yield abc.request("poly")
            islands[grant.island_index].compute(grant.slot, 1)
            yield sim.timeout(hold)
            abc.release(grant)

        sim.process(user(80))
        sim.process(user(40))
        sim.run()
        assert abc.service_cycles.count == 2
        assert abc.service_cycles.mean == pytest.approx(60.0)
