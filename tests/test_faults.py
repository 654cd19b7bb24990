"""Unit tests for the fault-injection subsystem (repro.faults)."""

import math

import pytest

from repro.errors import ConfigError
from repro.faults import (
    DMA_DROP,
    DMA_OK,
    DMA_STALL,
    FaultInjector,
    FaultSpec,
    FaultStats,
    parse_fault_spec,
)


class TestFaultSpec:
    def test_default_is_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert not spec.dma_faults_enabled
        assert spec.label() == "none"

    def test_any_model_enables(self):
        assert FaultSpec(abb_failure_fraction=0.1).enabled
        assert FaultSpec(dma_stall_prob=0.1).enabled
        assert FaultSpec(dma_drop_prob=0.1).enabled
        assert FaultSpec(noc_degrade_fraction=0.1).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abb_failure_fraction": -0.1},
            {"abb_failure_fraction": 1.5},
            {"dma_stall_prob": 2.0},
            {"noc_degrade_fraction": -1.0},
            {"dma_stall_prob": 0.7, "dma_drop_prob": 0.7},
            {"abb_failure_window": 0.0},
            {"dma_max_retries": -1},
            {"noc_degrade_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "abb_failure_window",
            "dma_stall_cycles",
            "dma_timeout_cycles",
            "dma_backoff_base",
            "noc_degrade_factor",
        ],
    )
    def test_non_finite_delays_and_factors_rejected(self, name, value):
        """A NaN or infinite delay would otherwise fail mid-run, when the
        first fault is scheduled; the spec rejects it at the boundary."""
        with pytest.raises(ConfigError, match=name):
            FaultSpec(**{name: value})

    def test_label_round_trips_through_parse(self):
        spec = FaultSpec(
            abb_failure_fraction=0.25,
            dma_stall_prob=0.1,
            dma_drop_prob=0.05,
            noc_degrade_fraction=0.2,
        )
        assert parse_fault_spec(spec.label()) == spec

    def test_hashable_and_fingerprintable(self):
        from repro.sim.fingerprint import digest

        a = FaultSpec(abb_failure_fraction=0.25)
        b = FaultSpec(abb_failure_fraction=0.25)
        assert hash(a) == hash(b)
        assert digest(a) == digest(b)
        assert digest(a) != digest(FaultSpec())


class TestParseFaultSpec:
    def test_empty_and_none(self):
        assert parse_fault_spec("") == FaultSpec()
        assert parse_fault_spec("none") == FaultSpec()

    def test_shorthand(self):
        spec = parse_fault_spec("abb:0.25,dma:0.1,dmadrop:0.05,noc:0.2")
        assert spec.abb_failure_fraction == 0.25
        assert spec.dma_stall_prob == 0.1
        assert spec.dma_drop_prob == 0.05
        assert spec.noc_degrade_fraction == 0.2

    def test_full_field_names_and_equals_separator(self):
        spec = parse_fault_spec("abb:0.2,abb_failure_window=5000,dma_max_retries=2")
        assert spec.abb_failure_fraction == 0.2
        assert spec.abb_failure_window == 5000.0
        assert spec.dma_max_retries == 2
        assert isinstance(spec.dma_max_retries, int)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("bogus:0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("abb:lots")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("abb")


class TestFaultStats:
    def test_fresh_stats_not_degraded(self):
        assert not FaultStats().degraded

    def test_any_counter_marks_degraded(self):
        stats = FaultStats()
        stats.dma_retries += 1
        assert stats.degraded


class TestFaultInjector:
    def test_abb_plan_deterministic(self):
        spec = FaultSpec(abb_failure_fraction=0.25)
        plan_a = FaultInjector(spec, seed=7).plan_abb_failures([40, 40, 40])
        plan_b = FaultInjector(spec, seed=7).plan_abb_failures([40, 40, 40])
        assert plan_a == plan_b
        assert len(plan_a) == 30  # floor(0.25 * 120)

    def test_abb_plan_seed_sensitivity(self):
        spec = FaultSpec(abb_failure_fraction=0.25)
        plan_a = FaultInjector(spec, seed=1).plan_abb_failures([40, 40, 40])
        plan_b = FaultInjector(spec, seed=2).plan_abb_failures([40, 40, 40])
        assert plan_a != plan_b

    def test_abb_plan_unique_slots_in_window(self):
        spec = FaultSpec(abb_failure_fraction=1.0, abb_failure_window=100.0)
        plan = FaultInjector(spec, seed=3).plan_abb_failures([10, 10])
        slots = [(island, slot) for island, slot, _ in plan]
        assert len(set(slots)) == len(slots) == 20
        assert all(0.0 <= t < 100.0 for _, _, t in plan)
        assert plan == sorted(plan, key=lambda p: (p[2], p[0], p[1]))

    def test_abb_plan_empty_when_disabled(self):
        assert FaultInjector(FaultSpec(), seed=1).plan_abb_failures([40]) == []

    def test_dma_outcome_streams_are_deterministic_per_island(self):
        spec = FaultSpec(dma_stall_prob=0.3, dma_drop_prob=0.2)
        a = FaultInjector(spec, seed=11)
        b = FaultInjector(spec, seed=11)
        seq_a = [a.dma_outcome(0) for _ in range(50)]
        seq_b = [b.dma_outcome(0) for _ in range(50)]
        assert seq_a == seq_b
        assert set(seq_a) <= {DMA_OK, DMA_STALL, DMA_DROP}
        # interleaving island 1 draws must not disturb island 0's stream
        c = FaultInjector(spec, seed=11)
        seq_c = []
        for _ in range(50):
            seq_c.append(c.dma_outcome(0))
            c.dma_outcome(1)
        assert seq_c == seq_a

    def test_dma_retry_delay_is_exponential(self):
        spec = FaultSpec(
            dma_drop_prob=0.1, dma_timeout_cycles=100.0, dma_backoff_base=8.0
        )
        injector = FaultInjector(spec, seed=0)
        assert injector.dma_retry_delay(0) == 108.0
        assert injector.dma_retry_delay(1) == 116.0
        assert injector.dma_retry_delay(2) == 132.0

    def test_link_degraded_stable_and_order_independent(self):
        spec = FaultSpec(noc_degrade_fraction=0.5)
        a = FaultInjector(spec, seed=5)
        b = FaultInjector(spec, seed=5)
        links = [((x, y), (x + 1, y)) for x in range(6) for y in range(6)]
        verdict_a = {link: a.link_degraded(*link) for link in links}
        verdict_b = {
            link: b.link_degraded(*link) for link in reversed(links)
        }
        assert verdict_a == verdict_b
        assert any(verdict_a.values())
        assert not all(verdict_a.values())

    def test_link_degraded_off_when_fraction_zero(self):
        injector = FaultInjector(FaultSpec(), seed=5)
        assert not injector.link_degraded((0, 0), (1, 0))
