"""End-to-end tests for graceful degradation under injected faults.

These pin the three guarantees the fault subsystem makes:

1. **Fault-free equivalence** — a config with fault injection explicitly
   disabled is bit-identical to one that never mentions faults (the
   injector is simply absent, so no event ordering can change).
2. **Seeded determinism** — the same (spec, seed) pair reproduces an
   identical :class:`SimResult`; a different seed produces a different
   degraded execution.
3. **Forward progress** — every paper workload completes all tiles even
   under heavy ABB failures, sustained DMA drops or total hardware loss
   (software fallback), i.e. no :class:`SimulationError` deadlock.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.faults import FaultSpec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, run_workload
from repro.sim.run import run_consolidated
from repro.workloads import get_workload, paper_suite
from repro.workloads.suite import PAPER_BENCHMARKS

from tests.test_golden import GOLDEN, NETWORKS

#: 25% of the ABB pool fails inside the first 2k cycles — well within
#: the busy phase of every small workload run below.
QUARTER_FAILURES = FaultSpec(abb_failure_fraction=0.25, abb_failure_window=2_000.0)


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("name,net", sorted(GOLDEN))
    def test_disabled_faults_match_golden(self, name, net, work_counts):
        """Explicitly-disabled fault injection must not perturb results."""
        config = SystemConfig(
            n_islands=3,
            network=NETWORKS[net],
            faults=FaultSpec(),
            fault_seed=12345,  # ignored when no fault model is active
        )
        result = run_workload(config, get_workload(name, tiles=4))
        cycles, energy, heap_entries, processes = GOLDEN[(name, net)]
        assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
        assert result.energy_nj == pytest.approx(energy, rel=1e-12)
        assert work_counts.take() == (heap_entries, processes)
        assert not result.degraded
        assert result.failed_abbs == 0
        assert result.fallback_tiles == 0

    def test_disabled_faults_identical_result_object(self):
        workload = get_workload("Denoise", tiles=4)
        plain = run_workload(SystemConfig(n_islands=3), workload)
        disabled = run_workload(
            SystemConfig(n_islands=3, faults=FaultSpec(), fault_seed=99),
            workload,
        )
        assert plain == disabled


class TestSeededDeterminism:
    SPEC = FaultSpec(
        abb_failure_fraction=0.25,
        abb_failure_window=2_000.0,
        dma_stall_prob=0.1,
        dma_drop_prob=0.05,
        noc_degrade_fraction=0.2,
    )

    def run(self, seed):
        config = SystemConfig(n_islands=6, faults=self.SPEC, fault_seed=seed)
        return run_workload(config, get_workload("Denoise", tiles=4))

    def test_same_seed_bit_identical(self):
        assert self.run(42) == self.run(42)

    def test_different_seed_differs(self):
        a, b = self.run(42), self.run(43)
        assert a != b
        assert a.total_cycles != b.total_cycles

    def test_faulted_run_reports_degradation(self):
        result = self.run(42)
        assert result.degraded
        assert result.failed_abbs > 0


class TestForwardProgress:
    @pytest.mark.parametrize("name", sorted(PAPER_BENCHMARKS))
    def test_quarter_abb_failures_complete_every_workload(self, name):
        """Acceptance criterion: 25% ABB failures never deadlock."""
        config = SystemConfig(
            n_islands=6, faults=QUARTER_FAILURES, fault_seed=1
        )
        result = run_workload(config, get_workload(name, tiles=2))
        assert result.tiles == 2
        assert result.failed_abbs > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quarter_abb_failures_across_seeds(self, seed):
        config = SystemConfig(
            n_islands=6, faults=QUARTER_FAILURES, fault_seed=seed
        )
        result = run_workload(config, get_workload("EKF-SLAM", tiles=4))
        assert result.tiles == 4
        assert result.failed_abbs > 0

    def test_sustained_dma_drops_recover_via_bounded_retry(self):
        spec = FaultSpec(
            dma_drop_prob=1.0,  # every transfer drops until retries exhaust
            dma_timeout_cycles=50.0,
            dma_backoff_base=8.0,
            dma_max_retries=2,
        )
        config = SystemConfig(n_islands=3, faults=spec, fault_seed=0)
        result = run_workload(config, get_workload("Denoise", tiles=2))
        assert result.tiles == 2
        assert result.dma_retries > 0
        clean = run_workload(SystemConfig(n_islands=3), get_workload("Denoise", tiles=2))
        assert result.slowdown_vs(clean) > 1.0

    def test_total_hardware_loss_falls_back_to_software(self):
        spec = FaultSpec(abb_failure_fraction=1.0, abb_failure_window=1.0)
        config = SystemConfig(n_islands=3, faults=spec, fault_seed=5)
        result = run_workload(config, get_workload("Denoise", tiles=4))
        assert result.tiles == 4
        assert result.fallback_tasks > 0
        assert result.fallback_tiles == 4

    def test_noc_degradation_slows_but_completes(self):
        spec = FaultSpec(noc_degrade_fraction=0.5, noc_degrade_factor=8.0)
        config = SystemConfig(n_islands=6, faults=spec, fault_seed=2)
        degraded = run_workload(config, get_workload("Deblur", tiles=2))
        clean = run_workload(
            SystemConfig(n_islands=6), get_workload("Deblur", tiles=2)
        )
        assert degraded.tiles == 2
        assert degraded.total_cycles >= clean.total_cycles

    def test_consolidated_run_survives_faults(self):
        config = SystemConfig(n_islands=6, faults=QUARTER_FAILURES, fault_seed=3)
        workloads = [w for w in paper_suite(tiles=1) if w.name in ("Denoise", "EKF-SLAM")]
        result = run_consolidated(config, workloads)
        assert result.tiles == len(workloads)


class TestDegradationMetricsRoundTrip:
    def test_serialize_preserves_degradation_fields(self):
        from repro.sim.serialize import result_from_dict, result_to_dict

        config = SystemConfig(n_islands=6, faults=QUARTER_FAILURES, fault_seed=1)
        result = run_workload(config, get_workload("Denoise", tiles=2))
        assert result.degraded
        assert result_from_dict(result_to_dict(result)) == result

    def test_fingerprint_distinguishes_fault_configs(self):
        base = SystemConfig(n_islands=6)
        faulted = dataclasses.replace(base, faults=QUARTER_FAILURES)
        reseeded = dataclasses.replace(faulted, fault_seed=9)
        fingerprints = {
            base.fingerprint(),
            faulted.fingerprint(),
            reseeded.fingerprint(),
        }
        assert len(fingerprints) == 3

    def test_slowdown_vs_requires_same_workload(self):
        from repro.errors import ConfigError

        denoise = run_workload(SystemConfig(n_islands=3), get_workload("Denoise", tiles=2))
        slam = run_workload(SystemConfig(n_islands=3), get_workload("EKF-SLAM", tiles=2))
        with pytest.raises(ConfigError):
            denoise.slowdown_vs(slam)
