"""Golden regression tests.

Exact outputs of a few fixed configurations, pinned to catch
unintentional model drift.  The simulator is deterministic, so these
match to full float precision; an *intentional* model change must update
the golden values (and re-check EXPERIMENTS.md).

Each row also pins the simulator work the run took: heap entries and
processes spawned (the ``work_counts`` fixture).  The counts are exact,
so they catch a performance regression in the engine or the data path
without timing anything.
"""

import pytest

from repro.arch.arc import ARCSystem
from repro.dse.report import fig6_series
from repro.engine import Event, Route
from repro.faults import parse_fault_spec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    TenantSpec,
    run_serve,
)
from repro.sim import SystemConfig, SystemModel, run_consolidated, run_workload
from repro.workloads import get_workload, synthetic_workload

#: ``(total_cycles, energy_nj, heap_entries, processes)``.
GOLDEN = {
    ("Denoise", "xbar"): (27292.04666666668, 1193246.7626134404, 288, 0),
    ("Denoise", "ring"): (26880.30130081302, 1177464.430365832, 336, 0),
    ("EKF-SLAM", "xbar"): (6599.813333333335, 286974.78352377407, 296, 0),
    ("EKF-SLAM", "ring"): (4461.926991869917, 195194.66702147876, 194, 0),
}

#: The same points under DMA stall and drop/retry faults.
FAULTED_GOLDEN = {
    ("Denoise", "xbar"): (30149.22000000001, 1316404.2154332104, 296, 0),
    ("Denoise", "ring"): (30138.22000000001, 1317883.734559194, 344, 0),
    ("EKF-SLAM", "xbar"): (7206.406666666668, 313121.7760632958, 297, 0),
    ("EKF-SLAM", "ring"): (5775.260325203251, 251800.54637833213, 195, 0),
}
DMA_FAULTS = "dma:0.15,dmadrop:0.05"

NETWORKS = {
    "xbar": SpmDmaNetworkConfig(),
    "ring": SpmDmaNetworkConfig(NetworkKind.RING, 32, 2),
}


#: ARC's monolithic units under GAM arbitration, default 2 units, with
#: lightweight and OS-path completion interrupts.
ARC_GOLDEN = {
    ("Denoise", True): (48140.58181818182, 7813291.374545455, 28, 0),
    ("Denoise", False): (52100.58181818182, 8454811.374545453, 28, 0),
    ("EKF-SLAM", True): (5439.418181818181, 882556.6254545454, 28, 0),
    ("EKF-SLAM", False): (9399.418181818182, 1524076.6254545455, 28, 0),
}


@pytest.mark.parametrize("name,net", sorted(GOLDEN))
def test_golden_run(name, net, work_counts):
    config = SystemConfig(n_islands=3, network=NETWORKS[net])
    result = run_workload(config, get_workload(name, tiles=4))
    cycles, energy, heap_entries, processes = GOLDEN[(name, net)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert work_counts.take() == (heap_entries, processes)


@pytest.mark.parametrize("name,net", sorted(FAULTED_GOLDEN))
def test_faulted_golden_run(name, net, work_counts):
    config = SystemConfig(
        n_islands=3,
        network=NETWORKS[net],
        faults=parse_fault_spec(DMA_FAULTS),
        fault_seed=1,
    )
    result = run_workload(config, get_workload(name, tiles=4))
    cycles, energy, heap_entries, processes = FAULTED_GOLDEN[(name, net)]
    assert result.dma_stalls > 0  # the fault path actually ran
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert work_counts.take() == (heap_entries, processes)


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("name,net", sorted(GOLDEN))
def test_one_route_per_transfer(name, net, faulted, monkeypatch):
    """Every system-level transfer is one route: the island, its network
    and the mesh hand their legs to it instead of starting routes of
    their own."""
    counts = {"routes": 0, "transfers": 0}
    init = Route.__init__

    def counted_init(route, *args, **kwargs):
        counts["routes"] += 1
        init(route, *args, **kwargs)

    def counted(original):
        def transfer(system, *args, **kwargs):
            counts["transfers"] += 1
            return original(system, *args, **kwargs)

        return transfer

    monkeypatch.setattr(Route, "__init__", counted_init)
    for method in ("memory_to_island", "island_to_memory", "island_to_island"):
        monkeypatch.setattr(
            SystemModel, method, counted(getattr(SystemModel, method))
        )
    config = SystemConfig(
        n_islands=3,
        network=NETWORKS[net],
        faults=parse_fault_spec(DMA_FAULTS if faulted else ""),
        fault_seed=1,
    )
    run_workload(config, get_workload(name, tiles=4))
    assert counts["transfers"] > 0
    assert counts["routes"] == counts["transfers"]


@pytest.mark.parametrize("name,lightweight", sorted(ARC_GOLDEN))
def test_arc_golden_run(name, lightweight, work_counts):
    system = ARCSystem(
        get_workload(name, tiles=4), lightweight_interrupts=lightweight
    )
    result = system.run()
    cycles, energy, heap_entries, processes = ARC_GOLDEN[(name, lightweight)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert work_counts.take() == (heap_entries, processes)


#: Shared-platform runs (:func:`run_consolidated`): two applications
#: concurrently on one ABB pool.  The faulted row loses ABBs mid-run, so
#: some tasks fall back to the host cores.
SHARED_MIX = {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}


def test_consolidated_golden_run(work_counts):
    config = SystemConfig(n_islands=3)
    result = run_consolidated(
        config,
        [get_workload("Denoise", tiles=4), get_workload("EKF-SLAM", tiles=4)],
    )
    assert result.workload == "Denoise + EKF-SLAM"
    assert result.total_cycles == pytest.approx(31034.80000000003, rel=1e-12)
    assert result.energy_nj == pytest.approx(1357068.9785109651, rel=1e-12)
    assert work_counts.take() == (584, 0)


def test_consolidated_faulted_golden_run(work_counts):
    config = SystemConfig(
        n_islands=1,
        abb_mix=SHARED_MIX,
        faults=parse_fault_spec("abb:0.4,dma:0.1"),
        fault_seed=4,
    )
    result = run_consolidated(
        config,
        [
            synthetic_workload(
                name="a", depth=2, width=2, invocations=32, tiles=6
            ),
            synthetic_workload(
                name="b", depth=3, width=1, invocations=16, tiles=6
            ),
        ],
    )
    assert result.fallback_tasks == 6  # the host-core path actually ran
    assert result.total_cycles == pytest.approx(13218.993333333334, rel=1e-12)
    assert result.energy_nj == pytest.approx(594468.3403892533, rel=1e-12)
    assert work_counts.take() == (322, 0)


def _all_software_run():
    """Every ABB fails at cycle < 1, so all of EKF-SLAM runs on the
    host cores."""
    config = SystemConfig(
        n_islands=1,
        faults=parse_fault_spec("abb:1.0,abb_failure_window=1"),
        fault_seed=1,
    )
    result = run_workload(config, get_workload("EKF-SLAM", tiles=3))
    assert result.fallback_tasks == 30
    return result


def _serve_run():
    arrival = ArrivalConfig(rate_per_mcycle=40.0, seed=1)
    tenants = tuple(
        TenantSpec(f"t{index}", get_workload("Denoise", tiles=4), arrival)
        for index in range(2)
    )
    serve = ServeConfig(
        tenants=tenants,
        admission=AdmissionConfig(policy="wait_threshold"),
        duration_cycles=300_000.0,
        seed=1,
    )
    return run_serve(SystemConfig(n_islands=1), serve)


#: One run of each model path: the fig. 6 sweep (routes, tiles, ABC),
#: ABB failures with DMA faults, the host-core software path, an
#: open-loop serve session and ARC's GAM.
MODEL_RUNS = {
    "fig6": lambda: fig6_series(tiles=16),
    "faulted": lambda: run_workload(
        SystemConfig(
            n_islands=6, faults=parse_fault_spec("abb:0.25,dma:0.1"), fault_seed=1
        ),
        get_workload("EKF-SLAM", tiles=16),
    ),
    "all_software": _all_software_run,
    "serve": _serve_run,
    "arc": lambda: ARCSystem(get_workload("Denoise", tiles=16)).run(),
}


@pytest.mark.parametrize("run", sorted(MODEL_RUNS))
def test_no_model_run_allocates_an_event(run, monkeypatch):
    """Model code waits through scheduled ``then`` callbacks: no route,
    tile, grant or ABB failure allocates an :class:`Event`."""
    allocated = []
    init = Event.__init__

    def counted_init(event, sim):
        allocated.append(type(event).__name__)
        init(event, sim)

    monkeypatch.setattr(Event, "__init__", counted_init)
    MODEL_RUNS[run]()
    assert allocated == []
