"""Benchmark runner: execute workloads on a configured system.

Tiles are issued through a bounded in-flight window (the cores dispatch a
stream of acceleration requests; the window models the depth of that
stream), each tile executed by a :class:`~repro.core.scheduler.TileScheduler`.
:func:`run_consolidated` is the one closed-loop driver; a single-workload
run is its one-application case.
"""

from __future__ import annotations

import typing

from repro.abb.library import ABBLibrary
from repro.core.scheduler import TileScheduler
from repro.engine import Resource
from repro.engine.trace import Tracer
from repro.errors import ConfigError, SimulationError
from repro.sim.results import SimResult
from repro.sim.system import SystemConfig, SystemModel
from repro.workloads.base import Workload

#: Default number of tiles concurrently in flight.
DEFAULT_TILE_WINDOW = 8


def run_workload(
    config: SystemConfig,
    workload: Workload,
    tile_window: int = DEFAULT_TILE_WINDOW,
    allow_fabric: bool = False,
    library: typing.Optional[ABBLibrary] = None,
    tracer: typing.Optional[Tracer] = None,
) -> SimResult:
    """Simulate ``workload`` on a system built from ``config``.

    Returns a :class:`SimResult` with timing, energy, area and
    utilization.  Deterministic: identical inputs produce identical
    results — with or without a ``tracer``; tracing only *observes* the
    run (and fills the result's ``attribution`` breakdown).  The
    one-application case of :func:`run_consolidated`.
    """
    return run_consolidated(
        config, [workload], tile_window, library, tracer, allow_fabric
    )


def run_consolidated(
    config: SystemConfig,
    workloads: typing.Sequence[Workload],
    tile_window: int = DEFAULT_TILE_WINDOW,
    library: typing.Optional[ABBLibrary] = None,
    tracer: typing.Optional[Tracer] = None,
    allow_fabric: bool = False,
) -> SimResult:
    """Run several applications *concurrently* on one shared platform.

    This is the ARC/CHARM consolidation story: one common set of
    accelerators shared among multiple applications, with the ABC
    arbitrating.  Each workload gets its own in-flight window; the
    result aggregates all tiles under a combined label.
    """
    if not workloads:
        raise ConfigError("need at least one workload to consolidate")
    if tile_window < 1:
        raise ConfigError("tile window must be >= 1")
    system = SystemModel(config, library=library, tracer=tracer)
    sim = system.sim
    completed: list[tuple[int, int]] = []
    total_tiles = 0
    for app_index, workload in enumerate(workloads):
        graph = workload.build_graph(system.library, allow_fabric=allow_fabric)
        window = Resource(sim, capacity=tile_window)
        total_tiles += workload.tiles

        def tile_process(tile_id, graph=graph, window=window, app=app_index):
            yield window.request()
            # Offset tile ids per app so memory streams do not collide.
            done = TileScheduler(system, graph, tile_id + app * 10_000).run()
            yield done
            window.release()
            completed.append((app, tile_id))

        for tile_id in range(workload.tiles):
            sim.process(tile_process(tile_id))
    sim.run()

    label = " + ".join(w.name for w in workloads)
    if len(completed) != total_tiles:
        raise SimulationError(
            f"{label}: only {len(completed)}/{total_tiles} tiles "
            f"completed — simulation deadlocked"
        )
    elapsed = sim.now
    attribution: dict[str, float] = {}
    if tracer is not None:  # critical-path shares need the span DAG
        from repro.obs.critpath import analyze_critical_path

        attribution = analyze_critical_path(tracer, makespan=elapsed).shares()
    degradation = system.fault_stats
    return SimResult(
        workload=label,
        attribution=attribution,
        config_label=config.label(),
        tiles=total_tiles,
        total_cycles=elapsed,
        energy_nj=system.energy.total_nj(elapsed),
        area_mm2=system.accelerator_area_mm2,
        abb_utilization_avg=system.average_abb_utilization(elapsed),
        abb_utilization_peak=system.peak_abb_utilization(),
        energy_breakdown_nj=system.energy.breakdown(elapsed),
        noc_max_link_utilization=system.noc.max_link_utilization(elapsed),
        memory_bytes=system.memory.total_bytes(),
        failed_abbs=degradation.failed_abbs,
        dma_stalls=degradation.dma_stalls,
        dma_retries=degradation.dma_retries,
        fallback_tasks=degradation.fallback_tasks,
        fallback_tiles=degradation.fallback_tiles,
    )
