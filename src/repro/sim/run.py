"""Benchmark runner: execute workloads on a configured system.

:class:`RequestDriver` is the one request driver, closed and open loop
alike.  :func:`run_consolidated` issues each application's tiles through
a bounded in-flight window (the cores dispatch a stream of acceleration
requests; the window models the depth of that stream); a single-workload
run is its one-application case.  :func:`repro.serve.run_serve` issues
each admitted request at its arrival.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import ABBFlowGraph
from repro.abb.library import ABBLibrary
from repro.core.scheduler import TileScheduler
from repro.engine.trace import Tracer
from repro.errors import ConfigError, SimulationError
from repro.sim.results import SimResult
from repro.sim.system import SystemConfig, SystemModel
from repro.workloads.base import Workload

#: Default number of tiles concurrently in flight.
DEFAULT_TILE_WINDOW = 8

#: Tile-id stride between applications or tenants, so per-request
#: memory streams and trace tags never collide.
TILE_ID_STRIDE = 1_000_000


class RequestDriver:
    """Issues requests onto one system and runs it to the end.

    A hardware request starts a :class:`TileScheduler` the moment it is
    issued; a callback on the tile's done event does its bookkeeping.
    ``started``/``finished`` feed the one deadlock check in :meth:`run`;
    serve's host-core software requests bump them too.
    """

    def __init__(self, system: SystemModel) -> None:
        self.system = system
        self.started = 0
        self.finished = 0

    def issue(
        self,
        graph: ABBFlowGraph,
        tile_id: int,
        on_done: typing.Callable[[str], None],
        tenant: str = "",
        after: str = "",
    ) -> None:
        """Start a tile now; ``on_done(ref)`` gets its last-completed
        task's ref when it ends, and ``after`` names the task the tile's
        source tasks record as their dependency."""
        self.started += 1
        scheduler = TileScheduler(self.system, graph, tile_id, tenant, after)

        def finish(_event: object) -> None:
            self.finished += 1
            on_done(scheduler.last_ref)

        scheduler.run().add_callback(finish)

    def window(
        self, graph: ABBFlowGraph, first_id: int, tiles: int, size: int
    ) -> None:
        """Issue ``tiles`` tiles, ``size`` in flight: each finished tile
        issues the next and hands it its last-completed task's ref, so
        the window handoff is a recorded dependency."""
        issued = [0]

        def issue_next(after: str = "") -> None:
            tile = issued[0]
            if tile < tiles:
                issued[0] = tile + 1
                self.issue(graph, first_id + tile, issue_next, after=after)

        for _ in range(size):
            issue_next()

    def run(self, label: str) -> dict[str, float]:
        """Run to the end; returns a traced run's critical-path shares."""
        sim = self.system.sim
        sim.run()
        if self.finished != self.started:
            raise SimulationError(
                f"{label}: only {self.finished}/{self.started} requests "
                f"completed — simulation deadlocked"
            )
        if self.system.tracer is None:
            return {}
        from repro.obs.critpath import analyze_critical_path

        return analyze_critical_path(self.system.tracer, sim.now).shares()


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
    driver = RequestDriver(system)
    for app_index, workload in enumerate(workloads):
        graph = workload.build_graph(system.library, allow_fabric=allow_fabric)
        driver.window(graph, app_index * TILE_ID_STRIDE, workload.tiles, tile_window)
    label = " + ".join(w.name for w in workloads)
    attribution = driver.run(label)
    elapsed = system.sim.now
    degradation = system.fault_stats
    return SimResult(
        workload=label,
        attribution=attribution,
        config_label=config.label(),
        tiles=sum(w.tiles for w in workloads),
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
