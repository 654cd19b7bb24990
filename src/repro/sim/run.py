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
from functools import partial

from repro.abb.flowgraph import TilePlan
from repro.abb.library import ABBLibrary
from repro.core.scheduler import TileScheduler
from repro.engine.trace import Tracer
from repro.errors import ConfigError, SimulationError
from repro.sim.results import SimResult
from repro.sim.system import SystemConfig, SystemModel
from repro.workloads.base import Workload

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.critpath import AttributionReport

#: Default number of tiles concurrently in flight.
DEFAULT_TILE_WINDOW = 8

#: Tile-id stride between applications or tenants, so per-request
#: memory streams and trace tags never collide.
TILE_ID_STRIDE = 1_000_000


class RequestDriver:
    """Issues requests onto one system and runs it to the end.

    A hardware request starts a :class:`TileScheduler` the moment it is
    issued; the tile's end callback does its bookkeeping.
    ``started``/``finished`` feed the one deadlock check in :meth:`run`;
    serve's host-core software requests and arrival streams count too.
    The run ends when its last request closes (:meth:`close`); :meth:`run`
    then checks that it left nothing held.
    """

    def __init__(self, system: SystemModel) -> None:
        self.system = system
        self.started = 0
        self.finished = 0

    def issue(
        self,
        plan: TilePlan,
        tile_id: int,
        on_done: typing.Callable[[str], None],
        tenant: str = "",
        after: str = "",
    ) -> None:
        """Start a tile now; ``on_done(ref)`` gets its last-completed
        task's ref when it ends, and ``after`` names the task the tile's
        source tasks record as their dependency."""
        self.started += 1
        scheduler = TileScheduler(self.system, plan, tile_id, tenant, after)

        def finish() -> None:
            on_done(scheduler.last_ref)
            self.close()

        scheduler.run(finish)

    def close(self) -> None:
        """One request closed; the last open one ends the run now: what is
        left on the heap (planned ABB failures) is no request's work."""
        self.finished += 1
        if self.finished == self.started:
            self.system.sim.stop()

    def window(
        self, plan: TilePlan, first_id: int, tiles: int, size: int
    ) -> None:
        """Issue ``tiles`` tiles, ``size`` in flight: each finished tile
        issues the next and hands it its last-completed task's ref, so
        the window handoff is a recorded dependency."""
        tile_ids = iter(range(first_id, first_id + tiles))
        for _ in range(size):
            self._issue_next(plan, tile_ids)

    def _issue_next(self, plan: TilePlan, tile_ids, after: str = "") -> None:
        """Issue the window's next tile, if any; its end issues the one
        after (through a new partial, so no callback holds itself)."""
        tile_id = next(tile_ids, None)
        if tile_id is not None:
            on_done = partial(self._issue_next, plan, tile_ids)
            self.issue(plan, tile_id, on_done, after=after)

    def run(self, label: str) -> typing.Optional["AttributionReport"]:
        """Run to the end; returns a traced run's critical-path report
        (``None`` when the system has no tracer)."""
        sim = self.system.sim
        if not self.started:  # nothing to wait for, not even planned failures
            sim.stop()
        sim.run()
        if self.finished != self.started:
            raise SimulationError(
                f"{label}: only {self.finished}/{self.started} requests "
                f"completed — simulation deadlocked"
            )
        self._check_released(label)
        if self.system.tracer is None:
            return None
        from repro.obs.critpath import analyze_critical_path

        return analyze_critical_path(self.system.tracer, sim.now)

    def _check_released(self, label: str) -> None:
        """Every request finished: no ABC request may still be queued,
        no ABB slot held or computing, no host core in use."""
        system = self.system
        leaks = system.abc.stranded()
        for island in system.islands:
            leaks.extend(
                f"island {island.island_id} slot {slot} never released"
                for slot in island.held_slots()
            )
        cores = system.fallback_cores.in_use
        if cores:
            leaks.append(f"{cores} host core(s) never released")
        if leaks:
            raise SimulationError(f"{label}: run ended with " + "; ".join(leaks))


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
    return simulate(config, workloads, tile_window, library, tracer, allow_fabric)[0]


def simulate(
    config: SystemConfig,
    workloads: typing.Sequence[Workload],
    tile_window: int = DEFAULT_TILE_WINDOW,
    library: typing.Optional[ABBLibrary] = None,
    tracer: typing.Optional[Tracer] = None,
    allow_fabric: bool = False,
) -> tuple[SimResult, typing.Optional["AttributionReport"]]:
    """:func:`run_consolidated`, plus the critical-path report the
    result's ``attribution`` shares come from (``None`` untraced), so a
    caller that prints it does not walk the span DAG a second time."""
    if not workloads:
        raise ConfigError("need at least one workload to consolidate")
    if tile_window < 1:
        raise ConfigError("tile window must be >= 1")
    system = SystemModel(config, library=library, tracer=tracer)
    driver = RequestDriver(system)
    for app_index, workload in enumerate(workloads):
        graph = workload.build_graph(system.library, allow_fabric=allow_fabric)
        plan = TilePlan(graph, system.library)
        driver.window(plan, app_index * TILE_ID_STRIDE, workload.tiles, tile_window)
    label = " + ".join(w.name for w in workloads)
    report = driver.run(label)
    elapsed = system.sim.now
    degradation = system.fault_stats
    result = SimResult(
        workload=label,
        attribution=report.shares() if report is not None else {},
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
    return result, report
