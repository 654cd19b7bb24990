"""Sweep runner with result caching and Pareto filtering.

The :class:`Explorer` resolves every (design point, workload) pair
with :func:`~repro.dse.report.run_points`, the one point resolver of
:mod:`repro.dse`: first the explorer's in-memory session memo, then an
optional persistent :class:`~repro.dse.cache.ResultCache` shared across
runs, and finally the simulator itself — serially or fanned out over a
process pool (``jobs > 1``) with deterministic, serial-identical row
order.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.dse.cache import ResultCache
from repro.dse.report import run_points
from repro.dse.space import DesignSpace, design_points
from repro.errors import ConfigError
from repro.sim.results import SimResult
from repro.sim.run import DEFAULT_TILE_WINDOW
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload


@dataclass(frozen=True)
class SweepRow:
    """One (design point, workload) observation."""

    config: SystemConfig
    workload: str
    result: SimResult


class Explorer:
    """Runs workloads across a design space, caching by design point.

    Each sweep is one :func:`~repro.dse.report.run_points` call that
    shares the explorer's memo, so a point is simulated at most once
    per explorer.

    Attributes:
        rows: Every observation gathered so far, in sweep order.
        simulations_run: Count of simulations actually executed by this
            explorer (memo and persistent-cache hits excluded) — the
            number tests and benchmarks watch to verify cache reuse.
    """

    def __init__(
        self,
        workloads: typing.Sequence[Workload],
        cache: typing.Optional[ResultCache] = None,
        jobs: int = 1,
        tile_window: int = DEFAULT_TILE_WINDOW,
    ) -> None:
        if not workloads:
            raise ConfigError("explorer needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate workload names in sweep")
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.workloads = list(workloads)
        self.cache = cache
        self.jobs = jobs
        self.tile_window = tile_window
        self.rows: list[SweepRow] = []
        self.simulations_run = 0
        self._memo: dict[str, SimResult] = {}

    def sweep(
        self, space: DesignSpace, jobs: typing.Optional[int] = None
    ) -> list[SweepRow]:
        """Run the whole space; returns all rows gathered.

        ``jobs`` overrides the explorer's worker count for this sweep.
        Row order (and every value in every row) is identical for any
        ``jobs`` value; parallelism only changes wall-clock time.
        """
        points = [
            (config, workload)
            for config in design_points(space)
            for workload in self.workloads
        ]
        results, simulated = run_points(
            points,
            jobs=self.jobs if jobs is None else jobs,
            cache=self.cache,
            tile_window=self.tile_window,
            memo=self._memo,
        )
        self.simulations_run += simulated
        self.rows.extend(
            SweepRow(config, workload.name, result)
            for (config, workload), result in zip(points, results)
        )
        return list(self.rows)

    # ------------------------------------------------------------ analysis
    def results_for(self, workload_name: str) -> list[SweepRow]:
        """All observations of one workload."""
        return [r for r in self.rows if r.workload == workload_name]

    def best_by(
        self,
        metric: typing.Callable[[SimResult], float],
        workload_name: typing.Optional[str] = None,
    ) -> SweepRow:
        """Row maximizing a metric (optionally for one workload)."""
        rows = (
            self.results_for(workload_name) if workload_name else list(self.rows)
        )
        if not rows:
            raise ConfigError("no sweep rows gathered yet")
        return max(rows, key=lambda r: metric(r.result))

    def pareto_front(
        self,
        metrics: typing.Sequence[typing.Callable[[SimResult], float]],
        workload_name: typing.Optional[str] = None,
    ) -> list[SweepRow]:
        """Rows not dominated on all the given maximize-metrics.

        An all-pairs scan (fronts cover tens of rows); rows are returned
        in gathering order.
        """
        rows = (
            self.results_for(workload_name) if workload_name else list(self.rows)
        )
        values = [
            tuple(metric(row.result) for metric in metrics) for row in rows
        ]
        return [
            row
            for candidate, row in zip(values, rows)
            if not any(
                all(o >= c for o, c in zip(other, candidate))
                and any(o > c for o, c in zip(other, candidate))
                for other in values
            )
        ]
