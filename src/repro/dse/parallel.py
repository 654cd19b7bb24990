"""Parallel sweep execution with deterministic merge order.

The simulator is single-threaded and deterministic, which makes a DSE
sweep embarrassingly parallel: every (config, workload) point is an
independent simulation.  :func:`run_points` fans the points of a sweep
out over a :class:`concurrent.futures.ProcessPoolExecutor`, keyed by
point index, and merges results back **in submission order** — so the
output of a parallel sweep is bit-identical to the serial sweep, row
for row, regardless of worker count or completion order.

Before anything is submitted, each point is resolved against (in
order): the caller's in-memory memo, then the persistent
:class:`~repro.dse.cache.ResultCache`; duplicate points within one
sweep are simulated once and fanned back to every index that requested
them.  Only genuinely new points reach the pool.
"""

from __future__ import annotations

import os
import typing
from concurrent.futures import ProcessPoolExecutor

from repro.dse.cache import ResultCache, point_fingerprint
from repro.errors import ConfigError
from repro.sim.results import SimResult
from repro.sim.run import DEFAULT_TILE_WINDOW, run_workload
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload

#: One sweep point: a system configuration plus the workload to run on it.
SweepPoint = typing.Tuple[SystemConfig, Workload]


def _simulate(
    task: typing.Tuple[int, SystemConfig, Workload, int],
) -> typing.Tuple[int, SimResult]:
    """Worker-side entry: run one point, echoing its index back."""
    index, config, workload, tile_window = task
    return index, run_workload(config, workload, tile_window=tile_window)


def run_points(
    points: typing.Sequence[SweepPoint],
    jobs: int = 1,
    cache: typing.Optional[ResultCache] = None,
    tile_window: int = DEFAULT_TILE_WINDOW,
    memo: typing.Optional[typing.Dict[str, SimResult]] = None,
) -> typing.Tuple[typing.List[SimResult], int]:
    """Resolve every point to a result, in the order given.

    Returns ``(results, simulated)`` where ``results[i]`` corresponds to
    ``points[i]`` and ``simulated`` counts the simulations actually
    executed (cache and memo hits, and intra-sweep duplicates, are not
    simulated).  The uncached points run on a process pool of up to
    ``jobs`` workers, clamped to the pending points and the CPU count;
    with one worker they run inline in this process.  Either
    way the returned list is identical, because each simulation is a
    pure deterministic function of its (config, workload, tile window)
    inputs.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    fingerprints = [
        point_fingerprint(config, workload, tile_window=tile_window)
        for config, workload in points
    ]
    results: typing.List[typing.Optional[SimResult]] = [None] * len(points)
    resolved: typing.Dict[str, SimResult] = {}

    for i, fingerprint in enumerate(fingerprints):
        if memo is not None and fingerprint in memo:
            results[i] = memo[fingerprint]
            resolved[fingerprint] = memo[fingerprint]

    if cache is not None:
        for i, fingerprint in enumerate(fingerprints):
            if results[i] is not None:
                continue
            if fingerprint in resolved:
                results[i] = resolved[fingerprint]
                continue
            hit = cache.get(fingerprint)
            if hit is not None:
                results[i] = hit
                resolved[fingerprint] = hit

    # Deduplicate the remaining work: one simulation per unique point.
    pending: typing.List[typing.Tuple[str, int]] = []
    seen: typing.Set[str] = set()
    for i, fingerprint in enumerate(fingerprints):
        if results[i] is None and fingerprint not in resolved:
            if fingerprint not in seen:
                seen.add(fingerprint)
                pending.append((fingerprint, i))

    tasks = [
        (index, points[index][0], points[index][1], tile_window)
        for _fp, index in pending
    ]
    # More workers than CPUs only adds process overhead.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_simulate, tasks))
    else:
        outcomes = [_simulate(task) for task in tasks]

    by_index = dict(outcomes)
    for fingerprint, index in pending:
        resolved[fingerprint] = by_index[index]

    for i, fingerprint in enumerate(fingerprints):
        if results[i] is None:
            results[i] = resolved[fingerprint]
        if memo is not None:
            memo.setdefault(fingerprint, results[i])

    if cache is not None:
        for fingerprint, index in pending:
            cache.put(fingerprint, resolved[fingerprint])

    return typing.cast(typing.List[SimResult], results), len(pending)
