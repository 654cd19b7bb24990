"""The one point resolver and the paper-figure report generators.

:func:`run_points` is the only place in :mod:`repro.dse` that turns a
(config, workload) point into a :class:`~repro.sim.results.SimResult`:
from the caller's memo, then the persistent result cache, else by
simulating each distinct point once, inline or on a process pool whose
results merge back in submission order (bit-identical to serial).

Each ``figN_*`` function resolves the points behind one figure of the
paper's evaluation with one :func:`run_points` call and projects the
results onto the rows/series the figure plots, normalized the way the
paper normalizes them.  One ``memo`` passed through several figures
simulates each shared point once.
"""

from __future__ import annotations

import os
import typing

from repro.arch.presets import PAPER_NETWORKS, best_paper_config
from repro.cmp import compare_to_cmp, xeon_e5405, xeon_e5_2420
from repro.dse.cache import ResultCache, point_fingerprint
from repro.errors import ConfigError
from repro.sim.metrics import arithmetic_mean
from repro.sim.results import SimResult
from repro.sim.run import DEFAULT_TILE_WINDOW, run_workload
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload
from repro.workloads.suite import PAPER_BENCHMARKS, get_workload

#: One sweep point: a system configuration plus the workload to run on it.
SweepPoint = typing.Tuple[SystemConfig, Workload]

#: Results already resolved, keyed by :func:`point_fingerprint`.
Memo = typing.Dict[str, SimResult]

#: Default tiles per run for report generation (small enough to keep a
#: full-figure sweep to seconds, large enough to reach steady state).
DEFAULT_TILES = 16

#: The ring configurations shown in Figures 7-9, in bar order.
RING_LABELS = [
    "1-Ring, 16-Byte",
    "1-Ring, 32-Byte",
    "2-Ring, 32-Byte",
    "3-Ring, 32-Byte",
]


def _simulate(task: typing.Tuple[SystemConfig, Workload, int]) -> SimResult:
    """Run one point (also the process pool's entry)."""
    config, workload, tile_window = task
    return run_workload(config, workload, tile_window=tile_window)


def run_points(
    points: typing.Sequence[SweepPoint],
    jobs: int = 1,
    cache: typing.Optional[ResultCache] = None,
    tile_window: int = DEFAULT_TILE_WINDOW,
    memo: typing.Optional[Memo] = None,
) -> typing.Tuple[typing.List[SimResult], int]:
    """Resolve every point to a result, in the order given.

    Returns ``(results, simulated)`` where ``results[i]`` corresponds to
    ``points[i]`` and ``simulated`` counts the simulations actually
    executed (cache and memo hits, and duplicate points, are not
    simulated).  Every resolved point is added to ``memo``.  The
    uncached points run on a process pool of up to ``jobs`` workers,
    clamped to the pending points and the CPU count; with one worker
    they run inline in this process.  Either way the returned list is
    identical, because each simulation is a pure deterministic function
    of its (config, workload, tile window) inputs.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    memo = {} if memo is None else memo
    fingerprints = [
        point_fingerprint(config, workload, tile_window=tile_window)
        for config, workload in points
    ]
    if cache is not None:
        for fingerprint in fingerprints:
            if fingerprint not in memo:
                hit = cache.get(fingerprint)
                if hit is not None:
                    memo[fingerprint] = hit

    # One simulation per unique unresolved point, in first-request order.
    pending: typing.Dict[str, SweepPoint] = {}
    for fingerprint, point in zip(fingerprints, points):
        if fingerprint not in memo:
            pending.setdefault(fingerprint, point)
    tasks = [
        (config, workload, tile_window) for config, workload in pending.values()
    ]
    # More workers than CPUs only adds process overhead.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool machinery costs every fresh interpreter
        # tens of milliseconds, and only a multi-worker sweep uses it.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_simulate, tasks))
    else:
        outcomes = [_simulate(task) for task in tasks]

    for fingerprint, result in zip(pending, outcomes):
        memo[fingerprint] = result
        if cache is not None:
            cache.put(fingerprint, result)
    return [memo[fingerprint] for fingerprint in fingerprints], len(pending)


def _point(
    name: str, n_islands: int, network_label: str, tiles: int
) -> SweepPoint:
    config = SystemConfig(
        n_islands=n_islands, network=PAPER_NETWORKS[network_label]
    )
    return config, get_workload(name, tiles=tiles)


def _require_islands(island_counts: typing.Sequence[int]) -> None:
    if not island_counts:
        raise ConfigError("a figure needs at least one island count")


def fig6_series(
    tiles: int = DEFAULT_TILES,
    island_counts: typing.Sequence[int] = (3, 6, 12, 24),
    memo: typing.Optional[Memo] = None,
) -> dict[str, list[float]]:
    """Figure 6: performance vs island count per network.

    Series keyed ``"<benchmark>, <network>"``; every value is normalized
    to that benchmark's 3-island proxy-crossbar baseline.
    """
    _require_islands(island_counts)
    plan = [
        ("Denoise", "Crossbar"),
        ("Denoise", "1-Ring, 16-Byte"),
        ("Denoise", "1-Ring, 32-Byte"),
        ("Denoise", "2-Ring, 32-Byte"),
        ("Denoise", "3-Ring, 32-Byte"),
        ("EKF-SLAM", "Crossbar"),
        ("EKF-SLAM", "1-Ring, 16-Byte"),
        ("EKF-SLAM", "1-Ring, 32-Byte"),
    ]
    names = list(dict.fromkeys(name for name, _net in plan))
    points = [
        _point(name, min(island_counts), "Crossbar", tiles) for name in names
    ] + [
        _point(name, n, net, tiles) for name, net in plan for n in island_counts
    ]
    results = iter(run_points(points, memo=memo)[0])
    baselines = {name: next(results).performance for name in names}
    return {
        f"{name}, {net}": [
            next(results).performance / baselines[name] for _n in island_counts
        ]
        for name, net in plan
    }


def _per_benchmark_ring_table(
    metric: typing.Callable[[SimResult], float],
    tiles: int,
    island_counts: typing.Sequence[int],
    memo: typing.Optional[Memo],
) -> dict[int, dict[str, dict[str, float]]]:
    """Shared engine for Figures 7-9.

    Returns ``{islands: {benchmark: {ring_label: normalized metric}}}``
    where normalization is to the proxy-crossbar baseline at the same
    island count (exactly the paper's normalization).
    """
    _require_islands(island_counts)
    keys = [
        (name, n_islands, net)
        for n_islands in island_counts
        for name in PAPER_BENCHMARKS
        for net in ("Crossbar", *RING_LABELS)
    ]
    results, _ = run_points([_point(*key, tiles) for key in keys], memo=memo)
    value = {key: metric(result) for key, result in zip(keys, results)}
    return {
        n_islands: {
            name: {
                ring: value[name, n_islands, ring]
                / value[name, n_islands, "Crossbar"]
                for ring in RING_LABELS
            }
            for name in PAPER_BENCHMARKS
        }
        for n_islands in island_counts
    }


def fig7_table(
    tiles: int = DEFAULT_TILES,
    island_counts: typing.Sequence[int] = (3, 24),
    memo: typing.Optional[Memo] = None,
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 7: ring-network performance, normalized to the crossbar."""
    return _per_benchmark_ring_table(
        lambda r: r.performance, tiles, island_counts, memo
    )


def fig8_table(
    tiles: int = DEFAULT_TILES,
    island_counts: typing.Sequence[int] = (3, 24),
    memo: typing.Optional[Memo] = None,
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 8: performance per unit energy, normalized to the crossbar."""
    return _per_benchmark_ring_table(
        lambda r: r.perf_per_energy, tiles, island_counts, memo
    )


def fig9_table(
    tiles: int = DEFAULT_TILES,
    island_counts: typing.Sequence[int] = (3, 24),
    memo: typing.Optional[Memo] = None,
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 9: performance per unit area, normalized to the crossbar."""
    return _per_benchmark_ring_table(
        lambda r: r.perf_per_area, tiles, island_counts, memo
    )


def fig10_table(
    tiles: int = DEFAULT_TILES, memo: typing.Optional[Memo] = None
) -> dict[str, dict[str, float]]:
    """Figure 10: best design vs the 12-core Xeon E5-2420.

    Returns per-benchmark speedup and energy gain plus the averages the
    paper quotes (7X / 20X, and 25X / 76X vs the 4-core Xeon).
    """
    best = best_paper_config()
    cmp12 = xeon_e5_2420()
    cmp4 = xeon_e5405()
    workloads = [get_workload(name, tiles=tiles) for name in PAPER_BENCHMARKS]
    results, _ = run_points([(best, w) for w in workloads], memo=memo)
    table: dict[str, dict[str, float]] = {}
    for name, workload, result in zip(PAPER_BENCHMARKS, workloads, results):
        c12 = compare_to_cmp(result, workload, cmp12)
        c4 = compare_to_cmp(result, workload, cmp4)
        table[name] = {
            "speedup": c12.speedup,
            "energy_gain": c12.energy_gain,
            "speedup_vs_4core": c4.speedup,
            "energy_gain_vs_4core": c4.energy_gain,
            "abb_utilization_avg": result.abb_utilization_avg,
            "abb_utilization_peak": result.abb_utilization_peak,
        }
    table["Average"] = {
        key: arithmetic_mean(row[key] for row in table.values())
        for key in next(iter(table.values()))
    }
    return table


def format_table(
    table: typing.Mapping[str, typing.Mapping[str, float]],
    title: str = "",
    width: int = 22,
) -> str:
    """Render a dict-of-dicts as an aligned text table."""
    rows = list(table)
    columns = list(next(iter(table.values())))
    lines = []
    if title:
        lines.append(title)
    header = " " * width + "".join(f"{c[:17]:>18}" for c in columns)
    lines.append(header)
    for row in rows:
        cells = "".join(f"{table[row][c]:>18.3f}" for c in columns)
        lines.append(f"{row:<{width}}" + cells)
    return "\n".join(lines)
