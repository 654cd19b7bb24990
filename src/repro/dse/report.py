"""Paper-figure report generators.

Each ``figN_*`` function runs the simulations behind one figure of the
paper's evaluation and returns the same rows/series the figure plots —
normalized exactly the way the paper normalizes them.
"""

from __future__ import annotations

import typing

from repro.arch.presets import PAPER_NETWORKS, best_paper_config
from repro.cmp import compare_to_cmp, xeon_e5405, xeon_e5_2420
from repro.sim.metrics import arithmetic_mean
from repro.sim.results import SimResult
from repro.sim.run import run_workload
from repro.sim.system import SystemConfig
from repro.workloads.suite import PAPER_BENCHMARKS, get_workload

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


def _run(
    name: str, n_islands: int, network_label: str, tiles: int
) -> SimResult:
    config = SystemConfig(
        n_islands=n_islands, network=PAPER_NETWORKS[network_label]
    )
    return run_workload(config, get_workload(name, tiles=tiles))


def fig6_series(
    tiles: int = DEFAULT_TILES,
    island_counts: typing.Sequence[int] = (3, 6, 12, 24),
) -> dict[str, list[float]]:
    """Figure 6: performance vs island count per network.

    Series keyed ``"<benchmark>, <network>"``; every value is normalized
    to that benchmark's 3-island proxy-crossbar baseline.
    """
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
    baselines = {
        name: _run(name, min(island_counts), "Crossbar", tiles).performance
        for name in dict.fromkeys(n for n, _net in plan)
    }
    series: dict[str, list[float]] = {}
    for name, net in plan:
        series[f"{name}, {net}"] = [
            _run(name, n, net, tiles).performance / baselines[name]
            for n in island_counts
        ]
    return series


def _per_benchmark_ring_table(
    metric: typing.Callable[[SimResult], float],
    tiles: int,
    island_counts: typing.Sequence[int],
) -> dict[int, dict[str, dict[str, float]]]:
    """Shared engine for Figures 7-9.

    Returns ``{islands: {benchmark: {ring_label: normalized metric}}}``
    where normalization is to the proxy-crossbar baseline at the same
    island count (exactly the paper's normalization).
    """
    table: dict[int, dict[str, dict[str, float]]] = {}
    for n_islands in island_counts:
        table[n_islands] = {}
        for name in PAPER_BENCHMARKS:
            base = metric(_run(name, n_islands, "Crossbar", tiles))
            table[n_islands][name] = {
                ring: metric(_run(name, n_islands, ring, tiles)) / base
                for ring in RING_LABELS
            }
    return table


def fig7_table(
    tiles: int = DEFAULT_TILES, island_counts: typing.Sequence[int] = (3, 24)
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 7: ring-network performance, normalized to the crossbar."""
    return _per_benchmark_ring_table(lambda r: r.performance, tiles, island_counts)


def fig8_table(
    tiles: int = DEFAULT_TILES, island_counts: typing.Sequence[int] = (3, 24)
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 8: performance per unit energy, normalized to the crossbar."""
    return _per_benchmark_ring_table(
        lambda r: r.perf_per_energy, tiles, island_counts
    )


def fig9_table(
    tiles: int = DEFAULT_TILES, island_counts: typing.Sequence[int] = (3, 24)
) -> dict[int, dict[str, dict[str, float]]]:
    """Figure 9: performance per unit area, normalized to the crossbar."""
    return _per_benchmark_ring_table(
        lambda r: r.perf_per_area, tiles, island_counts
    )


def fig10_table(tiles: int = DEFAULT_TILES) -> dict[str, dict[str, float]]:
    """Figure 10: best design vs the 12-core Xeon E5-2420.

    Returns per-benchmark speedup and energy gain plus the averages the
    paper quotes (7X / 20X, and 25X / 76X vs the 4-core Xeon).
    """
    best = best_paper_config()
    cmp12 = xeon_e5_2420()
    cmp4 = xeon_e5405()
    table: dict[str, dict[str, float]] = {}
    for name in PAPER_BENCHMARKS:
        workload = get_workload(name, tiles=tiles)
        result = run_workload(best, workload)
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
