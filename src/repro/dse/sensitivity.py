"""Sensitivity analysis: how robust are the paper's conclusions?

The DSE's headline conclusion — rings beat the proxy crossbar, pick many
small islands — rests on modeling assumptions (NoC-interface bandwidth,
memory-controller count, dispatch-window depth).  This module sweeps one
scalar at a time and reports how the conclusion metric moves, so a user
can see which assumptions the result is sensitive to.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dse.report import run_points
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim.system import SystemConfig
from repro.workloads.base import Workload

#: Scalar knobs sweepable on SystemConfig, by field name.
SWEEPABLE_FIELDS = (
    "noc_link_bytes_per_cycle",
    "mesh_link_bytes_per_cycle",
    "n_memory_controllers",
    "mc_bandwidth_gbps",
)


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """One observation of a sweep.

    Attributes:
        value: The knob value.
        metric: The observed conclusion metric (ring/crossbar
            performance ratio by default).
    """

    value: float
    metric: float


def ring_advantage(
    config: SystemConfig,
    workload: Workload,
    ring: typing.Optional[SpmDmaNetworkConfig] = None,
) -> float:
    """The conclusion metric: ring performance over proxy-crossbar."""
    ring = ring or SpmDmaNetworkConfig(NetworkKind.RING, 32, 2)
    crossbar = config.with_network(
        SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR)
    )
    (ringed, base), _ = run_points(
        [(config.with_network(ring), workload), (crossbar, workload)]
    )
    return ringed.performance / base.performance


def sweep_field(
    field: str,
    values: typing.Sequence[float],
    workload: Workload,
    base: typing.Optional[SystemConfig] = None,
    metric: typing.Optional[typing.Callable[[SystemConfig, Workload], float]] = None,
) -> list:
    """Sweep one SystemConfig scalar; returns SensitivityPoints.

    ``metric`` defaults to :func:`ring_advantage`.
    """
    if field not in SWEEPABLE_FIELDS:
        raise ConfigError(
            f"field {field!r} is not sweepable; choose from {SWEEPABLE_FIELDS}"
        )
    if not values:
        raise ConfigError("sweep needs at least one value")
    base = base if base is not None else SystemConfig(n_islands=3)
    metric = metric if metric is not None else ring_advantage
    points = []
    for value in values:
        cast = int(value) if field == "n_memory_controllers" else float(value)
        config = dataclasses.replace(base, **{field: cast})
        points.append(SensitivityPoint(value=float(value), metric=metric(config, workload)))
    return points


def stability_report(points: typing.Sequence[SensitivityPoint]) -> dict:
    """Summarize a sweep: range, spread, and conclusion stability.

    ``conclusion_stable`` is True when the metric stays on one side of
    1.0 (i.e. the qualitative winner never flips) across the sweep.
    """
    if not points:
        raise ConfigError("no sweep points to report")
    metrics = [p.metric for p in points]
    return {
        "min": min(metrics),
        "max": max(metrics),
        "spread": max(metrics) - min(metrics),
        "conclusion_stable": all(m >= 1.0 for m in metrics)
        or all(m <= 1.0 for m in metrics),
    }
