"""Hierarchically named metrics registry with JSON and Prometheus export.

A metric is one immutable :class:`Metric` record: a name, a kind and the
numbers sampled from the simulation's own statistics objects
(:mod:`repro.engine.stats` counters and histograms,
:class:`~repro.engine.stats.UtilizationTracker`, bandwidth-server byte
totals) when it is registered.  Registries are built after a run
finishes and nothing runs during simulation, so metrics cost nothing
until they are asked for — the zero-cost-when-disabled guarantee of the
observability subsystem.

Names are dot-separated hierarchies (``island0.dma.bytes``,
``abc.alloc.wait_cycles``, ``serve.t1.shed``); each segment is
restricted to ``[A-Za-z0-9_-]`` so every name maps cleanly onto both
JSON keys and Prometheus metric names (dots become underscores, with a
``repro_`` prefix).

Exports are versioned (:data:`METRICS_SCHEMA_VERSION`) and round-trip:
:meth:`MetricsRegistry.from_json_dict` rebuilds a registry from
:meth:`MetricsRegistry.to_json_dict` output.
"""

from __future__ import annotations

import re
import typing

from repro.engine.stats import Histogram as StatsHistogram
from repro.engine.stats import UtilizationTracker
from repro.errors import ConfigError
from repro.sim.serialize import check_schema_version, read_document, write_document

#: Format version stamped into every metrics export.
METRICS_SCHEMA_VERSION = 1

#: Valid metric-name segment (between dots).
_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: Characters Prometheus forbids in metric names.
_PROM_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Percentiles exported for histogram metrics.
HISTOGRAM_PERCENTILES = (50.0, 95.0, 99.0)

#: The value components of each metric kind, as its registry method
#: writes them.
_KIND_COMPONENTS = {
    "counter": {"value"},
    "gauge": {"value"},
    "time_weighted_gauge": {"average", "peak"},
    "histogram": {"count", "mean", "min", "max"}
    | {f"p{p:g}" for p in HISTOGRAM_PERCENTILES},
}

def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ConfigError(f"metric name must be a non-empty string, got {name!r}")
    for segment in name.split("."):
        if not _SEGMENT_RE.match(segment):
            raise ConfigError(
                f"bad metric name {name!r}: segment {segment!r} must match "
                f"[A-Za-z0-9_-]+"
            )
    return name


class Metric(typing.NamedTuple):
    """One named metric, sampled when it was registered.

    ``values`` maps component names to numbers: ``value`` for counters
    and gauges, ``average``/``peak`` for time-weighted gauges, and
    count/mean/min/max plus the :data:`HISTOGRAM_PERCENTILES` order
    statistics for histograms.
    """

    name: str
    kind: str
    values: dict[str, float]
    help: str = ""


class MetricsRegistry:
    """A namespace of metrics with versioned export.

    Registration order is preserved; names are unique.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # --------------------------------------------------------- registration
    def add(
        self, name: str, kind: str, values: dict[str, float], help: str = ""
    ) -> Metric:
        """Add one metric; bad and duplicate names, unknown kinds and
        values without exactly the kind's components are rejected."""
        _check_name(name)
        if name in self._metrics:
            raise ConfigError(f"duplicate metric name {name!r}")
        components = _KIND_COMPONENTS.get(kind) if isinstance(kind, str) else None
        if components is None:
            raise ConfigError(
                f"metric {name!r} has unknown kind {kind!r}; "
                f"known: {sorted(_KIND_COMPONENTS)}"
            )
        if values.keys() != components:
            raise ConfigError(
                f"{kind} {name!r} needs values {sorted(components)}, "
                f"got {sorted(values)}"
            )
        metric = self._metrics[name] = Metric(name, kind, values, help)
        return metric

    def counter(self, name: str, value: float, help: str = "") -> Metric:
        """Add a monotonically increasing total (bytes moved, grants)."""
        return self.add(name, "counter", {"value": float(value)}, help)

    def gauge(self, name: str, value: float, help: str = "") -> Metric:
        """Add an instantaneous level (utilization, a percentile)."""
        return self.add(name, "gauge", {"value": float(value)}, help)

    def time_weighted_gauge(
        self,
        name: str,
        tracker: UtilizationTracker,
        elapsed: float,
        help: str = "",
    ) -> Metric:
        """Add a tracker's time-weighted average over [0, elapsed] and
        its peak."""
        values = {"average": tracker.average(elapsed), "peak": float(tracker.peak)}
        return self.add(name, "time_weighted_gauge", values, help)

    def histogram(
        self, name: str, histogram: StatsHistogram, help: str = ""
    ) -> Metric:
        """Add a distribution summary: count/mean/min/max plus the
        :data:`HISTOGRAM_PERCENTILES` order statistics (zeros when the
        histogram is empty)."""
        count = histogram.count
        values = {
            "count": float(count),
            "mean": histogram.mean,
            "min": histogram.min if count else 0.0,
            "max": histogram.max if count else 0.0,
        }
        for p in HISTOGRAM_PERCENTILES:
            values[f"p{p:g}"] = histogram.percentile(p) if count else 0.0
        return self.add(name, "histogram", values, help)

    # --------------------------------------------------------------- access
    def names(self) -> list[str]:
        """All metric names, in registration order."""
        return list(self._metrics)

    def get(self, name: str) -> Metric:
        """Look one metric up by name."""
        if name not in self._metrics:
            raise ConfigError(f"unknown metric {name!r}")
        return self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def collect(self) -> dict[str, float]:
        """Flatten every metric into ``name.component -> value``.

        Single-component metrics (counters, gauges) flatten to their bare
        name; multi-component ones get a suffix per component
        (``abc.alloc.wait_cycles.p99``).
        """
        out: dict[str, float] = {}
        for name, metric in self._metrics.items():
            values = metric.values
            if set(values) == {"value"}:
                out[name] = values["value"]
            else:
                for component, value in values.items():
                    out[f"{name}.{component}"] = value
        return out

    # --------------------------------------------------------------- export
    def to_json_dict(self) -> dict:
        """Versioned JSON-safe snapshot of every metric."""
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": [
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "values": dict(metric.values),
                }
                for metric in self._metrics.values()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: typing.Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a JSON snapshot.

        A malformed snapshot raises :class:`~repro.errors.ConfigError`
        naming the offending entry.
        """
        check_schema_version(
            "metrics", data.get("schema_version"), METRICS_SCHEMA_VERSION
        )
        entries = data.get("metrics", [])
        if not isinstance(entries, list):
            raise ConfigError(
                f"serialized metrics must be a list, got {type(entries).__name__}"
            )
        registry = cls()
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ConfigError(
                    f"serialized metric {index} is not an object: {entry!r}"
                )
            missing = {"name", "kind", "values"} - set(entry)
            if missing:
                raise ConfigError(
                    f"serialized metric {index} missing fields: {sorted(missing)}"
                )
            values = entry["values"]
            try:
                values = {str(k): float(v) for k, v in values.items()}
            except (AttributeError, TypeError, ValueError):
                raise ConfigError(
                    f"serialized metric {entry['name']!r} needs an object of "
                    f"numbers as values, got {values!r}"
                ) from None
            registry.add(
                entry["name"], entry["kind"], values, entry.get("help", "")
            )
        return registry

    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format.

        Dots become underscores under a ``repro_`` prefix; histograms are
        exposed as summaries (quantile series plus ``_sum``/``_count``),
        time-weighted gauges as an average gauge plus a ``_peak`` gauge.
        """
        lines: list[str] = []
        for metric in self._metrics.values():
            base = "repro_" + _PROM_SANITIZE_RE.sub("_", metric.name)
            values = metric.values
            if metric.kind in ("counter", "gauge"):
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} {metric.kind}")
                lines.append(f"{base} {values['value']:g}")
            elif metric.kind == "histogram":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} summary")
                for p in HISTOGRAM_PERCENTILES:
                    quantile = p / 100.0
                    lines.append(
                        f'{base}{{quantile="{quantile:g}"}} '
                        f"{values[f'p{p:g}']:g}"
                    )
                lines.append(f"{base}_sum {values['mean'] * values['count']:g}")
                lines.append(f"{base}_count {values['count']:g}")
            else:  # time_weighted_gauge
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {values['average']:g}")
                lines.append(f"# TYPE {base}_peak gauge")
                lines.append(f"{base}_peak {values['peak']:g}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        write_document(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "MetricsRegistry":
        """Read a snapshot written by :meth:`save`."""
        return cls.from_json_dict(
            read_document(
                path, METRICS_SCHEMA_VERSION, kind="metrics", payload="metrics"
            )
        )


# ---------------------------------------------------------------- builders
def system_metrics(
    system: typing.Any, elapsed: float
) -> MetricsRegistry:
    """Registry over a finished :class:`~repro.sim.system.SystemModel` run.

    Covers every layer the simulator models: per-island DMA/NoC-interface
    byte counters and ABB occupancy, the ABC's allocation histograms and
    grant counters, mesh totals, per-controller memory traffic, and the
    energy account.
    """
    registry = MetricsRegistry()
    for island in system.islands:
        prefix = f"island{island.island_id}"
        registry.counter(
            f"{prefix}.dma.bytes", island.dma.total_bytes,
            help="bytes through the island DMA engine",
        )
        registry.counter(
            f"{prefix}.dma.busy_cycles", island.dma.busy_cycles,
            help="cycles the DMA channel was occupied",
        )
        registry.counter(f"{prefix}.noc_in.bytes", island.noc_in.total_bytes)
        registry.counter(f"{prefix}.noc_out.bytes", island.noc_out.total_bytes)
        registry.counter(
            f"{prefix}.spm.bytes_read",
            sum(island.spm.bytes_read),
        )
        registry.counter(
            f"{prefix}.spm.bytes_written",
            sum(island.spm.bytes_written),
        )
        registry.gauge(
            f"{prefix}.failed_slots", float(island.failed_slot_count)
        )
        registry.time_weighted_gauge(
            f"{prefix}.abb.busy", island.abb_tracker, elapsed,
            help="busy ABB count (time-weighted average and peak)",
        )
    abc = system.abc
    registry.histogram(
        "abc.alloc.wait_cycles", abc.wait_cycles,
        help="cycles requests queued in the ABC before a grant",
    )
    registry.histogram(
        "abc.alloc.service_cycles", abc.service_cycles,
        help="grant-to-release hold time per ABB allocation",
    )
    registry.counter("abc.alloc.grants", float(abc.total_grants))
    registry.counter("abc.alloc.queued", float(abc.total_queued))
    registry.counter("abc.alloc.fallbacks", float(abc.fallback_grants))
    registry.counter("mesh.transfers", float(system.noc.total_transfers))
    registry.counter("mesh.byte_hops", system.noc.total_byte_hops)
    for controller in system.memory.controllers:
        registry.counter(
            f"mem.mc{controller.index}.bytes", controller.total_bytes
        )
        registry.gauge(
            f"mem.mc{controller.index}.utilization",
            controller.utilization(elapsed),
        )
    registry.gauge(
        "energy.total_nj", system.energy.total_nj(elapsed),
        help="platform energy over the run (static + dynamic)",
    )
    return registry


def serve_metrics(result: typing.Any) -> MetricsRegistry:
    """Per-tenant registry over a :class:`~repro.serve.slo.ServeResult`.

    Names follow ``serve.<tenant>.<metric>`` with aggregate rollups under
    ``serve.*`` — the registry the ``repro serve --metrics-out`` flag
    dumps alongside the SLO JSON.
    """
    registry = MetricsRegistry()
    for tenant in result.tenants:
        prefix = f"serve.{tenant.tenant}"
        registry.counter(f"{prefix}.offered", float(tenant.offered))
        registry.counter(f"{prefix}.completed", float(tenant.completed))
        registry.counter(f"{prefix}.hw_completed", float(tenant.hw_completed))
        registry.counter(f"{prefix}.sw_fallbacks", float(tenant.sw_fallbacks))
        registry.counter(f"{prefix}.shed", float(tenant.shed))
        registry.gauge(f"{prefix}.latency_p50", tenant.latency_p50)
        registry.gauge(f"{prefix}.latency_p95", tenant.latency_p95)
        registry.gauge(f"{prefix}.latency_p99", tenant.latency_p99)
        registry.gauge(f"{prefix}.goodput", tenant.goodput)
        registry.gauge(f"{prefix}.offered_load", tenant.offered_load)
    registry.counter("serve.offered", float(result.offered))
    registry.counter("serve.completed", float(result.completed))
    registry.counter("serve.shed", float(result.shed))
    registry.gauge("serve.goodput", result.goodput)
    registry.gauge("serve.latency_p99", result.latency_p99)
    registry.gauge("serve.jain_fairness", result.jain_fairness)
    for key, value in sorted(result.extras.items()):
        registry.gauge(
            "serve.extras." + _PROM_SANITIZE_RE.sub("_", key).replace(".", "_"),
            value,
        )
    return registry
