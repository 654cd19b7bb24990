"""Hierarchically named metrics registry with JSON and Prometheus export.

The registry is a *view* layer: metrics wrap the statistics objects the
simulation already maintains (:mod:`repro.engine.stats` counters and
histograms, :class:`~repro.engine.stats.UtilizationTracker`,
bandwidth-server byte totals) and sample them on demand.  Nothing is
recorded twice and nothing runs during simulation, so an un-exported
registry costs exactly zero — the zero-cost-when-disabled guarantee of
the observability subsystem.

Names are dot-separated hierarchies (``island0.dma.bytes``,
``abc.alloc.wait_cycles``, ``serve.t1.shed``); each segment is
restricted to ``[A-Za-z0-9_-]`` so every name maps cleanly onto both
JSON keys and Prometheus metric names (dots become underscores, with a
``repro_`` prefix).

Exports are versioned (:data:`METRICS_SCHEMA_VERSION`) and round-trip:
:meth:`MetricsRegistry.from_json_dict` rebuilds a registry of static
samples from :meth:`MetricsRegistry.to_json_dict` output.
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

_Source = typing.Union[float, int, typing.Callable[[], float]]


def _check_name(name: str) -> str:
    if not name:
        raise ConfigError("metric name must be non-empty")
    for segment in name.split("."):
        if not _SEGMENT_RE.match(segment):
            raise ConfigError(
                f"bad metric name {name!r}: segment {segment!r} must match "
                f"[A-Za-z0-9_-]+"
            )
    return name


def _sample_scalar(source: _Source) -> float:
    if callable(source):
        return float(source())
    return float(source)


class Metric:
    """One named metric: a kind plus a ``values()`` sampler."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help

    def values(self) -> dict[str, float]:
        """Sample the metric now; keys are value-component names."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total (bytes moved, grants made)."""

    kind = "counter"

    def __init__(self, name: str, source: _Source, help: str = "") -> None:
        super().__init__(name, help)
        self._source = source

    def values(self) -> dict[str, float]:
        return {"value": _sample_scalar(self._source)}


class Gauge(Metric):
    """An instantaneous level (utilization, queue depth, a percentile)."""

    kind = "gauge"

    def __init__(self, name: str, source: _Source, help: str = "") -> None:
        super().__init__(name, help)
        self._source = source

    def values(self) -> dict[str, float]:
        return {"value": _sample_scalar(self._source)}


class TimeWeightedGauge(Metric):
    """Time-weighted average + peak of a level over a run.

    A view over :class:`~repro.engine.stats.UtilizationTracker`: the
    exported ``average`` integrates the level over [0, elapsed], and
    ``peak`` is the high-water mark.
    """

    kind = "time_weighted_gauge"

    def __init__(
        self,
        name: str,
        tracker: UtilizationTracker,
        elapsed: typing.Union[float, typing.Callable[[], float]],
        help: str = "",
    ) -> None:
        super().__init__(name, help)
        self._tracker = tracker
        self._elapsed = elapsed

    def values(self) -> dict[str, float]:
        elapsed = self._elapsed() if callable(self._elapsed) else self._elapsed
        return {
            "average": self._tracker.average(elapsed),
            "peak": float(self._tracker.peak),
        }


class HistogramView(Metric):
    """Distribution summary over an :class:`engine.stats.Histogram`.

    Exports count/mean/min/max plus the :data:`HISTOGRAM_PERCENTILES`
    order statistics (zeros when the histogram is empty).
    """

    kind = "histogram"

    def __init__(
        self, name: str, histogram: StatsHistogram, help: str = ""
    ) -> None:
        super().__init__(name, help)
        self._histogram = histogram

    def values(self) -> dict[str, float]:
        hist = self._histogram
        if hist.count == 0:
            out = {"count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
            for p in HISTOGRAM_PERCENTILES:
                out[f"p{p:g}"] = 0.0
            return out
        out = {
            "count": float(hist.count),
            "mean": hist.mean,
            "min": hist.min,
            "max": hist.max,
        }
        for p in HISTOGRAM_PERCENTILES:
            out[f"p{p:g}"] = hist.percentile(p)
        return out


class _StaticMetric(Metric):
    """A metric rebuilt from serialized samples (no live source)."""

    def __init__(
        self, name: str, kind: str, values: dict[str, float], help: str = ""
    ) -> None:
        super().__init__(name, help)
        self.kind = kind
        self._values = dict(values)

    def values(self) -> dict[str, float]:
        return dict(self._values)


class MetricsRegistry:
    """A namespace of metrics with versioned export.

    Registration order is preserved; names are unique.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # --------------------------------------------------------- registration
    def register(self, metric: Metric) -> Metric:
        """Add one metric; duplicate names are rejected."""
        if metric.name in self._metrics:
            raise ConfigError(f"duplicate metric name {metric.name!r}")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, source: _Source, help: str = "") -> Counter:
        """Register and return a counter view."""
        metric = Counter(name, source, help)
        self.register(metric)
        return metric

    def gauge(self, name: str, source: _Source, help: str = "") -> Gauge:
        """Register and return a gauge view."""
        metric = Gauge(name, source, help)
        self.register(metric)
        return metric

    def time_weighted_gauge(
        self,
        name: str,
        tracker: UtilizationTracker,
        elapsed: typing.Union[float, typing.Callable[[], float]],
        help: str = "",
    ) -> TimeWeightedGauge:
        """Register and return a time-weighted gauge view."""
        metric = TimeWeightedGauge(name, tracker, elapsed, help)
        self.register(metric)
        return metric

    def histogram(
        self, name: str, histogram: StatsHistogram, help: str = ""
    ) -> HistogramView:
        """Register and return a histogram view."""
        metric = HistogramView(name, histogram, help)
        self.register(metric)
        return metric

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
            values = metric.values()
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
                    "values": metric.values(),
                }
                for metric in self._metrics.values()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: typing.Mapping) -> "MetricsRegistry":
        """Rebuild a registry of static samples from a JSON snapshot."""
        check_schema_version(
            "metrics", data.get("schema_version"), METRICS_SCHEMA_VERSION
        )
        registry = cls()
        for entry in data.get("metrics", []):
            missing = {"name", "kind", "values"} - set(entry)
            if missing:
                raise ConfigError(
                    f"serialized metric missing fields: {sorted(missing)}"
                )
            registry.register(
                _StaticMetric(
                    entry["name"],
                    entry["kind"],
                    {str(k): float(v) for k, v in entry["values"].items()},
                    entry.get("help", ""),
                )
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
            values = metric.values()
            if metric.kind == "counter":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} counter")
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
            elif metric.kind == "time_weighted_gauge":
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {values['average']:g}")
                lines.append(f"# TYPE {base}_peak gauge")
                lines.append(f"{base}_peak {values['peak']:g}")
            else:  # gauge and static kinds with a single value
                lines.append(f"# HELP {base} {metric.help}".rstrip())
                lines.append(f"# TYPE {base} gauge")
                for component, value in sorted(values.items()):
                    suffix = "" if component == "value" else f"_{component}"
                    lines.append(f"{base}{suffix} {value:g}")
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
            sum(group.bytes_read for group in island.spm_groups),
        )
        registry.counter(
            f"{prefix}.spm.bytes_written",
            sum(group.bytes_written for group in island.spm_groups),
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
