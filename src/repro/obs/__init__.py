"""Observability subsystem: metrics, Perfetto traces, bottleneck attribution.

Three post-run views over a simulation, all opt-in and bit-neutral (a
run with observability enabled is cycle- and fingerprint-identical to
one without):

* :mod:`repro.obs.metrics` — a hierarchical metrics registry
  (``island0.dma.bytes``, ``abc.alloc.wait_cycles``,
  ``serve.tenant1.shed``) of :class:`~repro.obs.metrics.Metric` records
  sampled from ``engine.stats`` after a run, with versioned JSON and
  Prometheus text export.
* :mod:`repro.obs.perfetto` — Chrome/Perfetto trace-event export of
  the :class:`~repro.engine.trace.TraceRecord` spans a
  :class:`~repro.engine.trace.Tracer` holds; open any run in
  ``ui.perfetto.dev``.
* :mod:`repro.obs.critpath` — critical-path analysis over the per-task
  span DAG, attributing the makespan to compute / SPM conflict / DMA /
  NoC / ABC wait / other.

See ``docs/OBSERVABILITY.md`` for the naming scheme and workflows.
"""

from repro.obs.critpath import (
    CATEGORIES,
    AttributionReport,
    Segment,
    analyze_critical_path,
    category_cycles_by_tenant,
)
from repro.obs.metrics import (
    HISTOGRAM_PERCENTILES,
    METRICS_SCHEMA_VERSION,
    Metric,
    MetricsRegistry,
    serve_metrics,
    system_metrics,
)
from repro.obs.perfetto import (
    REQUIRED_EVENT_KEYS,
    TRACE_SCHEMA_VERSION,
    load_trace,
    trace_document,
    trace_events,
    validate_events,
    write_trace,
)

__all__ = [
    "CATEGORIES",
    "AttributionReport",
    "Segment",
    "analyze_critical_path",
    "category_cycles_by_tenant",
    "HISTOGRAM_PERCENTILES",
    "METRICS_SCHEMA_VERSION",
    "Metric",
    "MetricsRegistry",
    "serve_metrics",
    "system_metrics",
    "REQUIRED_EVENT_KEYS",
    "TRACE_SCHEMA_VERSION",
    "load_trace",
    "trace_document",
    "trace_events",
    "validate_events",
    "write_trace",
]
