"""SLO metrics for multi-tenant serving sessions.

Closed-loop results are summarized by throughput (cycles/tile); an
open-loop serving system is judged by its *latency distribution* at a
given offered load.  This module defines the result dataclasses — one
:class:`TenantSLO` per tenant plus an aggregate :class:`ServeResult` —
and the derived service-level metrics: p50/p95/p99 request latency,
offered vs. sustained load, goodput, software-fallback and shed rates,
and a Jain fairness index over per-tenant goodput.

Percentiles are exact order statistics (see
:meth:`repro.engine.stats.Histogram.percentile`), not bucket
interpolations — tail metrics are the whole point of SLO reporting, and
bucket-midpoint error concentrates exactly there.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.engine.stats import Histogram
from repro.errors import ConfigError
from repro.sim.serialize import from_dict, read_document, to_dict, write_document

#: Format version for serialized serve results.
SERVE_SCHEMA_VERSION = 1

#: Cycles per megacycle (load/goodput unit).
MEGACYCLE = 1e6


def jain_index(values: typing.Sequence[float]) -> float:
    """Jain fairness index of a set of non-negative allocations.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when every tenant gets the same
    goodput, ``1/n`` when one tenant gets everything.  An empty or
    all-zero set is vacuously fair (1.0).
    """
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ConfigError(f"Jain index needs non-negative values, got {values}")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return total * total / (len(values) * squares)


def latency_summary(latencies: typing.Sequence[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max of a latency sample set (zeros when empty)."""
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    histogram = Histogram("latency")
    for value in latencies:
        histogram.record(value)
    return {
        "p50": histogram.percentile(50.0),
        "p95": histogram.percentile(95.0),
        "p99": histogram.percentile(99.0),
        "mean": histogram.mean,
        "max": histogram.max,
    }


@dataclass(frozen=True)
class TenantSLO:
    """Service-level outcome for one tenant of a serving session."""

    tenant: str
    workload: str
    offered: int
    completed: int
    hw_completed: int
    sw_fallbacks: int
    shed: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    offered_load: float  # requests per megacycle offered
    goodput: float  # requests per megacycle completed

    @property
    def fallback_rate(self) -> float:
        """Share of offered requests served in software."""
        return self.sw_fallbacks / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        """Share of offered requests dropped."""
        return self.shed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one multi-tenant open-loop serving session."""

    config_label: str
    policy: str
    duration_cycles: float
    drained_cycles: float  # total simulated time incl. post-arrival drain
    tenants: tuple[TenantSLO, ...] = ()
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    latency_max: float = 0.0
    jain_fairness: float = 1.0
    energy_nj: float = 0.0
    abb_utilization_avg: float = 0.0
    mean_wait_estimate: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_cycles <= 0:
            raise ConfigError("serve duration must be positive")
        if self.drained_cycles < 0:
            raise ConfigError("drained cycles must be non-negative")

    # ------------------------------------------------------------- rollups
    @property
    def offered(self) -> int:
        """Total requests offered across tenants."""
        return sum(t.offered for t in self.tenants)

    @property
    def completed(self) -> int:
        """Total requests completed (hardware + software)."""
        return sum(t.completed for t in self.tenants)

    @property
    def hw_completed(self) -> int:
        """Requests completed via hardware composition."""
        return sum(t.hw_completed for t in self.tenants)

    @property
    def sw_fallbacks(self) -> int:
        """Requests completed via the software-fallback path."""
        return sum(t.sw_fallbacks for t in self.tenants)

    @property
    def shed(self) -> int:
        """Requests dropped by the shed policy."""
        return sum(t.shed for t in self.tenants)

    @property
    def offered_load(self) -> float:
        """Aggregate offered load, requests per megacycle."""
        return self.offered / self.duration_cycles * MEGACYCLE

    @property
    def goodput(self) -> float:
        """Aggregate sustained goodput, requests per megacycle."""
        return self.completed / self.duration_cycles * MEGACYCLE

    @property
    def fallback_rate(self) -> float:
        """Share of offered requests served in software."""
        return self.sw_fallbacks / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        """Share of offered requests dropped."""
        return self.shed / self.offered if self.offered else 0.0

    def summary_row(self) -> dict[str, float]:
        """Flat dict for report tables."""
        return {
            "offered_load": self.offered_load,
            "goodput": self.goodput,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "fallback_rate": self.fallback_rate,
            "shed_rate": self.shed_rate,
            "jain_fairness": self.jain_fairness,
        }


# ------------------------------------------------------------- serialization
def serve_result_to_dict(result: ServeResult) -> dict:
    """Flatten a serve result (with per-tenant rows) for JSON."""
    return {**to_dict(result), "derived": result.summary_row()}


def serve_result_from_dict(data: typing.Mapping) -> ServeResult:
    """Rebuild a serve result from :func:`serve_result_to_dict` output."""
    return from_dict(ServeResult, data)


def save_serve_results(
    results: typing.Sequence[ServeResult], path: str, note: str = ""
) -> None:
    """Write serving-session results to a JSON file."""
    write_document(
        path,
        {
            "schema_version": SERVE_SCHEMA_VERSION,
            "kind": "serve",
            "note": note,
            "results": [serve_result_to_dict(r) for r in results],
        },
    )


def load_serve_results(path: str) -> list:
    """Read results back from :func:`save_serve_results` output."""
    document = read_document(path, SERVE_SCHEMA_VERSION, kind="serve")
    if document.get("kind") != "serve":
        raise ConfigError(f"{path!r} is not a serve-results document")
    return [serve_result_from_dict(d) for d in document["results"]]
