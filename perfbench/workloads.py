"""The benchmark's four workloads, built from a seed through the public API.

``setup(seed, ops)`` builds every input a pass needs (the program sees
only these); ``run_pass(inputs, ops)`` performs one pass and returns an
:class:`Outcome`.  Every call into the program goes through ``ops`` (see
:class:`perfbench.ledger.Ops`), which counts attempts and failures, runs
the output checks and, in the ledger pass, records a span per call.

Why each workload exists, and which layers it should and should not
move, is recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import typing

from repro.dse import fig6_series
from repro.dse import report as dse_report
from repro.engine.trace import Tracer
from repro.faults import parse_fault_spec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.obs import (
    CATEGORIES,
    analyze_critical_path,
    trace_document,
    validate_events,
)
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    TenantSpec,
    arrival_times,
    estimate_saturation,
    run_serve,
)
from repro.serve.arrivals import MEGACYCLE
from repro.sim import SystemConfig, run_workload
from repro.workloads import MEDICAL_NAMES, get_workload, synthetic_workload

#: Tiles per closed-loop run: the report default, so the fig6 pass is
#: exactly what ``repro report`` runs.
TILES = dse_report.DEFAULT_TILES


@dataclasses.dataclass
class Outcome:
    """What one pass produced."""

    #: SimResult / ServeResult objects, in call order.
    results: list
    #: Simulated cycles completed by the pass's runs.
    sim_cycles: float
    #: Simulated statistics read from public result fields.
    stats: dict = dataclasses.field(default_factory=dict)


def sim_digest(results: typing.Sequence) -> str:
    """Digest of every simulated statistic of a pass.

    Results are frozen dataclasses whose ``repr`` prints every field
    with full float precision, so any model change alters the digest.
    The reprs are sorted: ``fig6_series`` runs its baselines in set
    order, which changes with ``PYTHONHASHSEED``.
    """
    text = "\n".join(sorted(repr(result) for result in results))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _tiles_check(workload):
    def check(result) -> typing.Optional[str]:
        if result.tiles != workload.tiles:
            return f"{result.tiles}/{workload.tiles} tiles completed"
        return None

    return check


@contextlib.contextmanager
def _replaced(module, name: str, value):
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


class Fig6Sweep:
    """Closed loop: the paper's Figure 6 island-scaling sweep."""

    name = "fig6_sweep"
    reference_pass = None

    def setup(self, seed: int, ops) -> dict:
        # The sweep is the paper's fixed design space: it has no random
        # input, so every seed gives the same pass.
        return {}

    def run_pass(self, inputs: dict, ops) -> Outcome:
        results: list = []

        def recorded(config, workload, **kwargs):
            result = ops.call(
                "run_workload",
                run_workload,
                config,
                workload,
                check=_tiles_check(workload),
                **kwargs,
            )
            results.append(result)
            return result

        # fig6_series reaches run_workload through the report module's
        # global; routing it through ops counts each of the 34 runs as
        # an operation and keeps its result for the digest.
        with _replaced(dse_report, "run_workload", recorded):
            series = fig6_series(tiles=TILES)
        values = [v for row in series.values() for v in row]
        if len(values) != 32 or not all(
            math.isfinite(v) and v > 0 for v in values
        ):
            ops.fail(f"fig6_series returned a malformed series: {series}")
        return Outcome(results, sum(r.total_cycles for r in results))


#: The slot-constrained single-island mix: ABB slots, not memory, are
#: the bottleneck, so ABC queues build during bursts.
SERVE_MIX = {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}
SERVE_TENANTS = 4
SERVE_LOAD = 0.8
#: Which requests queue or fall back depends on where the seed puts
#: the bursts; over 10 bursts per tenant the Python calls a pass makes
#: differ by under 5% between seeds.
SERVE_DURATION = 3_000_000.0


def _first_arrivals(arrival: ArrivalConfig, count: int, stream: str) -> list:
    """The first ``count`` arrival times of one stream."""
    horizon = 2.0 * count / arrival.rate_per_mcycle * MEGACYCLE
    while True:
        # A longer horizon only appends draws, so the prefix is stable.
        times = arrival_times(arrival, horizon, stream)
        if len(times) >= count:
            return times[:count]
        horizon *= 2.0


class ServeBursty:
    """Open loop in simulated time: 4 bursty tenants under admission."""

    name = "serve_bursty"
    reference_pass = None

    def setup(self, seed: int, ops) -> dict:
        config = SystemConfig(n_islands=1, abb_mix=dict(SERVE_MIX))
        workload = synthetic_workload(
            name="rpc", depth=2, width=2, invocations=32, tiles=TILES
        )
        saturation = ops.call(
            "estimate_saturation",
            estimate_saturation,
            config,
            [workload] * SERVE_TENANTS,
        )
        rate = SERVE_LOAD * saturation / SERVE_TENANTS
        onoff = ArrivalConfig(
            kind="onoff",
            rate_per_mcycle=rate,
            mean_on_cycles=150_000,
            mean_off_cycles=150_000,
            seed=seed,
        )
        count = round(rate * SERVE_DURATION / MEGACYCLE)
        streams = [
            _first_arrivals(onoff, count, f"t{i}") for i in range(SERVE_TENANTS)
        ]
        # A raw on/off session offers a seed-dependent load (0.6x to 0.9x
        # saturation over 1 M cycles).  Stretching every stream by
        # one factor makes each session offer exactly SERVE_LOAD: the
        # seed moves the bursts, not the amount of work.
        scale = (SERVE_DURATION - 1.0) / max(times[-1] for times in streams)
        tenants = tuple(
            TenantSpec(
                name=f"t{i}",
                workload=workload,
                arrival=ArrivalConfig(
                    kind="trace", trace=tuple(t * scale for t in times)
                ),
            )
            for i, times in enumerate(streams)
        )
        serve = ServeConfig(
            tenants=tenants,
            admission=AdmissionConfig("wait_threshold"),
            duration_cycles=SERVE_DURATION,
            seed=seed,
        )
        return {"config": config, "serve": serve}

    def run_pass(self, inputs: dict, ops) -> Outcome:
        def check(result) -> typing.Optional[str]:
            # run_serve itself raises when an admitted request never
            # completes; this catches an empty or lossy session.
            if result.offered == 0:
                return "no requests offered"
            if result.completed + result.shed != result.offered:
                return (
                    f"{result.completed} completed + {result.shed} shed "
                    f"!= {result.offered} offered"
                )
            return None

        result = ops.call(
            "run_serve", run_serve, inputs["config"], inputs["serve"], check=check
        )
        stats = {
            "serve.offered": result.offered,
            "serve.sw_fallbacks": result.sw_fallbacks,
            "serve.shed": result.shed,
            "serve.p99_kcycles": result.latency_p99 / 1e3,
        }
        return Outcome([result], result.drained_cycles, stats)


#: Both SPM<->DMA network families of the tracing reference suite.
TRACE_NETWORKS = (
    SpmDmaNetworkConfig(),
    SpmDmaNetworkConfig(NetworkKind.RING, 32, 2),
)


def _shares_check(shares: typing.Mapping[str, float]) -> typing.Optional[str]:
    total = sum(shares.values())
    if abs(total - 1.0) > 1e-9:
        return f"attribution shares sum to {total!r}, not 1"
    return None


class TraceAttrib:
    """Closed loop with a live Tracer and the full export path."""

    name = "trace_attrib"

    def setup(self, seed: int, ops) -> dict:
        # The paper's medical suite on its reference platforms has no
        # random input: every seed gives the same pass.
        cells = [
            (SystemConfig(n_islands=3, network=network), get_workload(name, tiles=TILES))
            for network in TRACE_NETWORKS
            for name in MEDICAL_NAMES
        ]
        return {"cells": cells}

    def reference_pass(self, inputs: dict, ops) -> Outcome:
        """The same runs untraced: the base of ``obs.trace_overhead`` and
        of the traced-equals-untraced check."""
        results = [
            ops.call(
                "run_workload", run_workload, config, workload,
                check=_tiles_check(workload),
            )
            for config, workload in inputs["cells"]
        ]
        return Outcome(results, sum(r.total_cycles for r in results))

    def run_pass(self, inputs: dict, ops) -> Outcome:
        results = []
        spans = 0
        shares = {category: 0.0 for category in CATEGORIES}
        for config, workload in inputs["cells"]:
            tracer = Tracer()
            result = ops.call(
                "run_workload",
                run_workload,
                config,
                workload,
                tracer=tracer,
                check=lambda r, w=workload: _tiles_check(w)(r)
                or _shares_check(r.attribution),
            )
            document = ops.call("trace_document", trace_document, tracer)
            ops.call("validate_events", validate_events, document["traceEvents"])
            report = ops.call(
                "analyze_critical_path",
                analyze_critical_path,
                tracer,
                makespan=result.total_cycles,
                check=lambda r: _shares_check(r.shares()),
            )
            results.append(result)
            spans += len(tracer.records)
            for category, share in report.shares().items():
                shares[category] += share / len(inputs["cells"])
        stats = {"obs.spans": spans}
        stats.update({f"attr.{c}": share for c, share in shares.items()})
        return Outcome(results, sum(r.total_cycles for r in results), stats)

    def check_reference(
        self, outcome: Outcome, reference: Outcome
    ) -> typing.Optional[str]:
        untraced = [
            dataclasses.replace(result, attribution={})
            for result in outcome.results
        ]
        if untraced != reference.results:
            return "traced results differ from untraced ones"
        return None


#: The CI fault matrix's specs.
FAULT_SPECS = ("abb:0.25", "dma:0.15,dmadrop:0.05", "abb:0.25,dma:0.1,noc:0.2")
FAULT_WORKLOADS = ("Denoise", "EKF-SLAM")


def fault_seeds(seed: int) -> tuple:
    """Three fault seeds per workload seed; seed 0 gives CI's 1, 2, 3."""
    return tuple(3 * seed + k for k in (1, 2, 3))


class FaultMatrix:
    """Closed loop under the CI fault matrix: the generator DMA path."""

    name = "fault_matrix"
    reference_pass = None

    def setup(self, seed: int, ops) -> dict:
        cells = [
            (
                SystemConfig(
                    n_islands=6,
                    faults=parse_fault_spec(spec),
                    fault_seed=fault_seed,
                ),
                get_workload(name, tiles=TILES),
            )
            for spec in FAULT_SPECS
            for fault_seed in fault_seeds(seed)
            for name in FAULT_WORKLOADS
        ]
        return {"cells": cells}

    def run_pass(self, inputs: dict, ops) -> Outcome:
        results = [
            ops.call(
                "run_workload", run_workload, config, workload,
                check=_tiles_check(workload),
            )
            for config, workload in inputs["cells"]
        ]
        if not sum(r.failed_abbs for r in results):
            ops.fail("no ABB failure manifested under the abb specs")
        if not sum(r.dma_stalls for r in results):
            ops.fail("no DMA stall manifested under the dma specs")
        return Outcome(results, sum(r.total_cycles for r in results))


WORKLOADS = {
    workload.name: workload
    for workload in (Fig6Sweep(), ServeBursty(), TraceAttrib(), FaultMatrix())
}
