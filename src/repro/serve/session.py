"""Multi-tenant open-loop session runner.

Interleaves N tenants' request streams over **one** shared
:class:`~repro.sim.system.SystemModel` — shared ABB pool, shared mesh
NoC, shared memory controllers, one Accelerator Block Composer
arbitrating all of it.  Each request is one instance of the tenant's
flow graph (the open-loop analogue of a closed-loop tile); the admission
frontend decides per request whether it queues for hardware, runs on a
host core in software, or is shed.

The whole session is a deterministic function of
``(SystemConfig, ServeConfig, library)``: arrivals are seeded, the
discrete-event engine breaks ties by insertion order, and admission
decisions depend only on simulated state — so a session is
bit-reproducible and cacheable by content address
(see :func:`repro.dse.cache.serve_point_fingerprint`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from functools import partial

from repro.abb.library import ABBLibrary
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.serve.arrivals import MEGACYCLE, ArrivalConfig, arrival_times
from repro.serve.frontend import AdmissionConfig, AdmissionFrontend, Decision
from repro.serve.slo import (
    ServeResult,
    TenantSLO,
    jain_index,
    latency_summary,
)
from repro.sim.run import TILE_ID_STRIDE, RequestDriver, run_workload
from repro.sim.system import SystemConfig, SystemModel
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a serving session: a workload plus its arrivals."""

    name: str
    workload: Workload
    arrival: ArrivalConfig = ArrivalConfig()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")


@dataclass(frozen=True)
class ServeConfig:
    """Serving-side configuration, the ``SystemConfig`` of a session.

    Covered by :meth:`fingerprint` exactly like a system config — every
    field (tenants with their full workload kernels and arrival seeds,
    the admission policy, duration, session seed) feeds the SHA-256
    content address, so the DSE cache can store serve points with no
    stale-key collisions.
    """

    tenants: tuple = ()
    admission: AdmissionConfig = AdmissionConfig()
    duration_cycles: float = 2_000_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("serving session needs at least one tenant")
        if self.duration_cycles <= 0:
            raise ConfigError(
                f"serve duration must be positive, got {self.duration_cycles}"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")

    def with_policy(self, admission: AdmissionConfig) -> "ServeConfig":
        """Copy of this config under a different admission policy."""
        return replace(self, admission=admission)

    def fingerprint(self) -> str:
        """Stable SHA-256 content address covering every field."""
        from repro.sim.fingerprint import digest

        return digest(self)


def make_tenants(
    n_tenants: int,
    workloads: typing.Sequence[Workload],
    arrival: ArrivalConfig,
) -> tuple:
    """Build N uniform tenants cycling over ``workloads``.

    Tenant ``i`` is named ``t<i>`` and runs ``workloads[i % len]``; all
    share one arrival config (the session runner decorrelates their
    streams by tenant index).
    """
    if n_tenants < 1:
        raise ConfigError(f"need at least one tenant, got {n_tenants}")
    if not workloads:
        raise ConfigError("need at least one workload")
    return tuple(
        TenantSpec(
            name=f"t{i}",
            workload=workloads[i % len(workloads)],
            arrival=arrival,
        )
        for i in range(n_tenants)
    )


@dataclass
class _TenantState:
    """Mutable per-tenant accounting while a session runs."""

    spec: TenantSpec
    graph: typing.Any
    sw_cycles: float
    sw_read_bytes: float
    sw_write_bytes: float
    offered: int = 0
    shed: int = 0
    sw_fallbacks: int = 0
    latencies: list = field(default_factory=list)
    window_completions: int = 0  # completed before the duration horizon


def estimate_saturation(
    config: SystemConfig,
    workloads: typing.Sequence[Workload],
    library: typing.Optional[ABBLibrary] = None,
) -> float:
    """Closed-loop saturation throughput, requests per megacycle.

    Runs each distinct workload closed-loop on ``config`` and combines
    the per-workload throughputs harmonically over the tenant list —
    the sustained rate of a fair interleaving.  This anchors "0.8x
    saturation load" style experiments to a measured capacity instead
    of a guessed rate.  Workloads are told apart by content, not name.
    """
    if not workloads:
        raise ConfigError("need at least one workload")
    rates: list[float] = []  # tiles per Mcycle
    for index, workload in enumerate(workloads):
        first = workloads.index(workload)  # the first equal workload
        if first < index:
            rates.append(rates[first])
        else:
            result = run_workload(config, workload, library=library)
            rates.append(result.performance)
    inverse = sum(1.0 / rate for rate in rates) / len(rates)
    return 1.0 / inverse


def run_serve(
    config: SystemConfig,
    serve: ServeConfig,
    library: typing.Optional[ABBLibrary] = None,
    tracer: typing.Optional[Tracer] = None,
) -> ServeResult:
    """Serve ``serve.tenants`` on one shared system for one session.

    Arrivals are generated open-loop for ``duration_cycles``; admitted
    work then drains to completion (``drained_cycles`` reports when).
    Goodput counts only requests that complete inside the measurement
    window, so an overloaded session shows sustained load below offered
    load rather than hiding the backlog in the drain.

    Passing a ``tracer`` records the session's span trace without
    perturbing it (results are bit-identical) and adds bottleneck
    attribution to the result's ``extras``: ``attr.<category>`` shares
    of the session critical path, plus ``busy.<tenant>.<category>``
    per-tenant busy-cycle breakdowns (see :mod:`repro.obs.critpath`).
    """
    system = SystemModel(config, library=library, tracer=tracer)
    sim = system.sim
    driver = RequestDriver(system)
    frontend = AdmissionFrontend(system, serve.admission)
    duration = serve.duration_cycles
    wait_estimates: list[float] = []

    tenants: list[_TenantState] = []
    for spec in serve.tenants:
        graph = spec.workload.build_graph(system.library)
        sw_cycles = system.fallback_model.graph_cycles(graph)
        sw_read = sum(
            graph.memory_input_bytes(t.task_id, system.library)
            for t in graph.tasks
        )
        sw_write = sum(
            graph.task_output_bytes(t, system.library) for t in graph.sinks()
        )
        tenants.append(
            _TenantState(spec, graph, sw_cycles, sw_read, sw_write)
        )

    def complete(state: _TenantState, arrived: float, _ref: str = "") -> None:
        state.latencies.append(sim.now - arrived)
        if sim.now <= duration:
            state.window_completions += 1

    def sw_request(state: _TenantState, tile_id: int, arrived: float):
        # ARC's software path: the whole flow graph runs as one job on a
        # host core.  Chained intermediates stay core-local.
        ref = f"{state.spec.name}.t{tile_id}.sw"
        yield system.fallback_cores.request()
        if tracer is not None and sim.now > arrived:
            tracer.record(arrived, sim.now, "core.sw", "alloc_wait", ref, ref)
        yield from system.software_execute(
            state.sw_read_bytes,
            state.sw_cycles,
            state.sw_write_bytes,
            tile_id,
            ref,
            sim.now,
        )
        system.fallback_cores.release()
        if tracer is not None:
            tracer.record(
                arrived,
                sim.now,
                "core.sw",
                "task",
                ref,
                ref,
                {"deps": [], "tenant": state.spec.name},
            )
        state.sw_fallbacks += 1
        driver.finished += 1
        complete(state, arrived)

    def tenant_stream(index: int, state: _TenantState, times: list[float]):
        for request_index, arrival in enumerate(times):
            yield sim.delay(arrival - sim.now)
            state.offered += 1
            tile_id = index * TILE_ID_STRIDE + request_index
            decision, estimate = frontend.decide(state.graph, state.sw_cycles)
            wait_estimates.append(estimate)
            if decision is Decision.SHED:
                state.shed += 1
            elif decision is Decision.SOFTWARE:
                driver.started += 1
                sim.process(sw_request(state, tile_id, sim.now))
            else:
                driver.issue(
                    state.graph,
                    tile_id,
                    partial(complete, state, sim.now),
                    state.spec.name,
                )

    for index, state in enumerate(tenants):
        times = arrival_times(
            state.spec.arrival,
            duration,
            stream=f"{serve.seed}:{index}:{state.spec.name}",
        )
        if times:
            sim.process(tenant_stream(index, state, times))
    shares = driver.run("serving session")

    drained = sim.now
    tenant_rows = []
    all_latencies: list[float] = []
    for state in tenants:
        summary = latency_summary(state.latencies)
        all_latencies.extend(state.latencies)
        tenant_rows.append(
            TenantSLO(
                tenant=state.spec.name,
                workload=state.spec.workload.name,
                offered=state.offered,
                completed=len(state.latencies),
                hw_completed=len(state.latencies) - state.sw_fallbacks,
                sw_fallbacks=state.sw_fallbacks,
                shed=state.shed,
                **{f"latency_{k}": v for k, v in summary.items()},
                offered_load=state.offered / duration * MEGACYCLE,
                goodput=state.window_completions / duration * MEGACYCLE,
            )
        )
    aggregate = latency_summary(all_latencies)
    elapsed = max(drained, 1.0)
    extras = {f"attr.{category}": share for category, share in shares.items()}
    if tracer is not None:
        from repro.obs.critpath import category_cycles_by_tenant

        for tenant, cycles in sorted(category_cycles_by_tenant(tracer).items()):
            for category, value in cycles.items():
                extras[f"busy.{tenant or 'none'}.{category}"] = value
    return ServeResult(
        extras=extras,
        config_label=config.label(),
        policy=serve.admission.policy,
        duration_cycles=duration,
        drained_cycles=drained,
        tenants=tuple(tenant_rows),
        **{f"latency_{k}": v for k, v in aggregate.items()},
        jain_fairness=jain_index([row.goodput for row in tenant_rows]),
        energy_nj=system.energy.total_nj(elapsed),
        abb_utilization_avg=system.average_abb_utilization(elapsed),
        mean_wait_estimate=(
            sum(wait_estimates) / len(wait_estimates) if wait_estimates else 0.0
        ),
    )
