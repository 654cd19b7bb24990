"""Golden equivalence: observability must be bit-neutral.

Tracing is opt-in and purely observational — a traced run must produce
*bit-identical* results to an untraced one.  These tests re-run the
pinned golden configurations with a tracer attached and require the
exact golden values, plus field-by-field equality of traced vs untraced
results for both batch and serving paths.  Tracing also schedules no
events: traced runs take exactly the heap entries and processes of
untraced ones.
"""

from dataclasses import replace

import pytest

from repro.engine.trace import Tracer
from repro.faults import parse_fault_spec
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    make_tenants,
    run_serve,
)
from repro.sim import SystemConfig, run_workload
from repro.sim.serialize import result_to_dict
from repro.workloads import denoise, get_workload, synthetic_workload
from tests.test_golden import GOLDEN, NETWORKS


@pytest.mark.parametrize("name,net", sorted(GOLDEN))
def test_traced_run_matches_golden(name, net, work_counts):
    config = SystemConfig(n_islands=3, network=NETWORKS[net])
    result = run_workload(config, get_workload(name, tiles=4), tracer=Tracer())
    cycles, energy, heap_entries, processes = GOLDEN[(name, net)]
    assert result.total_cycles == pytest.approx(cycles, rel=1e-12)
    assert result.energy_nj == pytest.approx(energy, rel=1e-12)
    assert work_counts.take() == (heap_entries, processes)


#: Fault specs for the traced-vs-untraced check: none, the DMA
#: stall/retry path, and every model together.
FAULT_SPECS = ("", "dma:0.15,dmadrop:0.05", "abb:0.25,dma:0.1,noc:0.2")


@pytest.mark.parametrize(
    "name,net,fault_spec",
    [
        pytest.param(
            name, net, spec, id=f"{name}-{net}" + (f"-{spec}" if spec else "")
        )
        for spec in FAULT_SPECS
        for name, net in sorted(GOLDEN)
    ],
)
def test_traced_equals_untraced(name, net, fault_spec, work_counts):
    config = SystemConfig(
        n_islands=3,
        network=NETWORKS[net],
        faults=parse_fault_spec(fault_spec),
        fault_seed=1,
    )
    base = run_workload(config, get_workload(name, tiles=4))
    base_counts = work_counts.take()
    traced = run_workload(config, get_workload(name, tiles=4), tracer=Tracer())
    assert work_counts.take() == base_counts
    # Identical in every field except the attribution the tracer adds.
    assert traced.attribution  # tracing actually produced attribution
    assert not base.attribution
    assert replace(traced, attribution={}) == base
    # The serialized forms differ only in the attribution block.
    traced_dict = result_to_dict(traced)
    base_dict = result_to_dict(base)
    traced_dict.pop("attribution")
    base_dict.pop("attribution")
    assert traced_dict == base_dict


def test_traced_serve_equals_untraced(work_counts):
    config = SystemConfig(n_islands=3)

    def run(tracer):
        tenants = make_tenants(
            2, [denoise()], ArrivalConfig(rate_per_mcycle=20.0)
        )
        return run_serve(
            config,
            ServeConfig(tenants=tenants, duration_cycles=200_000.0),
            tracer=tracer,
        )

    base = run(None)
    base_counts = work_counts.take()
    traced = run(Tracer())
    assert work_counts.take() == base_counts
    assert traced.extras and not base.extras
    assert replace(traced, extras={}) == base
    attr = {
        key[len("attr.") :]: value
        for key, value in traced.extras.items()
        if key.startswith("attr.")
    }
    assert sum(attr.values()) == pytest.approx(1.0)


#: A bursty ``wait_threshold`` session on a slot-constrained island:
#: ABC queues build during bursts, so requests run on host cores in
#: software.  ``(drained_cycles, latency_p99, energy_nj, sw_fallbacks,
#: heap_entries, processes)``.
SERVE_GOLDEN = {
    "": (630719.5137336281, 66332.02148924318, 32201798.706907853, 112, 16724, 0),
    "abb:0.25": (
        972949.1661749809,
        394713.210520207,
        56507484.00763458,
        330,
        10657,
        0,
    ),
}


@pytest.mark.parametrize("fault_spec", sorted(SERVE_GOLDEN), ids=["clean", "abb"])
def test_traced_software_serve_matches_golden(fault_spec, work_counts):
    config = SystemConfig(
        n_islands=2,
        abb_mix={"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1},
        faults=parse_fault_spec(fault_spec),
        fault_seed=1,
    )
    arrival = ArrivalConfig(
        kind="onoff",
        rate_per_mcycle=250.0,
        mean_on_cycles=50_000.0,
        mean_off_cycles=50_000.0,
    )
    serve = ServeConfig(
        tenants=make_tenants(
            4,
            [synthetic_workload(name="rpc", depth=2, width=2, invocations=32, tiles=4)],
            arrival,
        ),
        admission=AdmissionConfig("wait_threshold"),
        duration_cycles=600_000.0,
    )
    base = run_serve(config, serve)
    base_counts = work_counts.take()
    traced = run_serve(config, serve, tracer=Tracer())
    traced_counts = work_counts.take()
    assert traced.extras and not base.extras
    assert replace(traced, extras={}) == base
    drained, p99, energy, sw_fallbacks, *counts = SERVE_GOLDEN[fault_spec]
    assert base_counts == traced_counts == tuple(counts)
    assert traced.sw_fallbacks == sw_fallbacks
    assert traced.drained_cycles == pytest.approx(drained, rel=1e-12)
    assert traced.latency_p99 == pytest.approx(p99, rel=1e-12)
    assert traced.energy_nj == pytest.approx(energy, rel=1e-12)
