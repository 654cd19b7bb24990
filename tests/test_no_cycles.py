"""No run leaves cyclic garbage.

Every object a run allocates (routes, tasks, grants, legs, the system
itself) is freed by reference count when the run returns: no object
keeps a callable that refers back to it.  Each case below runs once to
warm the platform cache and lazy imports, then again with the
collector disabled; a collection afterwards must find nothing
unreachable.  The failure message names the types left behind.
"""

import collections
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.trace import Tracer
from repro.faults import parse_fault_spec
from repro.island import NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    make_tenants,
    run_serve,
)
from repro.sim import SystemConfig, run_consolidated, run_workload
from repro.workloads import get_workload, synthetic_workload

#: The CI fault matrix's specs (perfbench's ``fault_matrix`` workload).
FAULT_SPECS = ("abb:0.25", "dma:0.15,dmadrop:0.05", "abb:0.25,dma:0.1,noc:0.2")

RING = SpmDmaNetworkConfig(NetworkKind.RING, 32, 2)
NETWORKS = (
    SpmDmaNetworkConfig(),
    SpmDmaNetworkConfig(NetworkKind.CHAINING_CROSSBAR),
    SpmDmaNetworkConfig(NetworkKind.RING, 16, 1),
    RING,
)

RPC = synthetic_workload(name="rpc", depth=2, width=2, invocations=32, tiles=16)


def assert_no_cycles(run) -> None:
    """Run ``run()`` once to warm up, then again with the collector off;
    a collection must then find nothing unreachable."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        types = collections.Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"{found} unreachable objects: {types.most_common(8)}"


@pytest.mark.parametrize("n_islands", [3, 24])
@pytest.mark.parametrize(
    "network", [SpmDmaNetworkConfig(), RING], ids=["xbar", "ring"]
)
def test_closed_loop_run(n_islands, network):
    config = SystemConfig(n_islands=n_islands, network=network)
    workload = get_workload("Denoise", tiles=8)
    assert_no_cycles(lambda: run_workload(config, workload))


def test_traced_run_with_the_tracer_dropped():
    config = SystemConfig(n_islands=3, network=RING)
    workload = get_workload("EKF-SLAM", tiles=4)

    def run():
        tracer = Tracer()
        result = run_workload(config, workload, tracer=tracer)
        assert tracer.records and result.attribution

    assert_no_cycles(run)


@pytest.mark.parametrize("spec", FAULT_SPECS)
def test_fault_matrix_spec(spec):
    config = SystemConfig(n_islands=6, faults=parse_fault_spec(spec), fault_seed=1)
    workload = get_workload("EKF-SLAM", tiles=8)
    assert_no_cycles(lambda: run_workload(config, workload))


def test_consolidated_run():
    workloads = [get_workload(name, tiles=4) for name in ("Denoise", "EKF-SLAM")]
    assert_no_cycles(lambda: run_consolidated(SystemConfig(), workloads))


def test_serve_session_with_software_fallback():
    # One slot-constrained island: the ABC queues build and wait_threshold
    # sends requests to the host cores.
    mix = {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}
    config = SystemConfig(n_islands=1, abb_mix=mix)
    arrival = ArrivalConfig("poisson", rate_per_mcycle=400.0)
    serve = ServeConfig(
        tenants=make_tenants(4, [RPC], arrival),
        admission=AdmissionConfig("wait_threshold"),
        duration_cycles=100_000.0,
        seed=1,
    )

    def run():
        assert run_serve(config, serve).sw_fallbacks > 0

    assert_no_cycles(run)


@settings(max_examples=40, deadline=None)
@given(
    n_islands=st.integers(1, 8),
    network=st.sampled_from(NETWORKS),
    porting=st.sampled_from(list(SpmPorting)),
    sharing=st.booleans(),
    spec=st.sampled_from(("",) + FAULT_SPECS),
    fault_seed=st.integers(1, 3),
    depth=st.integers(1, 3),
    width=st.integers(1, 3),
    tiles=st.integers(1, 6),
    traced=st.booleans(),
)
def test_drawn_configs(
    n_islands, network, porting, sharing, spec, fault_seed, depth, width, tiles, traced
):
    config = SystemConfig(
        n_islands=n_islands,
        network=network,
        spm_porting=porting,
        spm_sharing=sharing,
        faults=parse_fault_spec(spec),
        fault_seed=fault_seed,
    )
    workload = synthetic_workload(
        depth=depth, width=width, invocations=16, tiles=tiles
    )

    assert_no_cycles(
        lambda: run_workload(config, workload, tracer=Tracer() if traced else None)
    )
