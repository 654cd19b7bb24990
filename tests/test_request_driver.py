"""Tests for the one request driver (:class:`repro.sim.run.RequestDriver`).

* The closed-loop window is checked against a plain reference: one
  generator process per tile gated on a window of slots, whose release
  resumes the oldest waiter inline (the same-time rule of
  :mod:`repro.core.scheduler`).  Hypothesis draws consolidated
  configurations, clean and faulted; both drivers must produce the same
  result, and both end the run when its last tile ends.
* A finished tile hands its last-completed task ref to the tile it
  starts, so the window handoff is a recorded ``deps`` edge.
* A request that never finishes is reported as a deadlock, closed and
  open loop alike.
* A run whose requests all finished but that left a slot held, a host
  core in use or a request queued is reported, naming what was left.
"""

import collections
import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abb import TilePlan
from repro.core.composer import AcceleratorBlockComposer
from repro.core.scheduler import TileScheduler
from repro.engine import Event, Resource
from repro.engine.trace import Tracer
from repro.errors import SimulationError
from repro.faults import parse_fault_spec
from repro.obs import analyze_critical_path
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    make_tenants,
    run_serve,
)
from repro.sim import (
    SimResult,
    SystemConfig,
    SystemModel,
    run_consolidated,
    run_workload,
)
from repro.sim.run import TILE_ID_STRIDE, RequestDriver
from repro.workloads import synthetic_workload

FAULT_SPECS = ("", "abb:0.25", "dma:0.15,dmadrop:0.05", "abb:0.25,dma:0.1,noc:0.2")


class InlineWindow:
    """``size`` slots; a release hands its slot to the oldest waiter,
    whose process resumes inline."""

    def __init__(self, sim, size):
        self.sim = sim
        self.free = size
        self.waiters = collections.deque()

    def acquire(self):
        granted = Event(self.sim)
        if self.free:
            self.free -= 1
            granted.trigger()
        else:
            self.waiters.append(granted)
        return granted

    def release(self):
        if self.waiters:
            self.waiters.popleft().trigger()
        else:
            self.free += 1


def reference_run(config, workloads, tile_window):
    """The window driver as a process per tile holding a window slot.
    The run ends when its last tile does."""
    system = SystemModel(config)
    sim = system.sim
    open_tiles = [sum(workload.tiles for workload in workloads)]
    for app, workload in enumerate(workloads):
        plan = TilePlan(workload.build_graph(system.library), system.library)
        window = InlineWindow(sim, tile_window)

        def tile_process(tile_id, plan=plan, window=window, app=app):
            ended = sim.event()
            yield window.acquire()
            scheduler = TileScheduler(system, plan, tile_id + app * TILE_ID_STRIDE)
            scheduler.run(ended.trigger)
            yield ended
            window.release()
            open_tiles[0] -= 1
            if not open_tiles[0]:
                sim.stop()

        for tile_id in range(workload.tiles):
            sim.process(tile_process(tile_id))
    sim.run()
    elapsed = sim.now
    degradation = system.fault_stats
    return SimResult(
        workload=" + ".join(w.name for w in workloads),
        config_label=config.label(),
        tiles=sum(w.tiles for w in workloads),
        total_cycles=elapsed,
        energy_nj=system.energy.total_nj(elapsed),
        area_mm2=system.accelerator_area_mm2,
        abb_utilization_avg=system.average_abb_utilization(elapsed),
        abb_utilization_peak=system.peak_abb_utilization(),
        energy_breakdown_nj=system.energy.breakdown(elapsed),
        noc_max_link_utilization=system.noc.max_link_utilization(elapsed),
        memory_bytes=system.memory.total_bytes(),
        failed_abbs=degradation.failed_abbs,
        dma_stalls=degradation.dma_stalls,
        dma_retries=degradation.dma_retries,
        fallback_tasks=degradation.fallback_tasks,
        fallback_tiles=degradation.fallback_tiles,
    )


apps = st.lists(
    st.builds(
        synthetic_workload,
        depth=st.integers(1, 3),
        width=st.integers(1, 3),
        invocations=st.sampled_from([16, 32, 64]),
        tiles=st.integers(1, 12),
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None)
@given(
    workloads=apps,
    tile_window=st.integers(1, 4),
    n_islands=st.integers(1, 4),
    fault_spec=st.sampled_from(FAULT_SPECS),
    fault_seed=st.integers(1, 3),
)
@example(  # each application's callback must start its own next tile
    workloads=[
        synthetic_workload(name="a", depth=2, width=1, invocations=16, tiles=3),
        synthetic_workload(name="b", depth=1, width=2, invocations=64, tiles=2),
    ],
    tile_window=1,
    n_islands=2,
    fault_spec="",
    fault_seed=1,
)
def test_window_matches_reference(
    workloads, tile_window, n_islands, fault_spec, fault_seed
):
    config = SystemConfig(
        n_islands=n_islands,
        faults=parse_fault_spec(fault_spec),
        fault_seed=fault_seed,
    )
    result = run_consolidated(config, workloads, tile_window, tracer=Tracer())
    reference = reference_run(config, workloads, tile_window)
    assert dataclasses.replace(result, attribution={}) == reference


def task_spans(tracer):
    return {rec.ref: rec for rec in tracer.records if rec.kind == "task"}


def tile_of(ref):
    return int(ref.split(".")[0][1:])


def test_window_handoff_is_a_recorded_dependency():
    window = 2
    tracer = Tracer()
    run_consolidated(
        SystemConfig(n_islands=2),
        [
            synthetic_workload(name="a", depth=2, width=2, invocations=32, tiles=5),
            synthetic_workload(name="b", depth=3, width=1, invocations=16, tiles=4),
        ],
        tile_window=window,
        tracer=tracer,
    )
    spans = task_spans(tracer)
    handoffs = 0
    for ref, span in spans.items():
        tile = tile_of(ref)
        deps = span.args["deps"]
        if any(tile_of(dep) == tile for dep in deps):
            continue  # not a source task
        if tile % TILE_ID_STRIDE < window:
            assert deps == []
            continue
        assert len(deps) == 1
        (dep,) = deps
        assert tile_of(dep) != tile
        assert tile_of(dep) // TILE_ID_STRIDE == tile // TILE_ID_STRIDE
        assert spans[dep].end == span.start
        handoffs += 1
    assert handoffs > 0


def test_walk_follows_the_tile_that_released_the_slot():
    # A task of tile 9 ends at the instant tile 8 finishes, but tile 8's
    # completion started tile 10: the path runs through tile 8.
    workload = synthetic_workload(
        name="s", depth=3, width=3, invocations=16, tiles=11
    )
    tracer = Tracer()
    result = run_workload(
        SystemConfig(n_islands=2), workload, tile_window=2, tracer=tracer
    )
    report = analyze_critical_path(tracer, makespan=result.total_cycles)
    tiles = []
    for segment in report.segments:
        if segment.ref and (not tiles or tiles[-1] != tile_of(segment.ref)):
            tiles.append(tile_of(segment.ref))
    assert tiles[-2:] == [8, 10]


def stall_first_request(monkeypatch):
    """Make the ABC never answer the first request it gets."""
    request = AcceleratorBlockComposer.request
    stalled = []

    def stall_once(abc, type_name, preferred_island=None, then=None):
        if not stalled:
            stalled.append(type_name)
            return None
        return request(abc, type_name, preferred_island, then)

    monkeypatch.setattr(AcceleratorBlockComposer, "request", stall_once)


def run_closed_loop():
    run_workload(
        SystemConfig(n_islands=1),
        synthetic_workload(depth=2, width=1, invocations=16, tiles=3),
        tile_window=1,
    )


def run_open_loop():
    arrival = ArrivalConfig(rate_per_mcycle=200.0)
    serve = ServeConfig(
        tenants=make_tenants(
            2, [synthetic_workload(depth=2, width=1, invocations=16)], arrival
        ),
        admission=AdmissionConfig("always_hw"),
        duration_cycles=50_000.0,
    )
    run_serve(SystemConfig(n_islands=1), serve)


@pytest.mark.parametrize(
    "run", [run_closed_loop, run_open_loop], ids=["closed", "open"]
)
def test_unfinished_request_is_a_deadlock(run, monkeypatch):
    stall_first_request(monkeypatch)
    with pytest.raises(SimulationError, match="simulation deadlocked"):
        run()


def skip_first(monkeypatch, owner, method):
    """Make the first call of ``owner.method`` do nothing."""
    original = getattr(owner, method)
    skipped = []

    def skip_once(self, *args):
        if not skipped:
            skipped.append(args)
            return None
        return original(self, *args)

    monkeypatch.setattr(owner, method, skip_once)


@pytest.mark.parametrize(
    "run", [run_closed_loop, run_open_loop], ids=["closed", "open"]
)
def test_skipped_release_is_reported(run, monkeypatch):
    # Every tile still finishes: the held slot's type has another slot.
    skip_first(monkeypatch, AcceleratorBlockComposer, "release")
    with pytest.raises(SimulationError, match=r"island 0 slot \d+ never released"):
        run()


def test_skipped_core_release_is_reported(monkeypatch):
    skip_first(monkeypatch, Resource, "release")
    with pytest.raises(SimulationError, match=r"1 host core\(s\) never released"):
        run_workload(
            SystemConfig(
                n_islands=1,
                faults=parse_fault_spec("abb:1.0,abb_failure_window=1"),
                fault_seed=1,
            ),
            synthetic_workload(depth=2, width=1, invocations=16, tiles=3),
        )


def test_stranded_request_is_reported():
    system = SystemModel(SystemConfig(n_islands=1, abb_mix={"poly": 1, "sum": 1}))
    slot = system.islands[0].first_usable("poly")
    system.islands[0].allocate(slot, "holder")
    system.abc.request("poly", None, lambda _answer: None)
    with pytest.raises(SimulationError) as raised:
        RequestDriver(system).run("held")
    message = str(raised.value)
    assert "poly request queued at cycle 0" in message
    assert f"island 0 slot {slot} never released" in message
