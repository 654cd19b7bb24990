"""Differential check: the callback task lifecycle against the generator one.

The reference is the tile scheduler the task records replaced: one
generator process per task, spawned from its last producer's done event,
that yields the ABC's grant event, an ``AllOf`` over its input
transfers, a compute timeout and its writeback, then fires its done
event; a tile's end is an ``AllOf`` over the done events.  Software
fallback is the same process running the generator host-core job.

It runs under the scheduler's same-time rule (see
:mod:`repro.core.scheduler`): work at one instant runs in issue order,
and only a modelled delay or a deferred grant adds a heap entry.  So a
process starts inside its last producer's done event, an immediate
grant resumes it inline, it resumes inline when its input (or spill)
``AllOf`` completes, its done event fires inline and the tile ends
inline.  The records must equal it on every fig. 6 point and on every
hypothesis draw of platforms, applications, fault specs (ABB failures
among them, so tasks fall back to the host cores) and tile windows.

Each comparison runs traced, on twin systems, and covers the result's
``repr``, every energy charge in charge order within its category (the
order across categories moves no float), the fault counters and every
span tuple in record order.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.sim.run as sim_run
from repro.core.composer import SOFTWARE_FALLBACK, Grant
from repro.core.scheduler import TileScheduler
from repro.dse.report import PAPER_NETWORKS
from repro.engine import AllOf, Event
from repro.engine.trace import Tracer
from repro.faults import FaultSpec
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.power.aggregate import EnergyAccount
from repro.sim import SystemConfig, SystemModel, run_consolidated
from repro.workloads import get_workload, synthetic_workload
from repro.workloads.base import software_task_cycles


# ----------------------------------------------------------- reference
def reference_software_execute(
    system, read_bytes, cycles, write_bytes, stream, ref, gather_start
):
    """The host-core job as a generator to ``yield from``."""
    sim, tracer = system.sim, system.tracer
    if read_bytes > 0:
        yield system.memory.access(read_bytes, stream, ref)
    if tracer is not None and sim.now > gather_start:
        tracer.record(gather_start, sim.now, "core.sw", "gather", ref, ref)
    start = sim.now
    yield sim.timeout(cycles)
    system.energy.charge("sw_fallback", system.fallback_model.energy_nj(cycles))
    if tracer is not None:
        tracer.record(start, sim.now, "core.sw", "sw_compute", ref, ref)
    if write_bytes > 0:
        start = sim.now
        yield system.memory.access(write_bytes, stream, ref)
        if tracer is not None:
            tracer.record(start, sim.now, "core.sw", "writeback", ref, ref)


def start(sim, body):
    """Run a generator process from now: its first step runs in this
    call, and it ends with no heap entry."""

    def resume(event=None):
        try:
            target = body.send(None if event is None else event.value)
        except StopIteration:
            return
        target.add_callback(resume)

    resume()


class InlineAllOf(AllOf):
    """An ``AllOf`` that fires inline when its last child fires."""

    def _on_child(self, _event):
        self._pending -= 1
        if self._pending == 0:
            self.trigger([child.value for child in self._children])


class ReferenceTileScheduler(TileScheduler):
    """A process per task, joined by events that fire inline."""

    def run(self, then):
        sim = self.system.sim
        tasks = self.plan.tasks
        done = self._done_events = [Event(sim) for _task in tasks]
        tile_done = InlineAllOf(sim, done)
        for position, task in enumerate(tasks):
            if not task.inputs:
                start(sim, self._run_task(position))
                continue
            remaining = [len(task.inputs)]

            def on_producer_done(_event, position=position, remaining=remaining):
                remaining[0] -= 1
                if remaining[0] == 0:
                    start(sim, self._run_task(position))

            for producer, _nbytes in task.inputs:
                done[producer].add_callback(on_producer_done)
        tile_done.add_callback(lambda _event: then())

    def _transfer(self, call, *args, ref):
        """Issue a system transfer; its route's end fires the returned
        event inline."""
        landed = Event(self.system.sim)
        call(*args, landed.trigger, ref)
        return landed

    def _core(self):
        """A host-core request as an event firing with the core."""
        granted = Event(self.system.sim)
        self.system.fallback_cores.request(granted.trigger)
        return granted

    def _request(self, task):
        """The ABC's answer as an event, fired inline by the answer."""
        granted = Event(self.system.sim)
        self.system.abc.request(
            task.abb_type, self._preferred_island(task), granted.trigger
        )
        return granted

    def _run_task(self, position):
        system = self.system
        tasks = self.plan.tasks
        task = tasks[position]
        tag = self._tags[position]
        streams = self._stream_base
        requested_at = system.sim.now
        grant = yield self._request(task)
        if grant is SOFTWARE_FALLBACK:
            yield from self._run_task_software(position, tag, requested_at)
            return
        assert isinstance(grant, Grant)
        self._placed[position] = (grant.island_index, grant.slot)
        island = system.islands[grant.island_index]
        actor = (
            f"island{grant.island_index}.slot{grant.slot}"
            if self._tracer is not None
            else ""
        )
        if system.sim.now > requested_at:
            self._trace(requested_at, "alloc_wait", actor, tag, tag)
        input_events = []
        if task.memory_bytes > 0:
            input_events.append(
                self._transfer(
                    system.memory_to_island,
                    grant.island_index,
                    grant.slot,
                    task.memory_bytes,
                    streams + task.index,
                    ref=tag,
                )
            )
        for producer, nbytes in task.inputs:
            location = self._placed[producer]
            if location is None:
                input_events.append(
                    self._transfer(
                        system.memory_to_island,
                        grant.island_index,
                        grant.slot,
                        nbytes,
                        streams + tasks[producer].index,
                        ref=tag,
                    )
                )
                continue
            src_island, src_slot = location
            input_events.append(
                self._transfer(
                    system.island_to_island,
                    src_island,
                    src_slot,
                    grant.island_index,
                    grant.slot,
                    nbytes,
                    ref=tag,
                )
            )
        if input_events:
            gather_start = system.sim.now
            yield InlineAllOf(system.sim, input_events)
            self._trace(gather_start, "gather", actor, tag, tag)
        compute_start = system.sim.now
        yield system.sim.at(island.compute(grant.slot, task.invocations))
        if self._tracer is not None:
            self._trace(
                compute_start,
                "compute",
                actor,
                tag,
                tag,
                {
                    "conflict": island.shape.spm[grant.slot].conflict_penalty,
                    "invocations": task.invocations,
                },
            )
        if task.is_sink:
            writeback_start = system.sim.now
            yield self._transfer(
                system.island_to_memory,
                grant.island_index,
                grant.slot,
                task.output_bytes,
                streams + task.index,
                ref=tag,
            )
            self._trace(writeback_start, "writeback", actor, tag, tag)
        system.abc.release(grant)
        self._trace_task(requested_at, actor, position)
        self.last_ref = tag
        self._done_events[position].trigger(task.task_id)

    def _run_task_software(self, position, tag, task_start):
        system = self.system
        tasks = self.plan.tasks
        task = tasks[position]
        streams = self._stream_base
        stats = system.fault_stats
        stats.fallback_tasks += 1
        if not self.used_fallback:
            self.used_fallback = True
            stats.fallback_tiles += 1
        self._placed[position] = None
        requested_at = system.sim.now
        core = yield self._core()
        if system.sim.now > requested_at:
            self._trace(requested_at, "alloc_wait", "core.sw", tag, tag)
        gather_start = system.sim.now
        spill_events = []
        read_bytes = task.memory_bytes
        for producer, nbytes in task.inputs:
            read_bytes += nbytes
            location = self._placed[producer]
            if location is not None:
                src_island, src_slot = location
                spill_events.append(
                    self._transfer(
                        system.island_to_memory,
                        src_island,
                        src_slot,
                        nbytes,
                        streams + tasks[producer].index,
                        ref=tag,
                    )
                )
        if spill_events:
            yield InlineAllOf(system.sim, spill_events)
        yield from reference_software_execute(
            system,
            read_bytes,
            software_task_cycles(task.abb_type, task.invocations),
            task.output_bytes,
            streams + task.index,
            tag,
            gather_start,
        )
        system.fallback_cores.release(core)
        self._trace_task(task_start, "core.sw", position)
        self.last_ref = tag
        self._done_events[position].trigger(task.task_id)


# ---------------------------------------------------------- harness
def observed_run(config, workloads, tile_window):
    """Run traced; returns everything the two schedulers must agree on."""
    charges = []
    systems = []
    charge = EnergyAccount.charge
    build = SystemModel.__init__

    def logged_charge(account, category, energy_nj):
        charges.append((category, energy_nj))
        charge(account, category, energy_nj)

    def kept_build(system, *args, **kwargs):
        build(system, *args, **kwargs)
        systems.append(system)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EnergyAccount, "charge", logged_charge)
        patch.setattr(SystemModel, "__init__", kept_build)
        tracer = Tracer()
        result = run_consolidated(config, workloads, tile_window, tracer=tracer)
    (system,) = systems
    # A category's total is its charges summed in order; the order
    # between categories moves no float.
    by_category = {}
    for category, energy_nj in charges:
        by_category.setdefault(category, []).append(energy_nj)
    return (
        repr(result),
        by_category,
        dataclasses.asdict(system.fault_stats),
        tracer.records,
    )


def assert_matches(scheduler, config, workloads, tile_window):
    observed = observed_run(config, workloads, tile_window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_run, "TileScheduler", scheduler)
        reference = observed_run(config, workloads, tile_window)
    for got, want in zip(observed, reference):
        assert got == want


#: The fig. 6 sweep's points: both benchmarks on every network it plots,
#: at every island count, 16 tiles, the default window.
FIG6_POINTS = [
    (name, network, n_islands)
    for name, networks in (
        ("Denoise", ("Crossbar", "1-Ring, 16-Byte", "1-Ring, 32-Byte",
                     "2-Ring, 32-Byte", "3-Ring, 32-Byte")),
        ("EKF-SLAM", ("Crossbar", "1-Ring, 16-Byte", "1-Ring, 32-Byte")),
    )
    for network in networks
    for n_islands in (3, 6, 12, 24)
]


@pytest.mark.parametrize("name,network,n_islands", FIG6_POINTS)
def test_fig6_point_matches_parent(name, network, n_islands):
    """On every fig. 6 point the run equals its parent design's, the
    process-per-task reference, charge for charge and span for span."""
    config = SystemConfig(n_islands=n_islands, network=PAPER_NETWORKS[network])
    assert_matches(ReferenceTileScheduler, config, [get_workload(name, tiles=16)], 8)


networks = st.sampled_from(
    [
        SpmDmaNetworkConfig(),
        SpmDmaNetworkConfig(NetworkKind.CHAINING_CROSSBAR),
        SpmDmaNetworkConfig(NetworkKind.RING, 16, 1),
        SpmDmaNetworkConfig(NetworkKind.RING, 32, 2),
    ]
)
fault_specs = st.one_of(
    st.just(FaultSpec()),
    st.builds(
        FaultSpec,
        abb_failure_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        abb_failure_window=st.sampled_from([1.0, 2_000.0, 20_000.0]),
        dma_stall_prob=st.sampled_from([0.0, 0.15]),
        dma_drop_prob=st.sampled_from([0.0, 0.05]),
        noc_degrade_fraction=st.sampled_from([0.0, 0.3]),
    ),
)
apps = st.lists(
    st.builds(
        synthetic_workload,
        depth=st.integers(1, 3),
        width=st.integers(1, 3),
        invocations=st.sampled_from([16, 32, 64]),
        tiles=st.integers(1, 10),
    ),
    min_size=1,
    max_size=2,
)
mixes = st.sampled_from(
    [None, {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}]
)


# With every ABB failed inside the first cycle, every task runs on the
# host cores.
@example(
    n_islands=1,
    mix={"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1},
    network=SpmDmaNetworkConfig(),
    spec=FaultSpec(abb_failure_fraction=1.0, abb_failure_window=1.0),
    fault_seed=1,
    sharing=False,
    workloads=[synthetic_workload(depth=2, width=2, invocations=32, tiles=6)],
    tile_window=4,
)
@settings(deadline=None)
@given(
    n_islands=st.integers(1, 4),
    mix=mixes,
    network=networks,
    spec=fault_specs,
    fault_seed=st.integers(0, 3),
    sharing=st.booleans(),
    workloads=apps,
    tile_window=st.integers(1, 4),
)
def test_lifecycle_matches_reference(
    n_islands, mix, network, spec, fault_seed, sharing, workloads, tile_window
):
    kwargs = {} if mix is None else {"abb_mix": mix}
    config = SystemConfig(
        n_islands=n_islands,
        network=network,
        spm_sharing=sharing,
        faults=spec,
        fault_seed=fault_seed,
        **kwargs,
    )
    assert_matches(ReferenceTileScheduler, config, workloads, tile_window)
