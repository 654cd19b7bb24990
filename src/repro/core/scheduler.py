"""Tile scheduler: executes one flow-graph instance on a system.

A *tile* is one instance of a benchmark's ABB flow graph (one unit of
input data).  For every task the scheduler:

1. waits for all chained producers to finish,
2. asks the ABC for an ABB of the right type — preferring the island
   where most of the task's chained input already resides,
3. pulls operands in parallel: memory inputs via a memory controller and
   the NoC, chained inputs from producer islands (island-local chaining
   uses the SPM<->DMA network directly; cross-island chaining crosses the
   NoC),
4. streams the invocations through the ABB pipeline,
5. writes sink outputs back to memory, then releases the block.

The scheduler is deliberately work-conserving and deadlock-free: blocks
are held only from allocation to writeback, and chained data is parked at
the producer island until the consumer is placed.

Under fault injection the ABC may answer an allocation request with
:data:`~repro.core.composer.SOFTWARE_FALLBACK` (every ABB of the type is
out of service); the scheduler then runs the task on a host core —
operands fetched from shared memory, results written back so downstream
consumers (hardware or software) can read them — keeping the tile's
dataflow intact on a degraded platform.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import PlannedTask, TilePlan
from repro.core.composer import Grant, SOFTWARE_FALLBACK
from repro.engine import AllOf, Event
from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import SystemModel


class TileScheduler:
    """Runs one flow-graph instance to completion.

    ``plan`` is the graph compiled once per run (:class:`TilePlan`);
    every tile of the graph reads its per-task bytes from it.
    ``tenant`` tags the trace records with the serving tenant that
    caused them (empty outside :mod:`repro.serve`).  ``after`` is the
    ref of the task whose completion started this tile (the closed-loop
    window handoff), recorded as the source tasks' dependency;
    :attr:`last_ref` is the ref of the tile's last-completed task.
    """

    def __init__(
        self,
        system: "SystemModel",
        plan: TilePlan,
        tile_id: int,
        tenant: str = "",
        after: str = "",
    ) -> None:
        self.system = system
        self.plan = plan
        self.tile_id = tile_id
        self.tenant = tenant
        self.after = after
        self.last_ref = ""
        self._tracer = getattr(system, "tracer", None)
        # Memory-interleave stream of a task: this base plus its
        # insertion index.
        self._stream_base = tile_id * 131
        prefix = f"{tenant}." if tenant else ""
        # Correlation id of each task (``tenant1.t3.conv0``), by position.
        self._tags = [f"{prefix}t{tile_id}.{task.task_id}" for task in plan.tasks]
        # Maps position -> (island, slot); None marks a task that ran in
        # software (its results live in shared memory, not an SPM).
        self._placed: dict[int, typing.Optional[tuple[int, int]]] = {}
        self._done: list[Event] = []
        self.used_fallback = False

    @property
    def locations(self) -> dict[str, typing.Optional[tuple[int, int]]]:
        """Task id -> (island, slot) of every placed task, in placement
        order; ``None`` for a task that ran in software."""
        tasks = self.plan.tasks
        return {tasks[pos].task_id: where for pos, where in self._placed.items()}

    # ---------------------------------------------------------------- run
    def run(self) -> Event:
        """Start the tile; returns an event firing at tile end.

        Only root tasks spawn a process up front; every downstream task
        is spawned by a countdown callback inside its last producer's
        done event.
        """
        sim = self.system.sim
        tasks = self.plan.tasks
        done = self._done = [Event(sim) for _task in tasks]
        tile_done = AllOf(sim, done)
        for position, task in enumerate(tasks):
            if not task.inputs:
                sim.process(self._run_task(position))
                continue
            remaining = [len(task.inputs)]

            def on_producer_done(
                _event: Event,
                position: int = position,
                remaining: list = remaining,
            ) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    sim.process(self._run_task(position))

            for producer, _nbytes in task.inputs:
                done[producer].add_callback(on_producer_done)
        return tile_done

    # ------------------------------------------------------------- helpers
    def _preferred_island(self, task: PlannedTask) -> typing.Optional[int]:
        """Island holding the largest share of the task's chained input."""
        bytes_by_island: dict[int, float] = {}
        for producer, nbytes in task.inputs:
            if producer not in self._placed:
                raise SimulationError(
                    f"producer {self.plan.tasks[producer].task_id!r} "
                    "finished without a recorded location"
                )
            location = self._placed[producer]
            if location is None:  # producer ran in software; data is in DRAM
                continue
            island_idx, _slot = location
            bytes_by_island[island_idx] = (
                bytes_by_island.get(island_idx, 0.0) + nbytes
            )
        if not bytes_by_island:
            return None
        return max(sorted(bytes_by_island), key=lambda i: bytes_by_island[i])

    def _trace(
        self,
        start: float,
        kind: str,
        actor: str,
        label: str,
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    ) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.span(start, self.system.sim.now, actor, kind, label, ref, args)

    def _trace_task(self, start: float, actor: str, position: int) -> None:
        """Record the task's aggregate span carrying the DAG edges."""
        tracer = self._tracer
        if tracer is not None:
            task = self.plan.tasks[position]
            deps = [self._tags[producer] for producer, _nbytes in task.inputs]
            if not deps and self.after:
                deps.append(self.after)
            tracer.span(
                start,
                self.system.sim.now,
                actor,
                "task",
                task.task_id,
                self._tags[position],
                {"deps": deps, "tenant": self.tenant},
            )

    # --------------------------------------------------------- task process
    def _run_task(self, position: int):
        system = self.system
        tasks = self.plan.tasks
        task = tasks[position]
        tag = self._tags[position]
        streams = self._stream_base

        # 1. Producers are already done — :meth:`run` spawns this
        # process from the last producer's completion callback.

        # 2. Allocate an ABB (may queue inside the ABC).  When every ABB
        # of the type is out of service the ABC answers with the
        # software-fallback sentinel instead of a grant.
        requested_at = system.sim.now
        grant = yield system.abc.request(
            task.abb_type, preferred_island=self._preferred_island(task)
        )
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

        # 3. Gather operands in parallel.
        input_events = []
        if task.memory_bytes > 0:
            input_events.append(
                system.memory_to_island(
                    grant.island_index,
                    grant.slot,
                    task.memory_bytes,
                    streams + task.index,
                    tag,
                )
            )
        for producer, nbytes in task.inputs:
            location = self._placed[producer]
            if location is None:
                # Producer ran in software; its results sit in shared
                # memory and stream in like any memory operand.
                input_events.append(
                    system.memory_to_island(
                        grant.island_index,
                        grant.slot,
                        nbytes,
                        streams + tasks[producer].index,
                        tag,
                    )
                )
                continue
            src_island, src_slot = location
            input_events.append(
                system.island_to_island(
                    src_island, src_slot, grant.island_index, grant.slot, nbytes, tag
                )
            )
        if input_events:
            gather_start = system.sim.now
            yield AllOf(system.sim, input_events)
            self._trace(gather_start, "gather", actor, tag, tag)

        # 4. Compute.
        compute_start = system.sim.now
        yield island.compute(grant.slot, task.invocations)
        if self._tracer is not None:
            self._trace(
                compute_start,
                "compute",
                actor,
                tag,
                tag,
                {
                    "conflict": island.spm_groups[grant.slot].conflict_penalty(),
                    "invocations": task.invocations,
                },
            )

        # 5. Write back sink outputs, then release the block.
        if task.is_sink:
            writeback_start = system.sim.now
            yield system.island_to_memory(
                grant.island_index,
                grant.slot,
                task.output_bytes,
                streams + task.index,
                tag,
            )
            self._trace(writeback_start, "writeback", actor, tag, tag)
        system.abc.release(grant)
        self._trace_task(requested_at, actor, position)
        self.last_ref = tag
        self._done[position].succeed(task.task_id)

    # ---------------------------------------------------- software fallback
    def _run_task_software(self, position: int, tag: str, task_start: float):
        """Run one task on a host core (no hardware composition exists).

        The core fetches every operand from shared memory (chained
        producers' outputs were either written back by a software
        producer or are drained from the producer island's SPM first),
        executes the calibrated software implementation, and writes all
        results back so any consumer can read them from DRAM.
        """
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
        yield system.fallback_cores.request()
        if system.sim.now > requested_at:
            self._trace(requested_at, "alloc_wait", "core.sw", tag, tag)

        # Gather operands: spill chained data parked in producer SPMs to
        # memory (after the core grant), then run the job on the core.
        gather_start = system.sim.now
        spill_events = []
        read_bytes = task.memory_bytes
        for producer, nbytes in task.inputs:
            read_bytes += nbytes
            location = self._placed[producer]
            if location is not None:
                src_island, src_slot = location
                spill_events.append(
                    system.island_to_memory(
                        src_island,
                        src_slot,
                        nbytes,
                        streams + tasks[producer].index,
                        tag,
                    )
                )
        if spill_events:
            yield AllOf(system.sim, spill_events)
        # Results are published to shared memory for downstream
        # consumers (or as the final output when this task is a sink).
        yield from system.software_execute(
            read_bytes,
            system.fallback_model.task_cycles(task.abb_type, task.invocations),
            task.output_bytes,
            streams + task.index,
            tag,
            gather_start,
        )
        system.fallback_cores.release()
        self._trace_task(task_start, "core.sw", position)
        self.last_ref = tag
        self._done[position].succeed(task.task_id)
