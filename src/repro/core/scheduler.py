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

Each running task is one record whose steps are bound methods, passed
as ``then`` callbacks to routes, the ABC and the host-core pool or
scheduled at completion times; no task is a process.  A tile counts
each task's unfinished producers down and starts a consumer when its
count reaches zero, the way data-driven hardware fires a task when its
operands arrive.

The same-time rule: work at one instant runs in issue order, and only
a modelled delay or a deferred grant adds a heap entry (contracts in
:mod:`repro.engine.route`).  ``tests/test_task_reference.py`` checks it
against a process per task.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import PlannedTask, TilePlan
from repro.core.composer import SOFTWARE_FALLBACK
from repro.errors import SimulationError
from repro.workloads.base import software_task_cycles

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
        # Unfinished producers per task, and unfinished tasks.
        self._waiting = [len(task.inputs) for task in plan.tasks]
        self._left = len(plan.tasks)
        self.used_fallback = False

    @property
    def locations(self) -> dict[str, typing.Optional[tuple[int, int]]]:
        """Task id -> (island, slot) of every placed task, in placement
        order; ``None`` for a task that ran in software."""
        tasks = self.plan.tasks
        return {tasks[pos].task_id: where for pos, where in self._placed.items()}

    # ---------------------------------------------------------------- run
    def run(self, then: typing.Callable[[], None] = lambda: None) -> None:
        """Start the tile; ``then()`` runs at tile end.

        Root tasks start now; every other task starts when its last
        producer's completion counts it down to zero.  An empty graph
        ends from one heap entry at now.  The tile drops ``then`` as it
        calls it, so a ``then`` that holds the tile leaves no reference
        cycle.
        """
        tasks = self.plan.tasks
        if not tasks:
            self.system.sim.schedule(self.system.sim.now, then)
            return
        self._then = then
        for position, task in enumerate(tasks):
            if not task.inputs:
                _Task(self, position)

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
        return max(sorted(bytes_by_island), key=bytes_by_island.__getitem__)

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
            tracer.record(start, self.system.sim.now, actor, kind, label, ref, args)

    def _trace_task(self, start: float, actor: str, position: int) -> None:
        """Record the task's aggregate span carrying the DAG edges."""
        tracer = self._tracer
        if tracer is not None:
            task = self.plan.tasks[position]
            deps = [self._tags[producer] for producer, _nbytes in task.inputs]
            if not deps and self.after:
                deps.append(self.after)
            tracer.record(
                start,
                self.system.sim.now,
                actor,
                "task",
                task.task_id,
                self._tags[position],
                {"deps": deps, "tenant": self.tenant},
            )


class _Task:
    """One running task of a tile, as a chain of callbacks.

    Hardware steps: ABC request -> :meth:`_granted` (input transfers)
    -> :meth:`_landed` -> :meth:`_compute` -> :meth:`_computed`
    (writeback) -> :meth:`_release` -> :meth:`_done`.  A task whose
    ABB type has no hardware left takes the software steps instead:
    :meth:`_fallback` -> :meth:`_core_granted` (spills) ->
    :meth:`_spilled` -> :meth:`_execute` -> :meth:`_software_done` ->
    :meth:`_done`.
    ``grant`` is the ABC's :class:`~repro.core.composer.Grant`, or the
    host core a software task holds; ``pending`` counts the transfers
    still in flight; ``start`` is when the current traced phase began.
    """

    __slots__ = (
        "tile",
        "position",
        "task",
        "tag",
        "requested_at",
        "grant",
        "actor",
        "pending",
        "start",
    )

    def __init__(self, tile: TileScheduler, position: int) -> None:
        self.tile = tile
        self.position = position
        task = self.task = tile.plan.tasks[position]
        self.tag = tile._tags[position]
        system = tile.system
        self.requested_at = system.sim.now
        system.abc.request(task.abb_type, tile._preferred_island(task), self._granted)

    # ------------------------------------------------------------ hardware
    def _granted(self, grant: object) -> None:
        if grant is SOFTWARE_FALLBACK:
            self._fallback()
            return
        tile, task, tag = self.tile, self.task, self.tag
        system = tile.system
        self.grant = grant
        island_index, slot = grant.island_index, grant.slot
        placed = tile._placed
        placed[self.position] = (island_index, slot)
        if tile._tracer is not None:
            self.actor = f"island{island_index}.slot{slot}"
            if system.sim.now > self.requested_at:
                tile._trace(self.requested_at, "alloc_wait", self.actor, tag, tag)

        # Gather operands in parallel; the last to land joins.
        self.pending = len(task.inputs) + (task.memory_bytes > 0)
        if not self.pending:
            self._compute()
            return
        self.start = system.sim.now
        streams = tile._stream_base
        landed = self._landed
        if task.memory_bytes > 0:
            system.memory_to_island(
                island_index, slot, task.memory_bytes, streams + task.index, landed, tag
            )
        tasks = tile.plan.tasks
        for producer, nbytes in task.inputs:
            location = placed[producer]
            if location is None:
                # Producer ran in software; its results sit in shared
                # memory and stream in like any memory operand.
                stream = streams + tasks[producer].index
                system.memory_to_island(island_index, slot, nbytes, stream, landed, tag)
            else:
                system.island_to_island(
                    location[0], location[1], island_index, slot, nbytes, landed, tag
                )

    def _landed(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            if self.tile._tracer is not None:
                self.tile._trace(self.start, "gather", self.actor, self.tag, self.tag)
            self._compute()

    def _compute(self) -> None:
        system = self.tile.system
        grant = self.grant
        self.start = system.sim.now
        island = system.islands[grant.island_index]
        done = island.compute(grant.slot, self.task.invocations)
        system.sim.schedule(done, self._computed)

    def _computed(self) -> None:
        tile, task, grant, tag = self.tile, self.task, self.grant, self.tag
        system = tile.system
        if tile._tracer is not None:
            island = system.islands[grant.island_index]
            tile._trace(
                self.start,
                "compute",
                self.actor,
                tag,
                tag,
                {
                    "conflict": island.shape.spm[grant.slot].conflict_penalty,
                    "invocations": task.invocations,
                },
            )
        if not task.is_sink:
            self._release()
            return
        # Write back sink outputs, then release the block.
        self.start = system.sim.now
        system.island_to_memory(
            grant.island_index,
            grant.slot,
            task.output_bytes,
            tile._stream_base + task.index,
            self._written,
            tag,
        )

    def _written(self) -> None:
        if self.tile._tracer is not None:
            self.tile._trace(self.start, "writeback", self.actor, self.tag, self.tag)
        self._release()

    def _release(self) -> None:
        tile = self.tile
        tile.system.abc.release(self.grant)
        if tile._tracer is not None:
            tile._trace_task(self.requested_at, self.actor, self.position)
        self._done()

    def _done(self) -> None:
        """Count the tile down, then start each consumer whose count of
        unfinished producers reaches zero."""
        tile = self.tile
        tile.last_ref = self.tag
        tile._left -= 1
        if tile._left == 0:
            then, tile._then = tile._then, None
            then()
        waiting = tile._waiting
        for consumer in self.task.successors:
            waiting[consumer] -= 1
            if waiting[consumer] == 0:
                _Task(tile, consumer)

    # ------------------------------------------------------------ software
    def _fallback(self) -> None:
        """Run the task on a host core (no hardware composition exists).

        The core fetches every operand from shared memory (chained
        producers' outputs were either written back by a software
        producer or are drained from the producer island's SPM first),
        executes the calibrated software implementation, and writes all
        results back so any consumer can read them from DRAM.
        """
        tile = self.tile
        system = tile.system
        stats = system.fault_stats
        stats.fallback_tasks += 1
        if not tile.used_fallback:
            tile.used_fallback = True
            stats.fallback_tiles += 1
        tile._placed[self.position] = None
        self.start = system.sim.now
        system.fallback_cores.request(self._core_granted)

    def _core_granted(self, core: int) -> None:
        self.grant = core
        tile, task, tag = self.tile, self.task, self.tag
        system = tile.system
        if system.sim.now > self.start:
            tile._trace(self.start, "alloc_wait", "core.sw", tag, tag)
        # Spill chained data parked in producer SPMs to memory (after
        # the core grant), then run the job on the core.
        self.start = system.sim.now
        tasks, placed = tile.plan.tasks, tile._placed
        spills = [
            (placed[producer], tasks[producer].index, nbytes)
            for producer, nbytes in task.inputs
            if placed[producer] is not None
        ]
        self.pending = len(spills)
        if not spills:
            self._execute()
            return
        streams = tile._stream_base
        for (src_island, src_slot), index, nbytes in spills:
            system.island_to_memory(
                src_island, src_slot, nbytes, streams + index, self._spilled, tag
            )

    def _spilled(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self._execute()

    def _execute(self) -> None:
        tile, task = self.tile, self.task
        system = tile.system
        read_bytes = task.memory_bytes
        for _producer, nbytes in task.inputs:
            read_bytes += nbytes
        # Results are published to shared memory for downstream
        # consumers (or as the final output when this task is a sink).
        system.software_execute(
            read_bytes,
            software_task_cycles(task.abb_type, task.invocations),
            task.output_bytes,
            tile._stream_base + task.index,
            self.tag,
            self.start,
            self._software_done,
        )

    def _software_done(self) -> None:
        tile = self.tile
        tile.system.fallback_cores.release(self.grant)
        if tile._tracer is not None:
            tile._trace_task(self.requested_at, "core.sw", self.position)
        self._done()
