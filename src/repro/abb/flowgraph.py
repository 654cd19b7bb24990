"""ABB dataflow graphs.

The compiler decomposes an accelerator kernel into a DAG of ABB tasks; the
ABC consumes this graph at runtime to allocate ABBs and orchestrate
chaining.  Edges represent producer→consumer streams (chaining); task
inputs not covered by an incoming edge are fetched from shared memory, and
sink outputs are written back to shared memory.  :class:`TilePlan` is a
graph compiled against a library: the per-task byte counts the runtime
reads, resolved once per run.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.abb.library import ABBLibrary
from repro.errors import ConfigError


@dataclass(frozen=True)
class ABBTask:
    """One node of an ABB flow graph.

    Attributes:
        task_id: Unique id within the graph.
        abb_type: Name of the ABB type that executes this task.
        invocations: Number of pipelined invocations the task streams
            through the block (i.e. the vector length of the operation).
    """

    task_id: str
    abb_type: str
    invocations: int

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ConfigError("task id must be non-empty")
        if self.invocations < 1:
            raise ConfigError(f"task {self.task_id}: invocations must be >= 1")


@dataclass(frozen=True)
class Edge:
    """A chaining edge: producer data streamed into a consumer's SPM.

    ``nbytes`` is the operand volume carried by the edge.  When the
    compiler lowers a kernel it sets this to the consumer's share of its
    operand volume (a consumer re-reads chained data as operands — e.g. a
    stencil sweeps windows over a chained image — so the edge volume is
    operand-sized, not producer-output-sized).  When ``None``, the edge
    defaults to the producer's output volume.
    """

    producer: str
    consumer: str
    nbytes: typing.Optional[float] = None


class ABBFlowGraph:
    """A validated DAG of :class:`ABBTask` nodes with chaining edges."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._tasks: dict[str, ABBTask] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        self._edges: list[Edge] = []

    # ---------------------------------------------------------------- build
    def add_task(self, task_id: str, abb_type: str, invocations: int) -> ABBTask:
        """Create and insert a task node."""
        if task_id in self._tasks:
            raise ConfigError(f"duplicate task id {task_id!r}")
        task = ABBTask(task_id, abb_type, invocations)
        self._tasks[task_id] = task
        self._succ[task_id] = []
        self._pred[task_id] = []
        return task

    def add_edge(
        self,
        producer: str,
        consumer: str,
        nbytes: typing.Optional[float] = None,
    ) -> None:
        """Add a chaining edge; both endpoints must already exist.

        ``nbytes`` optionally fixes the operand volume the edge carries
        (see :class:`Edge`).
        """
        for endpoint in (producer, consumer):
            if endpoint not in self._tasks:
                raise ConfigError(f"edge references unknown task {endpoint!r}")
        if producer == consumer:
            raise ConfigError(f"self-edge on task {producer!r}")
        if consumer in self._succ[producer]:
            raise ConfigError(f"duplicate edge {producer!r} -> {consumer!r}")
        if nbytes is not None and nbytes < 0:
            raise ConfigError(f"edge bytes must be non-negative, got {nbytes}")
        self._succ[producer].append(consumer)
        self._pred[consumer].append(producer)
        self._edges.append(Edge(producer, consumer, nbytes))

    # ---------------------------------------------------------------- query
    @property
    def tasks(self) -> list[ABBTask]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    @property
    def edges(self) -> list[Edge]:
        """All chaining edges, in insertion order."""
        return list(self._edges)

    def task(self, task_id: str) -> ABBTask:
        """Look up one task."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise ConfigError(f"unknown task {task_id!r}") from None

    def predecessors(self, task_id: str) -> list[str]:
        """Producers chained into ``task_id``."""
        return list(self._pred[task_id])

    def sinks(self) -> list[str]:
        """Tasks with no consumers (outputs go to memory)."""
        return [tid for tid in self._tasks if not self._succ[tid]]

    def __len__(self) -> int:
        return len(self._tasks)

    # ----------------------------------------------------------- validation
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises ConfigError on a cycle."""
        indegree = {tid: len(self._pred[tid]) for tid in self._tasks}
        ready = [tid for tid, deg in indegree.items() if deg == 0]
        order: list[str] = []
        while ready:
            tid = ready.pop(0)
            order.append(tid)
            for succ in self._succ[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            raise ConfigError(f"flow graph {self.name!r} contains a cycle")
        return order

    def validate(self, library: ABBLibrary) -> None:
        """Check the graph is acyclic and all types exist in ``library``."""
        self.topological_order()
        for task in self._tasks.values():
            if task.abb_type not in library:
                raise ConfigError(
                    f"task {task.task_id!r} uses unknown ABB type {task.abb_type!r}"
                )

    # -------------------------------------------------------------- metrics
    def chaining_ratio(self) -> float:
        """Edges per task — the paper's qualitative 'amount of chaining'."""
        if not self._tasks:
            return 0.0
        return len(self._edges) / len(self._tasks)

    def path_lengths(
        self, weight: typing.Callable[[ABBTask], float]
    ) -> dict[str, float]:
        """Longest ``weight``-summed path ending at each task, its own
        weight included (a source's length is its weight)."""
        longest: dict[str, float] = {}
        for tid in self.topological_order():
            best = max((longest[p] for p in self._pred[tid]), default=0)
            longest[tid] = best + weight(self._tasks[tid])
        return longest


@dataclass(frozen=True)
class PlannedTask:
    """One task of a :class:`TilePlan`: the :class:`ABBTask` fields plus
    its insertion ``index`` in the graph (it keys the task's memory
    stream), ``memory_bytes`` (operand bytes less chained bytes, never
    below zero), ``inputs`` (``(producer position, chained bytes)`` per
    incoming edge, in edge order; a position indexes
    :attr:`TilePlan.tasks`), ``output_bytes``, ``is_sink`` and
    ``successors`` (the positions of its consumers, in position order)."""

    task_id: str
    abb_type: str
    invocations: int
    index: int
    memory_bytes: float
    inputs: tuple[tuple[int, float], ...]
    output_bytes: float
    is_sink: bool
    successors: tuple[int, ...]


class TilePlan:
    """A flow graph compiled against a library, once per run.

    Everything a tile reads from its graph is fixed per graph, so the
    tile scheduler, the serving path and ARC all read it from here.

    Attributes:
        tasks: One :class:`PlannedTask` per task, in topological order.
        memory_read_bytes: Memory-input bytes of every task, summed in
            insertion order (one software run of the whole graph).
        sink_write_bytes: Output bytes of the sinks, summed in insertion
            order.
        type_hints: ``(ABB type, mean invocations per task)`` pairs,
            sorted by type name.
    """

    def __init__(self, graph: ABBFlowGraph, library: ABBLibrary) -> None:
        position = {tid: pos for pos, tid in enumerate(graph.topological_order())}
        sinks = set(graph.sinks())
        output = {
            task.task_id: task.invocations * library.get(task.abb_type).output_bytes
            for task in graph.tasks
        }
        # An edge without explicit bytes carries its producer's output.
        chained = {
            (edge.producer, edge.consumer): (
                output[edge.producer] if edge.nbytes is None else edge.nbytes
            )
            for edge in graph.edges
        }
        consumers: dict[str, list[int]] = {tid: [] for tid in position}
        for edge in graph.edges:
            consumers[edge.producer].append(position[edge.consumer])
        records = []
        invocations: dict[str, list[int]] = {}
        for index, task in enumerate(graph.tasks):
            tid = task.task_id
            inputs = tuple(
                (position[p], chained[p, tid]) for p in graph.predecessors(tid)
            )
            operand = task.invocations * library.get(task.abb_type).input_bytes
            memory = max(0.0, operand - sum(nbytes for _p, nbytes in inputs))
            records.append(
                PlannedTask(
                    tid, task.abb_type, task.invocations, index,
                    memory, inputs, output[tid], tid in sinks,
                    tuple(sorted(consumers[tid])),
                )
            )
            invocations.setdefault(task.abb_type, []).append(task.invocations)
        self.tasks = tuple(sorted(records, key=lambda t: position[t.task_id]))
        self.memory_read_bytes = sum(t.memory_bytes for t in records)
        self.sink_write_bytes = sum(t.output_bytes for t in records if t.is_sink)
        self.type_hints = tuple(
            (abb_type, sum(counts) / len(counts))
            for abb_type, counts in sorted(invocations.items())
        )
