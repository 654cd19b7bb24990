"""ABB dataflow graphs.

The compiler decomposes an accelerator kernel into a DAG of ABB tasks; the
ABC consumes this graph at runtime to allocate ABBs and orchestrate
chaining.  Edges represent producer→consumer streams (chaining); task
inputs not covered by an incoming edge are fetched from shared memory, and
sink outputs are written back to shared memory.
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
        self._edge_map: dict[tuple[str, str], Edge] = {}

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
        edge = Edge(producer, consumer, nbytes)
        self._edges.append(edge)
        self._edge_map[(producer, consumer)] = edge

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

    def successors(self, task_id: str) -> list[str]:
        """Consumers chained from ``task_id``."""
        return list(self._succ[task_id])

    def predecessors(self, task_id: str) -> list[str]:
        """Producers chained into ``task_id``."""
        return list(self._pred[task_id])

    def sources(self) -> list[str]:
        """Tasks with no producers (inputs come from memory)."""
        return [tid for tid in self._tasks if not self._pred[tid]]

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

    def edge(self, producer: str, consumer: str) -> Edge:
        """Look up the edge between two tasks."""
        try:
            return self._edge_map[(producer, consumer)]
        except KeyError:
            raise ConfigError(f"no edge {producer!r} -> {consumer!r}") from None

    def edge_bytes(self, edge: Edge, library: ABBLibrary) -> float:
        """Bytes streamed along a chaining edge.

        The edge's explicit operand volume when set; otherwise the
        producer's output volume.
        """
        if edge.nbytes is not None:
            return edge.nbytes
        producer = self._tasks[edge.producer]
        return producer.invocations * library.get(producer.abb_type).output_bytes

    def chained_input_bytes(self, task_id: str, library: ABBLibrary) -> float:
        """Operand bytes a task receives over chaining edges."""
        return sum(
            self.edge_bytes(self.edge(pred, task_id), library)
            for pred in self._pred[task_id]
        )

    def task_input_bytes(self, task_id: str, library: ABBLibrary) -> float:
        """Total operand bytes consumed by a task."""
        task = self._tasks[task_id]
        return task.invocations * library.get(task.abb_type).input_bytes

    def task_output_bytes(self, task_id: str, library: ABBLibrary) -> float:
        """Total result bytes produced by a task."""
        task = self._tasks[task_id]
        return task.invocations * library.get(task.abb_type).output_bytes

    def memory_input_bytes(self, task_id: str, library: ABBLibrary) -> float:
        """Operand bytes a task must fetch from shared memory.

        Chained bytes arriving on incoming edges are subtracted from the
        task's total operand volume (never below zero).
        """
        total = self.task_input_bytes(task_id, library)
        chained = self.chained_input_bytes(task_id, library)
        return max(0.0, total - chained)

    def total_invocations(self) -> int:
        """Sum of invocations over all tasks."""
        return sum(task.invocations for task in self._tasks.values())

    def critical_path_cycles(self, library: ABBLibrary) -> float:
        """Longest compute-only path through the DAG, in cycles.

        Ignores data movement — a lower bound used by the scheduler to
        prioritize long chains.
        """
        longest: dict[str, float] = {}
        for tid in self.topological_order():
            task = self._tasks[tid]
            cycles = library.get(task.abb_type).compute_cycles(task.invocations)
            best_pred = max(
                (longest[p] for p in self._pred[tid]), default=0.0
            )
            longest[tid] = best_pred + cycles
        return max(longest.values(), default=0.0)
