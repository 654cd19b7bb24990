"""Workload base type.

A workload is a kernel repeated over many *tiles* of input data (image
tiles, scan slices, particle batches).  The accelerator side consumes the
kernel's ABB flow graph; the CMP baseline consumes the calibrated
software cost per tile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abb.flowgraph import ABBFlowGraph
from repro.abb.library import ABBLibrary
from repro.compiler.decompose import decompose
from repro.compiler.kernel import Kernel
from repro.errors import ConfigError

__all__ = [
    "SOFTWARE_CYCLES_PER_INVOCATION",
    "Workload",
    "scale_workload",
    "software_cycles_estimate",
    "software_task_cycles",
]

#: Approximate single-core software cycles per ABB invocation, by type.
#: A 16-input polynomial is ~16 FMAs plus loads; divide/sqrt are long-
#: latency iterative ops on a CPU; sums are cheap but memory-bound.
SOFTWARE_CYCLES_PER_INVOCATION: dict[str, float] = {
    "poly": 120.0,
    "div": 45.0,
    "sqrt": 60.0,
    "pow": 90.0,
    "sum": 55.0,
    "pf": 150.0,
}


#: Per-invocation cost of an ABB type with no entry in the table above.
DEFAULT_SOFTWARE_CYCLES_PER_INVOCATION = 100.0


def software_task_cycles(abb_type: str, invocations: int) -> float:
    """Single-core cycles to run ``invocations`` of one ABB type in
    software: the one lookup of :data:`SOFTWARE_CYCLES_PER_INVOCATION`."""
    return invocations * SOFTWARE_CYCLES_PER_INVOCATION.get(
        abb_type, DEFAULT_SOFTWARE_CYCLES_PER_INVOCATION
    )


def software_cycles_estimate(graph: ABBFlowGraph) -> float:
    """Single-core cycle estimate for one graph tile: its tasks run one
    after another (no chaining, no parallel slots)."""
    return sum(
        software_task_cycles(task.abb_type, task.invocations) for task in graph.tasks
    )


@dataclass(frozen=True)
class Workload:
    """A named benchmark: kernel + tile count + software baseline cost.

    Attributes:
        name: Benchmark name as it appears in the paper's figures.
        domain: ``"medical"`` or ``"navigation"``.
        kernel: The kernel IR executed once per tile.
        tiles: Number of tiles per run.
        sw_cycles_per_tile: Calibrated cycles one core of the CMP
            baseline spends per tile (includes the cache behaviour and
            vectorization quality of the real software implementation,
            which is why it is calibrated rather than derived).
        description: One-line summary of the computation.
    """

    name: str
    domain: str
    kernel: Kernel
    tiles: int
    sw_cycles_per_tile: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.tiles < 1:
            raise ConfigError(f"{self.name}: tiles must be >= 1")
        if self.sw_cycles_per_tile <= 0:
            raise ConfigError(f"{self.name}: software cost must be positive")
        if self.domain not in ("medical", "navigation", "synthetic"):
            raise ConfigError(f"{self.name}: unknown domain {self.domain!r}")

    def build_graph(
        self, library: ABBLibrary, allow_fabric: bool = False
    ) -> ABBFlowGraph:
        """Lower the kernel to an ABB flow graph for this library."""
        return decompose(self.kernel, library, allow_fabric=allow_fabric)

    def chaining_ratio(self, library: ABBLibrary) -> float:
        """Edges per task of the lowered graph (chaining intensity)."""
        return self.build_graph(library).chaining_ratio()


def scale_workload(workload: Workload, factor: float) -> Workload:
    """Scale a workload's per-tile work by ``factor``.

    Every op's vector length scales (minimum 1 invocation), as does the
    software baseline cost — the same computation on a larger or smaller
    tile of input.  Used by the offload-granularity study: fixed per-tile
    overheads (memory latency, pipeline fills, allocation) amortize
    better over larger tiles.
    """
    if factor <= 0:
        raise ConfigError(f"scale factor must be positive, got {factor}")
    scaled = Kernel(f"{workload.kernel.name}_x{factor:g}")
    for op in workload.kernel.ops:
        scaled.add_op(
            op.op_id,
            op.opcode,
            max(1, round(op.vector_length * factor)),
            inputs=list(op.inputs),
        )
    return Workload(
        name=f"{workload.name} (x{factor:g})",
        domain=workload.domain,
        kernel=scaled,
        tiles=workload.tiles,
        sw_cycles_per_tile=workload.sw_cycles_per_tile * factor,
        description=f"{workload.description} [work scaled {factor:g}x]",
    )
