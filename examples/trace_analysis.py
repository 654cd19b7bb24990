#!/usr/bin/env python
"""Tracing a virtual accelerator: where do the cycles go?

Attaches a tracer to a small system, runs one EKF-SLAM tile, and prints
a Gantt chart of every ABB slot plus per-kind cycle totals — making the
paper's bottleneck story (gather/chaining time vs compute time)
directly visible.
"""

from repro import SystemConfig, SystemModel, get_workload
from repro.abb import TilePlan
from repro.core import TileScheduler
from repro.engine.trace import Tracer

KIND_SYMBOLS = {
    "alloc_wait": "w",
    "gather": "g",
    "compute": "C",
    "writeback": "o",
}


def main() -> None:
    tracer = Tracer()
    system = SystemModel(SystemConfig(n_islands=3), tracer=tracer)
    workload = get_workload("EKF-SLAM", tiles=1)
    graph = workload.build_graph(system.library)

    TileScheduler(system, TilePlan(graph, system.library), tile_id=0).run()
    system.sim.run()

    print(f"one {workload.name} tile: {system.sim.now:,.0f} cycles\n")
    print("legend: w=alloc wait  g=gather operands  C=compute  o=writeback\n")
    used = tracer.actors()
    print(tracer.gantt(width=70, actors=used, kind_symbols=KIND_SYMBOLS))

    print("\ncycles by activity:")
    kind_totals = tracer.kind_cycles()
    total = sum(kind_totals.values())
    for kind, cycles in sorted(kind_totals.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:<12} {cycles:9,.0f} cy  ({cycles / total:5.1%})")

    print("\nbusiest slots:")
    for actor, cycles in tracer.hotspots(3):
        print(f"  {actor:<20} {cycles:9,.0f} cy")

    compute = kind_totals.get("compute", 0.0)
    gather = kind_totals.get("gather", 0.0)
    print(
        f"\ndata movement dominates compute by "
        f"{gather / max(compute, 1e-9):.1f}X - the communication-bound "
        f"regime the paper's island DSE is about."
    )


if __name__ == "__main__":
    main()
