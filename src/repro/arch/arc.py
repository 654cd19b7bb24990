"""ARC: the first-generation accelerator-rich architecture [6].

ARC provides *monolithic* per-kernel accelerators managed by the GAM.  A
monolithic accelerator fuses the whole kernel into one deeply pipelined
datapath, so a tile's compute latency is the pipeline fill along the
critical path plus the streaming time of the widest stage — faster per
tile than a composed equivalent.  The costs are structural: each unit
carries its own DMA and SPM (idle whenever the unit is idle), the unit
count per kernel is fixed at design time, and a Deblur accelerator is
useless to Segmentation (narrow workload coverage).

``platform_power_w`` defaults to the full-system power implied by the
published ARC results (16X speedup but only 13X energy gain vs the 4-core
Xeon implies the ARC platform draws slightly *more* power than the Xeon
server — the ARC study measured full-system energy with all cores
active).
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import ABBFlowGraph, TilePlan
from repro.abb.library import ABBLibrary, standard_library
from repro.core.gam import GlobalAcceleratorManager
from repro.engine import BandwidthServer, Simulator
from repro.errors import SimulationError
from repro.island.spm import SPMGroup
from repro.island.config import SpmPorting
from repro.mem import MemorySystem
from repro.power import EnergyAccount
from repro.sim.results import SimResult
from repro.workloads.base import Workload

#: Default number of monolithic units per kernel (calibrated so the
#: medical suite averages ~16X over the 4-core Xeon, as published).
DEFAULT_ARC_UNITS = 2

#: NoC link bandwidth of one accelerator node, bytes/cycle.
ARC_NOC_LINK_BYTES_PER_CYCLE = 4.4

#: Full-system platform power of the ARC study, watts (see module doc).
ARC_PLATFORM_POWER_W = 162.0

#: Per-unit DMA-engine + NoC-interface area, mm^2.
ARC_UNIT_OVERHEAD_MM2 = 0.5

#: Fused-pipeline stall factor: a monolithic datapath double-buffers its
#: SPM between stages and stalls on inter-stage skew, so it streams
#: slower than the ideal fill+widest-stage bound.
ARC_PIPELINE_STALL_FACTOR = 1.25


def monolithic_cycles(graph: ABBFlowGraph, library: ABBLibrary) -> float:
    """Per-tile latency of a fused monolithic pipeline.

    Pipeline fill (sum of stage latencies along the critical path) plus
    the streaming time of the widest stage.
    """
    fill = graph.path_lengths(lambda task: float(library.get(task.abb_type).latency))
    max_fill = max(fill.values(), default=0.0)
    widest = max(
        (
            task.invocations * library.get(task.abb_type).initiation_interval
            for task in graph.tasks
        ),
        default=0.0,
    )
    return max_fill + widest


class ARCSystem:
    """A pool of monolithic accelerators under GAM arbitration."""

    def __init__(
        self,
        workload: Workload,
        n_units: int = DEFAULT_ARC_UNITS,
        library: typing.Optional[ABBLibrary] = None,
        platform_power_w: float = ARC_PLATFORM_POWER_W,
        lightweight_interrupts: bool = True,
    ) -> None:
        self.workload = workload
        self.library = library if library is not None else standard_library()
        self.graph = workload.build_graph(self.library)
        self.plan = TilePlan(self.graph, self.library)
        self.n_units = n_units
        self.sim = Simulator()
        self.energy = EnergyAccount()
        self.energy.add_static_power(platform_power_w * 1e3)  # W -> mW
        self.gam = GlobalAcceleratorManager(
            self.sim, n_units, lightweight_interrupts=lightweight_interrupts
        )
        self.memory = MemorySystem(self.sim, energy=self.energy)
        # Each unit has its own NoC interface (in and out aggregated).
        self._links = [
            BandwidthServer(
                self.sim,
                bytes_per_cycle=ARC_NOC_LINK_BYTES_PER_CYCLE,
                latency=4.0,
                name=f"arc_unit{u}.link",
            )
            for u in range(n_units)
        ]
        self._tile_compute = (
            monolithic_cycles(self.graph, self.library) * ARC_PIPELINE_STALL_FACTOR
        )
        self.completed = 0

    # ------------------------------------------------------------------ run
    def _tile(self, tile_id: int) -> None:
        """Start one tile: a chain of callbacks, each scheduled at the
        previous step's completion time."""
        sim, plan = self.sim, self.plan

        def granted(unit: int) -> None:
            link = self._links[unit]

            # Stream inputs: DRAM and the unit's NoC link in series.
            def read() -> None:
                sim.schedule(link.reserve(plan.memory_read_bytes), compute)

            # Fused pipeline.
            def compute() -> None:
                sim.schedule(sim.now + self._tile_compute, drain)

            # Drain outputs.
            def drain() -> None:
                for task in self.graph.tasks:
                    self.energy.charge(
                        "abb",
                        self.library.get(task.abb_type).dynamic_energy_nj(
                            task.invocations
                        ),
                    )
                sim.schedule(link.reserve(plan.sink_write_bytes), write)

            def write() -> None:
                done = self.memory.access_fast(plan.sink_write_bytes, tile_id)
                sim.schedule(done, interrupt)

            # The completion interrupt runs on the dispatching core
            # before the result is consumed; the OS path costs 100X more
            # cycles.
            def interrupt() -> None:
                handler_cycles = self.gam.release(unit)
                sim.schedule(sim.now + handler_cycles, finish)

            def finish() -> None:
                self.completed += 1

            sim.schedule(self.memory.access_fast(plan.memory_read_bytes, tile_id), read)

        self.gam.request(granted)

    def run(self) -> SimResult:
        """Execute every tile; returns the usual result record."""
        for tile_id in range(self.workload.tiles):
            self._tile(tile_id)
        self.sim.run()
        if self.completed != self.workload.tiles:
            raise SimulationError("ARC run did not complete all tiles")
        elapsed = self.sim.now
        return SimResult(
            workload=self.workload.name,
            config_label=f"ARC ({self.n_units} units)",
            tiles=self.workload.tiles,
            total_cycles=elapsed,
            energy_nj=self.energy.total_nj(elapsed),
            area_mm2=self.area_mm2,
            abb_utilization_avg=0.0,
            abb_utilization_peak=0.0,
            energy_breakdown_nj=self.energy.breakdown(elapsed),
            memory_bytes=self.memory.total_bytes(),
        )

    # ------------------------------------------------------------ physicals
    @property
    def area_mm2(self) -> float:
        """Total silicon: every unit replicates datapath + SPM + DMA."""
        datapath = sum(
            self.library.get(task.abb_type).area_mm2 for task in self.graph.tasks
        )
        spm = sum(
            SPMGroup(self.library.get(task.abb_type), SpmPorting.EXACT).area_mm2
            for task in self.graph.tasks
        )
        return self.n_units * (datapath + spm + ARC_UNIT_OVERHEAD_MM2)


def run_arc(
    workload: Workload,
    n_units: int = DEFAULT_ARC_UNITS,
    platform_power_w: float = ARC_PLATFORM_POWER_W,
) -> SimResult:
    """Convenience wrapper: build and run an ARC system."""
    return ARCSystem(
        workload, n_units=n_units, platform_power_w=platform_power_w
    ).run()
