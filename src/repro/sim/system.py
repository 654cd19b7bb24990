"""Top-level system model: islands + ABC + mesh NoC + memory.

:class:`SystemConfig` captures one point of the paper's design space
(island count, SPM<->DMA network, porting, sharing).  :class:`SystemModel`
wires the hardware together and provides the three system-level data
paths the tile scheduler uses (memory<->island and island<->island).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace

from repro.abb.library import ABBLibrary, PAPER_ABB_MIX, standard_library
from repro.cmp.fallback import SoftwareFallbackModel
from repro.cmp.xeon import XEON_E5_2420
from repro.core.allocation import AllocationPolicy, locality_then_load_balance
from repro.core.composer import AcceleratorBlockComposer
from repro.engine import Event, Resource, Route, Simulator, Timeout
from repro.engine.route import CALL, DONE, leg
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultSpec, FaultStats
from repro.island import Island, IslandConfig, SpmDmaNetworkConfig, SpmPorting
from repro.mem import MemorySystem
from repro.noc import MeshNoC, MeshTopology
from repro.power import EnergyAccount

#: Leakage charged per mesh router, mW (the mesh itself).
MESH_ROUTER_STATIC_MW = 0.4


def distribute_mix(
    total_mix: typing.Mapping[str, int],
    n_islands: int,
    strategy: str = "uniform",
) -> list[dict[str, int]]:
    """Split a system-wide ABB mix across islands.

    ``"uniform"`` (the paper's Section 4 choice): every type spread
    evenly, remainders rotated so island sizes differ by at most one ABB
    per type.  ``"clustered"``: islands filled type by type, producing
    type-pure islands — the ablation alternative, which concentrates
    each type's traffic on a few NoC interfaces.
    """
    if n_islands < 1:
        raise ConfigError("need at least one island")
    if strategy not in ("uniform", "clustered"):
        raise ConfigError(f"unknown distribution strategy {strategy!r}")
    per_island: list[dict[str, int]] = [dict() for _ in range(n_islands)]
    if strategy == "uniform":
        offset = 0  # rotate each type's remainder so island totals stay even
        for type_name in sorted(total_mix):
            count = total_mix[type_name]
            if count < 0:
                raise ConfigError(f"negative count for {type_name!r}")
            base, extra = divmod(count, n_islands)
            for i in range(n_islands):
                share = base + (1 if (i - offset) % n_islands < extra else 0)
                if share:
                    per_island[i][type_name] = share
            offset += extra
    else:
        total = sum(total_mix.values())
        if any(count < 0 for count in total_mix.values()):
            raise ConfigError("negative count in mix")
        per_size, remainder = divmod(total, n_islands)
        sizes = [per_size + (1 if i < remainder else 0) for i in range(n_islands)]
        island_index = 0
        room = sizes[0]
        for type_name in sorted(total_mix):
            remaining = total_mix[type_name]
            while remaining > 0:
                if room == 0:
                    island_index += 1
                    room = sizes[island_index]
                take = min(remaining, room)
                per_island[island_index][type_name] = (
                    per_island[island_index].get(type_name, 0) + take
                )
                remaining -= take
                room -= take
    empties = [i for i, mix in enumerate(per_island) if not mix]
    if empties:
        raise ConfigError(
            f"mix {dict(total_mix)} leaves islands {empties} empty at "
            f"{n_islands} islands"
        )
    return per_island


@dataclass(frozen=True)
class SystemConfig:
    """One design point of the accelerator-rich system.

    Defaults reproduce the paper's evaluated platform: 120 ABBs
    (78/18/9/6/9), 4 memory controllers at 10 GB/s with 180-cycle
    latency, and the baseline island (proxy crossbar, exact porting, no
    sharing).
    """

    n_islands: int = 3
    abb_mix: dict[str, int] = field(default_factory=lambda: dict(PAPER_ABB_MIX))
    network: SpmDmaNetworkConfig = SpmDmaNetworkConfig()
    spm_porting: SpmPorting = SpmPorting.EXACT
    spm_sharing: bool = False
    noc_link_bytes_per_cycle: float = 6.0
    mesh_link_bytes_per_cycle: float = 16.0
    n_memory_controllers: int = 4
    mc_bandwidth_gbps: float = 10.0
    mc_latency_cycles: float = 180.0
    n_cores: int = 4
    n_l2_banks: int = 8
    policy: AllocationPolicy = locality_then_load_balance
    #: Full-platform always-on power while the accelerator subsystem
    #: runs (host cores near-idle, uncore, DRAM I/O, board).  Calibrated
    #: so the accelerator platform draws ~1/2.8 the power of the
    #: 12-core Xeon socket, matching the paper's uniform
    #: energy-gain-to-speedup ratio in Figure 10.
    platform_static_mw: float = 43_000.0
    #: How ABBs are spread over islands: "uniform" (the paper) or
    #: "clustered" (type-pure islands, the ablation alternative).
    distribution: str = "uniform"
    #: Fault-injection models (ABB hard failure, DMA stall/drop, NoC
    #: link degradation).  The default spec disables every model, which
    #: is guaranteed bit-identical to a platform without the fault
    #: layer.  Covered by :meth:`fingerprint` like every other field.
    faults: FaultSpec = FaultSpec()
    #: Seed for every fault draw; the same (faults, fault_seed) pair
    #: reproduces bit-identical degraded runs.
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_islands < 1:
            raise ConfigError("need at least one island")
        if sum(self.abb_mix.values()) < self.n_islands:
            raise ConfigError("fewer ABBs than islands")

    def with_network(self, network: SpmDmaNetworkConfig) -> "SystemConfig":
        """Copy of this config with a different SPM<->DMA network."""
        return replace(self, network=network)

    def with_islands(self, n_islands: int) -> "SystemConfig":
        """Copy of this config with a different island count."""
        return replace(self, n_islands=n_islands)

    def label(self) -> str:
        """Short label, e.g. ``"24 Islands / 2-Ring, 32-Byte"``."""
        return f"{self.n_islands} Islands / {self.network.label()}"

    def fingerprint(self) -> str:
        """Stable SHA-256 content address covering *every* config field.

        Built by canonicalizing each declared dataclass field (nested
        dataclasses, enums, dicts and the allocation-policy callable
        included), so any single-field change — and any field added to
        this class in the future — produces a different fingerprint.
        This is the config component of the DSE result-cache key; see
        :mod:`repro.sim.fingerprint`.
        """
        from repro.sim.fingerprint import digest

        return digest(self)


class SystemModel:
    """A fully wired accelerator-rich system ready to execute tiles."""

    def __init__(
        self,
        config: SystemConfig,
        sim: typing.Optional[Simulator] = None,
        library: typing.Optional[ABBLibrary] = None,
        tracer: typing.Optional["Tracer"] = None,
    ) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.library = library if library is not None else standard_library()
        self.energy = EnergyAccount()
        self.tracer = tracer

        # Fault layer: only instantiated when a fault model is active, so
        # clean configurations schedule no extra events and stay
        # bit-identical to a platform without the fault plumbing.
        self.fault_injector: typing.Optional[FaultInjector] = (
            FaultInjector(config.faults, config.fault_seed)
            if config.faults.enabled
            else None
        )
        self._clean_fault_stats = FaultStats()

        per_island_mix = distribute_mix(
            config.abb_mix, config.n_islands, config.distribution
        )
        self.islands: list[Island] = []
        for i, mix in enumerate(per_island_mix):
            island_config = IslandConfig(
                abb_mix=mix,
                network=config.network,
                spm_porting=config.spm_porting,
                spm_sharing=config.spm_sharing,
                noc_link_bytes_per_cycle=config.noc_link_bytes_per_cycle,
            )
            self.islands.append(
                Island(
                    self.sim,
                    i,
                    island_config,
                    self.library,
                    self.energy,
                    fault_injector=self.fault_injector,
                    tracer=tracer,
                )
            )

        self.topology = MeshTopology(
            n_islands=config.n_islands,
            n_cores=config.n_cores,
            n_l2_banks=config.n_l2_banks,
            n_memory_controllers=config.n_memory_controllers,
        )
        self.noc = MeshNoC(
            self.sim,
            self.topology,
            link_bytes_per_cycle=config.mesh_link_bytes_per_cycle,
            energy=self.energy,
            fault_injector=self.fault_injector,
            tracer=tracer,
        )
        self.memory = MemorySystem(
            self.sim,
            n_controllers=config.n_memory_controllers,
            bandwidth_gbps=config.mc_bandwidth_gbps,
            latency_cycles=config.mc_latency_cycles,
            energy=self.energy,
            tracer=tracer,
        )
        self.abc = AcceleratorBlockComposer(self.sim, self.islands, config.policy)

        # Software-fallback path: host cores that absorb tasks whose ABB
        # type has no surviving hardware (ARC's wait-time-feedback
        # decision, forced by hard failure).  The pool is inert unless a
        # fallback actually occurs.
        self.fallback_cores = Resource(self.sim, capacity=config.n_cores)
        self.fallback_model = SoftwareFallbackModel(core=XEON_E5_2420)
        if self.fault_injector is not None:
            self._arm_abb_failures()

        for island in self.islands:
            self.energy.add_static_power(island.static_power_mw)
        self.energy.add_static_power(
            MESH_ROUTER_STATIC_MW * len(self.topology.nodes)
        )
        self.energy.add_static_power(config.platform_static_mw)

        # System routes.  An endpoint is a memory stream id (DRAM via
        # its controller) or an (island index, slot) pair.
        read, write = leg(CALL, self._read), leg(CALL, self._write)
        egress, ingress = leg(CALL, self._egress), leg(CALL, self._ingress)
        mesh = leg(CALL, self._mesh)
        self._mem_to_island_legs = (read, mesh, ingress, DONE)
        self._island_to_mem_legs = (egress, mesh, write, DONE)
        self._island_to_island_legs = (egress, mesh, ingress, DONE)

    # ---------------------------------------------------------------- faults
    @property
    def fault_stats(self) -> FaultStats:
        """Degradation counters for this run (zeros when faults are off)."""
        if self.fault_injector is not None:
            return self.fault_injector.stats
        return self._clean_fault_stats

    def _arm_abb_failures(self) -> None:
        """Schedule the planned ABB hard failures on the simulator.

        Each failure goes through :meth:`AcceleratorBlockComposer.fail_slot`:
        the slot leaves service (an in-flight task drains first) and
        queued requests for a type with no surviving hardware resolve to
        software fallback instead of deadlocking.
        """
        plan = self.fault_injector.plan_abb_failures(
            [island.n_slots for island in self.islands]
        )

        def make_callback(island_index: int, slot: int):
            def on_fire(_event: Event) -> None:
                self.abc.fail_slot(island_index, slot)
                self.fault_injector.stats.failed_abbs += 1

            return on_fire

        for island_index, slot, cycle in plan:
            Timeout(self.sim, cycle).add_callback(make_callback(island_index, slot))

    # ------------------------------------------------------ software path
    def software_execute(
        self,
        read_bytes: float,
        cycles: float,
        write_bytes: float,
        stream: int,
        ref: str,
        gather_start: float,
    ):
        """The one host-core software path (a generator to ``yield from``).

        Reads operands from shared memory, computes for ``cycles``,
        charges the energy and writes results back.  The caller holds a
        :attr:`fallback_cores` grant; its gathering began at
        ``gather_start``.
        """
        sim, tracer = self.sim, self.tracer
        if read_bytes > 0:
            yield self.memory.access(read_bytes, stream, ref)
        if tracer is not None and sim.now > gather_start:
            tracer.span(gather_start, sim.now, "core.sw", "gather", ref, ref)
        start = sim.now
        yield sim.delay(cycles)
        self.energy.charge("sw_fallback", self.fallback_model.energy_nj(cycles))
        if tracer is not None:
            tracer.span(start, sim.now, "core.sw", "sw_compute", ref, ref)
        if write_bytes > 0:
            start = sim.now
            yield self.memory.access(write_bytes, stream, ref)
            if tracer is not None:
                tracer.span(start, sim.now, "core.sw", "writeback", ref, ref)

    # ------------------------------------------------------------ data path
    def _mc_node(self, stream_id: int):
        index = stream_id % self.config.n_memory_controllers
        return self.topology.memory_controller(index)

    def _node(self, end):
        if end.__class__ is tuple:
            return self.topology.island(end[0])
        return self._mc_node(end)

    def _read(self, route: Route) -> float:
        return self.memory.access_fast(route.nbytes, route.src, route.ref)

    def _write(self, route: Route) -> float:
        return self.memory.access_fast(route.nbytes, route.dst, route.ref)

    def _egress(self, route: Route) -> Event:
        island, slot = route.src
        return self.islands[island].egress(slot, route.nbytes, route.ref)

    def _ingress(self, route: Route) -> Event:
        island, slot = route.dst
        return self.islands[island].ingress(slot, route.nbytes, route.ref)

    def _mesh(self, route: Route) -> Event:
        return self.noc.transfer(
            self._node(route.src), self._node(route.dst), route.nbytes, route.ref
        )

    def memory_to_island(
        self,
        island_index: int,
        slot: int,
        nbytes: float,
        stream_id: int,
        ref: str = "",
    ) -> Event:
        """DRAM read -> mesh -> island ingress -> SPM."""
        return Route(
            self.sim, self._mem_to_island_legs, nbytes,
            stream_id, (island_index, slot), ref,
        ).event

    def island_to_memory(
        self,
        island_index: int,
        slot: int,
        nbytes: float,
        stream_id: int,
        ref: str = "",
    ) -> Event:
        """SPM -> island egress -> mesh -> DRAM write."""
        return Route(
            self.sim, self._island_to_mem_legs, nbytes,
            (island_index, slot), stream_id, ref,
        ).event

    def island_to_island(
        self,
        src_index: int,
        src_slot: int,
        dst_index: int,
        dst_slot: int,
        nbytes: float,
        ref: str = "",
    ) -> Event:
        """Cross-island chaining: egress -> mesh -> ingress."""
        if src_index == dst_index:
            return self.islands[src_index].chain_local(
                src_slot, dst_slot, nbytes, ref
            )
        return Route(
            self.sim, self._island_to_island_legs, nbytes,
            (src_index, src_slot), (dst_index, dst_slot), ref,
        ).event

    # -------------------------------------------------------------- metrics
    @property
    def accelerator_area_mm2(self) -> float:
        """Total area of the accelerator subsystem (all islands)."""
        return sum(island.area_mm2 for island in self.islands)

    def area_breakdown_mm2(self) -> dict[str, float]:
        """Component-wise area summed over islands."""
        total: dict[str, float] = {}
        for island in self.islands:
            for key, value in island.area_breakdown_mm2().items():
                total[key] = total.get(key, 0.0) + value
        return total

    def average_abb_utilization(self, elapsed: float) -> float:
        """ABB-count-weighted average utilization across islands."""
        total_abbs = sum(island.n_slots for island in self.islands)
        busy = sum(
            island.average_abb_utilization(elapsed) * island.n_slots
            for island in self.islands
        )
        return busy / total_abbs if total_abbs else 0.0

    def peak_abb_utilization(self) -> float:
        """Peak busy fraction of the ABB pool (sum of per-island peaks,
        an upper bound on the true simultaneous peak)."""
        total_abbs = sum(island.n_slots for island in self.islands)
        peak = sum(island.abb_tracker.peak for island in self.islands)
        return peak / total_abbs if total_abbs else 0.0
