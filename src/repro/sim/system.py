"""Top-level system model: islands + ABC + mesh NoC + memory.

:class:`SystemConfig` captures one point of the paper's design space
(island count, SPM<->DMA network, porting, sharing).  :class:`SystemModel`
wires the hardware together and provides the three system-level data
paths the tile scheduler uses (memory<->island and island<->island),
each calling its ``then()`` when the data has arrived.  Each transfer
is one :class:`~repro.engine.route.Route` over a flat leg
tuple: the memory's read or write leg, the mesh's crossing leg and the
islands' ingress and egress legs.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from functools import partial

from repro.abb.library import ABBLibrary, PAPER_ABB_MIX
from repro.cmp.fallback import SoftwareFallbackModel
from repro.cmp.xeon import XEON_E5_2420
from repro.core.allocation import AllocationPolicy, locality_then_load_balance
from repro.core.composer import AcceleratorBlockComposer
from repro.engine import Resource, Route, Simulator
from repro.engine.route import CALL, DONE, MARK, leg
from repro.engine.trace import Tracer
from repro.errors import ConfigError, check_bound
from repro.faults import FaultInjector, FaultSpec, FaultStats
from repro.island import Island, SpmDmaNetworkConfig, SpmPorting
from repro.mem import MemorySystem
from repro.noc import MeshNoC
from repro.power import EnergyAccount
from repro.sim.platform import platform_for

_INF = float("inf")

#: Numeric config fields: ``(name, whether an int, least value, whether
#: the least is excluded)`` (see :func:`~repro.errors.check_bound`).
_BOUNDS = (
    ("n_islands", True, 1, False),
    ("n_memory_controllers", True, 1, False),
    ("n_cores", True, 1, False),
    ("n_l2_banks", True, 0, False),
    ("fault_seed", True, -_INF, False),
    ("noc_link_bytes_per_cycle", False, 0.0, True),
    ("mesh_link_bytes_per_cycle", False, 0.0, True),
    ("mc_bandwidth_gbps", False, 0.0, True),
    ("mc_latency_cycles", False, 0.0, False),
    ("platform_static_mw", False, 0.0, False),
)

#: The host-core model software fallback runs on (stateless).
FALLBACK_MODEL = SoftwareFallbackModel(core=XEON_E5_2420)


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
        for name, *bound in _BOUNDS:
            check_bound(name, getattr(self, name), *bound)
        for type_name, count in self.abb_mix.items():
            check_bound(f"ABB count {type_name!r}", count, True, 0)
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


class _SoftwareJob:
    """One run of :meth:`SystemModel.software_execute`: read, compute,
    write back, each step a callback scheduled at the previous one's
    completion time."""

    __slots__ = ("system", "cycles", "write_bytes", "stream", "ref", "start", "then")

    def __init__(
        self,
        system: "SystemModel",
        read_bytes: float,
        cycles: float,
        write_bytes: float,
        stream: int,
        ref: str,
        gather_start: float,
        then: typing.Callable[[], None],
    ) -> None:
        self.system = system
        self.cycles = cycles
        self.write_bytes = write_bytes
        self.stream = stream
        self.ref = ref
        self.start = gather_start
        self.then = then
        if read_bytes > 0:
            done = system.memory.access_fast(read_bytes, stream, ref)
            system.sim.schedule(done, self._compute)
        else:
            self._compute()

    def _span(self, kind: str) -> None:
        tracer = self.system.tracer
        if tracer is not None:
            now = self.system.sim.now
            tracer.record(self.start, now, "core.sw", kind, self.ref, self.ref)

    def _compute(self) -> None:
        sim = self.system.sim
        if sim.now > self.start:
            self._span("gather")
        self.start = sim.now
        sim.schedule(sim.now + self.cycles, self._computed)

    def _computed(self) -> None:
        system = self.system
        system.energy.charge(
            "sw_fallback", system.fallback_model.energy_nj(self.cycles)
        )
        self._span("sw_compute")
        if self.write_bytes > 0:
            self.start = system.sim.now
            done = system.memory.access_fast(self.write_bytes, self.stream, self.ref)
            system.sim.schedule(done, self._written)
        else:
            self.then()

    def _written(self) -> None:
        self._span("writeback")
        self.then()


def _read(memory: MemorySystem, route: Route) -> float:
    return memory.access_fast(route.nbytes, route.src, route.ref)


def _write(memory: MemorySystem, route: Route) -> float:
    return memory.access_fast(route.nbytes, route.dst, route.ref)


class SystemModel:
    """A fully wired accelerator-rich system ready to execute tiles.

    What the config fixes is its shared, read-only
    :class:`~repro.sim.platform.Platform` (:attr:`platform`, and the
    :attr:`topology` and each island's ``shape`` it holds); the system
    itself is one run's mutable state.
    """

    def __init__(
        self,
        config: SystemConfig,
        sim: typing.Optional[Simulator] = None,
        library: typing.Optional[ABBLibrary] = None,
        tracer: typing.Optional["Tracer"] = None,
    ) -> None:
        # What the config fixes comes from its platform, built once per
        # config; everything below is this run's own mutable state.
        platform = self.platform = platform_for(config, library)
        self.config = config
        self.sim = sim = sim if sim is not None else Simulator()
        # A run may register types into its library (CAMEL's fabric), so
        # it gets its own copy of the platform's, never the shared one.
        self.library = library if library is not None else platform.library.copy()
        self.energy = energy = EnergyAccount()
        self.tracer = tracer

        # Fault layer: only instantiated when a fault model is active, so
        # clean configurations schedule no extra events and stay
        # bit-identical to a platform without the fault plumbing.
        self.fault_injector: typing.Optional[FaultInjector] = (
            FaultInjector(config.faults, config.fault_seed)
            if config.faults.enabled
            else None
        )
        injector = self.fault_injector
        self._clean_fault_stats = FaultStats()

        self.islands: list[Island] = [
            Island(sim, i, shape, energy, injector, tracer)
            for i, shape in enumerate(platform.islands)
        ]
        self.topology = platform.topology
        self._island_nodes = platform.island_nodes
        self._mc_nodes = platform.mc_nodes
        self.noc = MeshNoC(
            sim,
            self.topology,
            platform.crossings,
            link_bytes_per_cycle=config.mesh_link_bytes_per_cycle,
            energy=energy,
            fault_injector=injector,
            tracer=tracer,
        )
        self.memory = MemorySystem(
            sim,
            n_controllers=config.n_memory_controllers,
            bandwidth_gbps=config.mc_bandwidth_gbps,
            latency_cycles=config.mc_latency_cycles,
            energy=energy,
            tracer=tracer,
        )
        self.abc = AcceleratorBlockComposer(sim, self.islands, config.policy)

        # Software-fallback path: host cores that absorb tasks whose ABB
        # type has no surviving hardware (ARC's wait-time-feedback
        # decision, forced by hard failure).  The pool is inert unless a
        # fallback actually occurs.
        self.fallback_cores = Resource(sim, capacity=config.n_cores)
        self.fallback_model = FALLBACK_MODEL
        # The planned ABB hard failures, each through
        # :meth:`AcceleratorBlockComposer.fail_slot`: the slot leaves
        # service (an in-flight task drains first) and queued requests
        # for a type with no surviving hardware resolve to software
        # fallback instead of deadlocking.
        for island_index, slot, cycle in platform.abb_failures:
            sim.schedule(sim.now + cycle, partial(self._fail_abb, island_index, slot))
        energy.add_static_power(platform.static_power_mw)

        # A route names its ends (island index, slot) or a memory stream
        # id.  A memory access records its own span, so a traced memory
        # leg only moves the span clock (the mesh span starts at its end).
        mark = MARK if tracer is not None else None
        self._read_legs = (leg(CALL, partial(_read, self.memory), mark),)
        self._write_legs = (leg(CALL, partial(_write, self.memory), mark), DONE)

    # ---------------------------------------------------------------- faults
    @property
    def fault_stats(self) -> FaultStats:
        """Degradation counters for this run (zeros when faults are off)."""
        if self.fault_injector is not None:
            return self.fault_injector.stats
        return self._clean_fault_stats

    def _fail_abb(self, island_index: int, slot: int) -> None:
        self.abc.fail_slot(island_index, slot)
        self.fault_injector.stats.failed_abbs += 1

    # ------------------------------------------------------ software path
    def software_execute(
        self,
        read_bytes: float,
        cycles: float,
        write_bytes: float,
        stream: int,
        ref: str,
        gather_start: float,
        then: typing.Callable[[], None],
    ) -> None:
        """The one host-core software path; ``then()`` runs when it ends.

        Reads operands from shared memory, computes for ``cycles``,
        charges the energy and writes results back.  The caller holds a
        :attr:`fallback_cores` unit; its gathering began at
        ``gather_start``.
        """
        _SoftwareJob(
            self, read_bytes, cycles, write_bytes, stream, ref, gather_start, then
        )

    # ------------------------------------------------------------ data path
    def _node(self, end):
        """The mesh stop of a route end: an island's (checked by the
        caller), or the memory controller a stream id interleaves to."""
        if end.__class__ is tuple:
            return self._island_nodes[end[0]]
        nodes = self._mc_nodes
        return nodes[end % len(nodes)]

    def _island(self, index: int) -> Island:
        if not 0 <= index < len(self.islands):
            raise ConfigError(f"no island {index} in {len(self.islands)}")
        return self.islands[index]

    def _route(self, head, tail, then, nbytes: float, src, dst, ref: str) -> None:
        """One transfer: ``head``, the mesh crossing, then ``tail``."""
        mesh = self.noc.transfer(self._node(src), self._node(dst), nbytes)
        Route(self.sim, head + (mesh,) + tail, then, nbytes, src, dst, ref)

    def memory_to_island(
        self,
        island_index: int,
        slot: int,
        nbytes: float,
        stream_id: int,
        then: typing.Callable[[], None],
        ref: str = "",
    ) -> None:
        """DRAM read -> mesh -> island ingress -> SPM."""
        ingress = self._island(island_index).ingress(slot, nbytes)
        dst = (island_index, slot)
        self._route(self._read_legs, ingress, then, nbytes, stream_id, dst, ref)

    def island_to_memory(
        self,
        island_index: int,
        slot: int,
        nbytes: float,
        stream_id: int,
        then: typing.Callable[[], None],
        ref: str = "",
    ) -> None:
        """SPM -> island egress -> mesh -> DRAM write."""
        egress = self._island(island_index).egress(slot, nbytes)
        src = (island_index, slot)
        self._route(egress, self._write_legs, then, nbytes, src, stream_id, ref)

    def island_to_island(
        self,
        src_index: int,
        src_slot: int,
        dst_index: int,
        dst_slot: int,
        nbytes: float,
        then: typing.Callable[[], None],
        ref: str = "",
    ) -> None:
        """Cross-island chaining: egress -> mesh -> ingress; within one
        island, the island's local chaining path."""
        src, dst = self._island(src_index), self._island(dst_index)
        ends = (src_index, src_slot), (dst_index, dst_slot)
        if dst is src:
            legs = src.chain_local(src_slot, dst_slot, nbytes)
            Route(self.sim, legs, then, nbytes, *ends, ref)
            return
        egress, ingress = src.egress(src_slot, nbytes), dst.ingress(dst_slot, nbytes)
        self._route(egress, ingress, then, nbytes, *ends, ref)

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
