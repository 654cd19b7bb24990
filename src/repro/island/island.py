"""Island assembly: ABBs + SPM groups + internal networks + NoC interface.

The island exposes three data paths to the system simulator:

* ``ingress(slot, nbytes)``  — NoC link in -> DMA -> internal net -> SPM;
* ``egress(slot, nbytes)``   — SPM -> internal net -> DMA -> NoC link out;
* ``chain_local(src, dst, nbytes)`` — SPM -> internal net -> SPM.

It is also the one record of slot occupancy: each slot's owner (the
ABC's grant) and computing flag, failures, and the Section 5.1
neighbour-lockout semantics of SPM sharing (allocating an ABB
temporarily claims its neighbours' banks, rendering the neighbours
unusable).  Every misuse of a slot's lifecycle — allocate, compute,
release — is checked here.
"""

from __future__ import annotations

import typing

import repro.faults as faults
from repro.abb.library import ABBLibrary
from repro.abb.types import ABBType
from repro.engine import (
    BandwidthServer,
    Event,
    Route,
    Simulator,
    UtilizationTracker,
)
from repro.engine.route import CALL, DONE, END, SERVE, leg
from repro.engine.trace import Tracer
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.island.config import IslandConfig
from repro.island.networks import SpmDmaNetwork, build_network
from repro.island.spm import SPMGroup
from repro.power.aggregate import EnergyAccount
from repro.power.orion import STATIC_MW_PER_MM2, crossbar_area_mm2

#: Fixed area of the island's DMA engine, mm^2.
DMA_ENGINE_AREA_MM2 = 0.30

#: Fixed area of the island's NoC interface, mm^2.
NOC_INTERFACE_AREA_MM2 = 0.20

#: Latency of the island's NoC interface (buffering/serialization), cycles.
NOC_INTERFACE_LATENCY = 4.0


class Island:
    """One ABB island instance inside a simulated system."""

    def __init__(
        self,
        sim: Simulator,
        island_id: int,
        config: IslandConfig,
        library: ABBLibrary,
        energy: typing.Optional[EnergyAccount] = None,
        fault_injector: typing.Optional["faults.FaultInjector"] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        library.validate_mix(config.abb_mix)
        self.sim = sim
        self.island_id = island_id
        self.config = config
        self.library = library
        self.energy = energy if energy is not None else EnergyAccount()
        self.tracer = tracer

        # Slots: one ABB + one SPM group per slot, laid out in a fixed
        # physical order (types interleaved as given by the mix).
        self.abbs: list[ABBType] = []
        self.spm_groups: list[SPMGroup] = []
        for type_name in sorted(config.abb_mix):
            abb_type = library.get(type_name)
            for _ in range(config.abb_mix[type_name]):
                self.abbs.append(abb_type)
                self.spm_groups.append(SPMGroup(abb_type, config.spm_porting))

        self.network: SpmDmaNetwork = build_network(
            sim,
            [group.banks for group in self.spm_groups],
            config.network,
            self.energy,
        )
        self.noc_in = BandwidthServer(
            sim,
            bytes_per_cycle=config.noc_link_bytes_per_cycle,
            latency=NOC_INTERFACE_LATENCY,
            name=f"island{island_id}.noc_in",
        )
        self.noc_out = BandwidthServer(
            sim,
            bytes_per_cycle=config.noc_link_bytes_per_cycle,
            latency=NOC_INTERFACE_LATENCY,
            name=f"island{island_id}.noc_out",
        )
        self.dma = BandwidthServer(
            sim,
            bytes_per_cycle=config.dma_bytes_per_cycle,
            latency=1.0,
            name=f"island{island_id}.dma",
        )
        # The proxy crossbar chains store-and-forward through the DMA
        # engine; couple them so chaining competes with memory traffic.
        attach = getattr(self.network, "attach_dma", None)
        if attach is not None:
            attach(self.dma)

        # Sharing lockout bookkeeping (Sec. 5.1): count of neighbours that
        # currently borrow this slot's banks.
        self._neighbor_locks = [0] * len(self.abbs)
        # Fault state: a failed slot is permanently out of service for
        # *new* allocations; an in-flight task drains and releases
        # normally (fail-stop after drain).
        self.fault_injector = fault_injector
        self._failed = [False] * len(self.abbs)
        # Occupancy: each slot's owner (the grant that holds it, compared
        # by identity) and whether its task has started computing.
        self._owner: list[object] = [None] * len(self.abbs)
        self._computing = [False] * len(self.abbs)
        # Allocation state, kept by allocate, release and fail_slot
        # instead of recounted per query (the ABC reads it on every
        # request): the slot layout is fixed after construction, so the
        # per-type slot lists are built once; a usable flag per slot; the
        # busy count.
        self._slots_by_type: dict[str, list[int]] = {}
        for index, abb_type in enumerate(self.abbs):
            self._slots_by_type.setdefault(abb_type.name, []).append(index)
        self._types = [abb_type.name for abb_type in self.abbs]
        self._usable = [True] * len(self.abbs)
        #: Usable slots per ABB type (see :meth:`slot_usable`); maintained,
        #: read-only for callers.
        self.usable_counts: dict[str, int] = {
            name: len(slots) for name, slots in self._slots_by_type.items()
        }
        self._slot_count = len(self.abbs)
        self._busy_slots = 0
        self.abb_tracker = UtilizationTracker(
            capacity=len(self.abbs), name=f"island{island_id}.abbs"
        )
        # Data-path routes, built once.  Traced islands record one span
        # per leg; the DMA fault model is the DMA leg's fault hook.
        self._span_labels: dict[float, str] = {}

        def span(suffix: str, kind: str):
            if tracer is None:
                return None
            return (tracer, f"island{island_id}.{suffix}", kind)

        dma_fault = None
        if fault_injector is not None and fault_injector.spec.dma_faults_enabled:
            dma_fault = self._dma_fault
        dma = leg(SERVE, self.dma, span("dma", "dma"), fault=dma_fault)
        net = span("net", "spm_net")
        self._ingress_legs = (
            leg(SERVE, self.noc_in, span("noc_in", "noc_if")),
            dma,
            leg(CALL, self._net_in, net),
            leg(END, charge=self._write_dst),
        )
        self._egress_legs = (
            leg(CALL, self._net_out, net, charge=self._read_src),
            dma,
            leg(SERVE, self.noc_out, span("noc_out", "noc_if")),
            DONE,
        )
        self._chain_legs = (
            leg(CALL, self._net_chain, net, charge=self._read_src),
            leg(END, charge=self._write_dst),
        )

    # -------------------------------------------------------------- queries
    @property
    def n_slots(self) -> int:
        """Number of ABB slots on the island."""
        return len(self.abbs)

    def slots_of_type(self, type_name: str) -> list[int]:
        """Slot indices whose ABB is of ``type_name``.

        The layout is fixed at construction, so this returns the
        precomputed list — callers must not mutate it.
        """
        slots = self._slots_by_type.get(type_name)
        return slots if slots is not None else []

    def slot_usable(self, slot: int) -> bool:
        """Whether a slot can be allocated right now.

        Requires an operational (non-failed) slot that no grant owns
        and — with sharing enabled — whose banks no neighbour has
        borrowed.
        """
        self._check_slot(slot)
        return self._usable[slot]

    def first_usable(self, type_name: str) -> typing.Optional[int]:
        """The lowest-index usable slot of a given ABB type, if any."""
        usable = self._usable
        for slot in self.slots_of_type(type_name):
            if usable[slot]:
                return slot
        return None

    @property
    def failed_slot_count(self) -> int:
        """Number of slots taken out of service by fault injection."""
        return sum(1 for failed in self._failed if failed)

    def busy_fraction(self) -> float:
        """Fraction of slots currently allocated (O(1), maintained)."""
        return self._busy_slots / self._slot_count

    # ----------------------------------------------------------- allocation
    def allocate(self, slot: int, owner: object) -> None:
        """Claim a slot for ``owner``; applies sharing lockout to neighbours."""
        if not self.slot_usable(slot):
            raise AllocationError(
                f"island {self.island_id}: slot {slot} not usable"
            )
        self._owner[slot] = owner
        self._set_usable(slot, False)
        if self.config.spm_sharing:
            for neighbor in self._neighbors(slot):
                self._neighbor_locks[neighbor] += 1
                self._set_usable(neighbor, False)
        self._busy_slots += 1
        self.abb_tracker.adjust(+1, self.sim.now)

    def release(self, slot: int, owner: object) -> None:
        """Return a slot to the pool after its owner's task computed."""
        self._check_slot(slot)
        if self._owner[slot] is not owner:
            raise SimulationError(
                f"island {self.island_id}: slot {slot} released by non-owner"
            )
        if not self._computing[slot]:
            raise SimulationError(
                f"island {self.island_id}: slot {slot} released before compute"
            )
        self._owner[slot] = None
        self._computing[slot] = False
        self._refresh_usable(slot)
        if self.config.spm_sharing:
            for neighbor in self._neighbors(slot):
                if self._neighbor_locks[neighbor] <= 0:
                    raise AllocationError("sharing lock underflow")
                self._neighbor_locks[neighbor] -= 1
                self._refresh_usable(neighbor)
        self._busy_slots -= 1
        self.abb_tracker.adjust(-1, self.sim.now)

    def fail_slot(self, slot: int) -> str:
        """Take a slot permanently out of service (ABB hard failure).

        Failing an already-failed slot is an error, since the fault plan
        draws slots without replacement.  Returns the failed slot's ABB
        type.  Call it through :meth:`AcceleratorBlockComposer.fail_slot`,
        which keeps the per-type operational count.
        """
        self._check_slot(slot)
        if self._failed[slot]:
            raise AllocationError(
                f"island {self.island_id}: slot {slot} already failed"
            )
        self._failed[slot] = True
        self._set_usable(slot, False)
        return self._types[slot]

    def _set_usable(self, slot: int, usable: bool) -> None:
        """Set a slot's usable flag, keeping its type's count."""
        if self._usable[slot] != usable:
            self._usable[slot] = usable
            self.usable_counts[self._types[slot]] += 1 if usable else -1

    def _refresh_usable(self, slot: int) -> None:
        """Recompute a slot's usable flag after a release."""
        self._set_usable(
            slot,
            not self._failed[slot]
            and self._owner[slot] is None
            and not (self.config.spm_sharing and self._neighbor_locks[slot] > 0),
        )

    def _neighbors(self, slot: int) -> list[int]:
        return [n for n in (slot - 1, slot + 1) if 0 <= n < len(self.abbs)]

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self.abbs):
            raise ConfigError(f"slot {slot} out of range")

    # ------------------------------------------------------------ data path
    def _dma_fault(self, route: Route) -> typing.Optional[float]:
        """Fault hook of the DMA leg: cycles to wait before (re)trying.

        Each attempt draws an outcome: a *stall* delays the transfer
        once; a *drop* costs a timeout plus exponential backoff and is
        retried up to ``dma_max_retries`` times, after which the
        transfer is forced through (DMA engine reset) so the simulation
        always makes forward progress.  ``route.attempt`` counts the
        retries; -1 marks a served stall.
        """
        attempt = route.attempt
        if attempt < 0:
            return None
        injector = self.fault_injector
        outcome = injector.dma_outcome(self.island_id)
        if outcome == faults.DMA_STALL:
            injector.stats.dma_stalls += 1
            route.attempt = -1
            return injector.spec.dma_stall_cycles
        if outcome == faults.DMA_DROP:
            if attempt < injector.spec.dma_max_retries:
                injector.stats.dma_retries += 1
                route.attempt = attempt + 1
                return injector.dma_retry_delay(attempt)
            injector.stats.dma_forced_recoveries += 1
        return None

    def _net_in(self, route: Route):
        return self.network.dma_to_spm(route.dst, route.nbytes)

    def _net_out(self, route: Route):
        return self.network.spm_to_dma(route.src, route.nbytes)

    def _net_chain(self, route: Route):
        return self.network.chain(route.src, route.dst, route.nbytes)

    def _read_src(self, route: Route) -> None:
        self.energy.charge("spm", self.spm_groups[route.src].record_read(route.nbytes))

    def _write_dst(self, route: Route) -> None:
        self.energy.charge("spm", self.spm_groups[route.dst].record_write(route.nbytes))

    def _label(self, nbytes: float) -> str:
        """Span label of a traced transfer (formatted once per size)."""
        label = self._span_labels.get(nbytes)
        if label is None:
            label = self._span_labels[nbytes] = f"{nbytes:g}B"
        return label

    def ingress(self, slot: int, nbytes: float, ref: str = "") -> Event:
        """Bring ``nbytes`` from the NoC into a slot's SPM."""
        self._check_slot(slot)
        label = self._label(nbytes) if self.tracer is not None else ""
        return Route(self.sim, self._ingress_legs, nbytes, None, slot, ref, label).event

    def egress(self, slot: int, nbytes: float, ref: str = "") -> Event:
        """Send ``nbytes`` from a slot's SPM out to the NoC."""
        self._check_slot(slot)
        label = self._label(nbytes) if self.tracer is not None else ""
        return Route(self.sim, self._egress_legs, nbytes, slot, None, ref, label).event

    def chain_local(
        self, src_slot: int, dst_slot: int, nbytes: float, ref: str = ""
    ) -> Event:
        """Move chained data between two slots on this island."""
        self._check_slot(src_slot)
        self._check_slot(dst_slot)
        label = self._label(nbytes) if self.tracer is not None else ""
        return Route(
            self.sim, self._chain_legs, nbytes, src_slot, dst_slot, ref, label
        ).event

    def compute(self, slot: int, invocations: int) -> Event:
        """Run ``invocations`` through an allocated slot's ABB pipeline."""
        self._check_slot(slot)
        if self._owner[slot] is None or self._computing[slot]:
            state = "computing" if self._computing[slot] else "unowned"
            raise SimulationError(
                f"island {self.island_id}: slot {slot} computed while {state}"
            )
        self._computing[slot] = True
        abb_type = self.abbs[slot]
        cycles = abb_type.compute_cycles(invocations)
        cycles *= 1.0 + self.spm_groups[slot].conflict_penalty()
        self.energy.charge("abb", abb_type.dynamic_energy_nj(invocations))
        return self.sim.delay(cycles, invocations)

    # ------------------------------------------------------------ physicals
    def area_breakdown_mm2(self) -> dict[str, float]:
        """Area of every island component (Section 5.7 accounting)."""
        abb_area = sum(abb_type.area_mm2 for abb_type in self.abbs)
        spm_area = sum(group.area_mm2 for group in self.spm_groups)
        sharing_factor = 3 if self.config.spm_sharing else 1
        abb_spm_xbar = sum(
            crossbar_area_mm2(
                1,
                sharing_factor * group.banks,
                self.config.abb_spm_width_bytes,
            )
            for group in self.spm_groups
        )
        return {
            "abbs": abb_area,
            "spm": spm_area,
            "abb_spm_crossbar": abb_spm_xbar,
            "spm_dma_network": self.network.area_mm2,
            "dma": DMA_ENGINE_AREA_MM2,
            "noc_interface": NOC_INTERFACE_AREA_MM2,
        }

    @property
    def area_mm2(self) -> float:
        """Total island area."""
        return sum(self.area_breakdown_mm2().values())

    @property
    def static_power_mw(self) -> float:
        """Total island leakage: ABBs + SPM + networks + fixed blocks."""
        abb_static = sum(abb_type.static_power_mw for abb_type in self.abbs)
        spm_static = sum(group.static_power_mw for group in self.spm_groups)
        breakdown = self.area_breakdown_mm2()
        fixed_area = (
            breakdown["abb_spm_crossbar"] + breakdown["dma"] + breakdown["noc_interface"]
        )
        return (
            abb_static
            + spm_static
            + self.network.static_power_mw
            + STATIC_MW_PER_MM2 * fixed_area
        )

    def average_abb_utilization(self, elapsed: float) -> float:
        """Time-weighted average fraction of busy ABBs."""
        return self.abb_tracker.average_utilization(elapsed)

    def peak_abb_utilization(self) -> float:
        """Peak fraction of simultaneously busy ABBs."""
        return self.abb_tracker.peak_utilization
