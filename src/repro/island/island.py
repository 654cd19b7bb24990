"""Island assembly: ABBs + SPM groups + internal networks + NoC interface.

The island owns three data paths.  Each method returns the path's leg
tuple, the network's legs spliced in (see :mod:`repro.engine.route`),
for the system to splice into one route whose island ends are
``(island, slot)`` pairs:

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
from functools import partial

import repro.faults as faults
from repro.abb.library import ABBLibrary
from repro.abb.types import ABBType
from repro.engine import (
    BandwidthServer,
    Route,
    Simulator,
    UtilizationTracker,
)
from repro.engine.route import CALL, END, SERVE, Leg, leg
from repro.engine.trace import Tracer, size_label
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.island.config import IslandConfig
from repro.island.networks import NetworkShape, SpmDmaNetwork
from repro.island.spm import SPMGroup
from repro.power.aggregate import EnergyAccount
from repro.power.orion import STATIC_MW_PER_MM2, crossbar_area_mm2

#: Fixed area of the island's DMA engine, mm^2.
DMA_ENGINE_AREA_MM2 = 0.30

#: Fixed area of the island's NoC interface, mm^2.
NOC_INTERFACE_AREA_MM2 = 0.20

#: Latency of the island's NoC interface (buffering/serialization), cycles.
NOC_INTERFACE_LATENCY = 4.0

_INF = float("inf")


class IslandShape:
    """What an island config and an ABB library fix, read-only and shared
    by every island built from them: the slot layout (types interleaved
    in name order), each slot's SPM banks, the SPM<->DMA network's shape,
    and the physicals summed over the parts (Section 5.7 accounting).  A
    platform builds one per distinct island mix (see
    :mod:`repro.sim.platform`)."""

    __slots__ = (
        "config", "abbs", "spm", "network", "types", "slots_by_type", "slot_counts",
        "breakdown", "area_mm2", "static_power_mw",
    )

    def __init__(self, config: IslandConfig, library: ABBLibrary) -> None:
        library.validate_mix(config.abb_mix)
        self.config = config
        mix = sorted(config.abb_mix.items())
        types = [library.get(type_name) for type_name, _ in mix]
        self.abbs = tuple(
            abb_type for abb_type, (_, count) in zip(types, mix) for _ in range(count)
        )
        groups = [SPMGroup(abb_type, config.spm_porting) for abb_type in types]
        self.spm = tuple(
            group for group, (_, count) in zip(groups, mix) for _ in range(count)
        )
        self.network = NetworkShape(
            [group.banks for group in self.spm], config.network
        )
        self.types = [abb_type.name for abb_type in self.abbs]
        self.slots_by_type: dict[str, list[int]] = {}
        for index, name in enumerate(self.types):
            self.slots_by_type.setdefault(name, []).append(index)
        self.slot_counts = {name: len(s) for name, s in self.slots_by_type.items()}
        self.breakdown, self.area_mm2, self.static_power_mw = self._physicals()

    def _physicals(self) -> tuple[dict[str, float], float, float]:
        """Area breakdown, total area and leakage, summed over the parts."""
        config, network = self.config, self.network
        sharing_factor = 3 if config.spm_sharing else 1
        breakdown = {
            "abbs": sum(abb_type.area_mm2 for abb_type in self.abbs),
            "spm": sum(group.area_mm2 for group in self.spm),
            "abb_spm_crossbar": sum(
                crossbar_area_mm2(
                    1, sharing_factor * group.banks, config.abb_spm_width_bytes
                )
                for group in self.spm
            ),
            "spm_dma_network": network.area_mm2,
            "dma": DMA_ENGINE_AREA_MM2,
            "noc_interface": NOC_INTERFACE_AREA_MM2,
        }
        abb_static = sum(abb_type.static_power_mw for abb_type in self.abbs)
        spm_static = sum(group.static_power_mw for group in self.spm)
        fixed_area = (
            breakdown["abb_spm_crossbar"] + breakdown["dma"] + breakdown["noc_interface"]
        )
        static_power = (
            abb_static
            + spm_static
            + network.static_power_mw
            + STATIC_MW_PER_MM2 * fixed_area
        )
        return breakdown, sum(breakdown.values()), static_power


class SpmEnd:
    """The SPM end of an island's routes: a read or write counts the
    slot's bytes (the route names the slot) and charges its banks'
    access energy to the energy account."""

    __slots__ = ("groups", "energy", "bytes_read", "bytes_written")

    def __init__(self, groups: tuple[SPMGroup, ...], energy: EnergyAccount) -> None:
        self.groups = groups
        self.energy = energy
        #: Bytes read from and written to each slot's banks.
        self.bytes_read = [0.0] * len(groups)
        self.bytes_written = [0.0] * len(groups)

    def read(self, route: Route) -> None:
        """A route's SPM read: a leg ending as it starts."""
        slot = route.src[1]
        nbytes = route.nbytes
        self.bytes_read[slot] += nbytes
        self.energy.charge("spm", self.groups[slot].model.access_energy_nj(nbytes))

    def write(self, route: Route) -> None:
        """A route's SPM write: the charge of its ``END``."""
        slot = route.dst[1]
        nbytes = route.nbytes
        self.bytes_written[slot] += nbytes
        self.energy.charge("spm", self.groups[slot].model.access_energy_nj(nbytes))


class Island:
    """One ABB island instance inside a simulated system.

    ``shape`` is what the island's config and ABB library fix; the
    island itself allocates only per-run state: servers, network legs,
    its SPM end's byte counters, occupancy and the utilization tracker.
    """

    def __init__(
        self,
        sim: Simulator,
        island_id: int,
        shape: IslandShape,
        energy: typing.Optional[EnergyAccount] = None,
        fault_injector: typing.Optional["faults.FaultInjector"] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.island_id = island_id
        self.config = config = shape.config
        self.shape = shape
        self.energy = energy if energy is not None else EnergyAccount()
        self.tracer = tracer

        # Slots: one ABB per slot, laid out in a fixed physical order
        # (types interleaved in name order); the shape holds their SPM.
        self.abbs: list[ABBType] = list(shape.abbs)
        n_slots = len(self.abbs)

        # Traced islands record one span per data-path leg; the network
        # records one span per movement.
        def span(suffix: str, kind: str):
            if tracer is None:
                return None
            return (tracer, f"island{island_id}.{suffix}", kind, size_label)

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
        # engine, so chaining competes with memory traffic.
        self.network = SpmDmaNetwork(
            sim, shape.network, self.dma, self.energy, span("net", "spm_net")
        )
        self.area_mm2 = shape.area_mm2
        self.static_power_mw = shape.static_power_mw

        # Sharing lockout bookkeeping (Sec. 5.1): count of neighbours that
        # currently borrow this slot's banks.
        self._neighbor_locks = [0] * n_slots
        # Fault state: a failed slot is permanently out of service for
        # *new* allocations; an in-flight task drains and releases
        # normally (fail-stop after drain).
        self.fault_injector = fault_injector
        self._failed = [False] * n_slots
        # Occupancy: each slot's owner (the grant that holds it, compared
        # by identity) and whether its task has started computing.
        self._owner: list[object] = [None] * n_slots
        self._computing = [False] * n_slots
        # Allocation state, kept by allocate, release and fail_slot
        # instead of recounted per query (the ABC reads it on every
        # request): the per-type slot lists and slot type names come
        # with the shape (shared, read-only); a usable flag per slot; the
        # busy count.
        self._slots_by_type = shape.slots_by_type
        self._types = shape.types
        self._usable = [True] * n_slots
        #: Usable slots per ABB type (see :meth:`slot_usable`); maintained,
        #: read-only for callers.
        self.usable_counts: dict[str, int] = dict(shape.slot_counts)
        self._slot_count = n_slots
        self._busy_slots = 0
        self.abb_tracker = UtilizationTracker(
            capacity=n_slots, name=f"island{island_id}.abbs"
        )
        # Data-path legs around the network's, shared by every path (the
        # SPM charges read the slot from the route).  The DMA fault model
        # is the DMA leg's fault hook.  The legs hold the parts they use,
        # never the island, which caches them.
        dma_fault = None
        if fault_injector is not None and fault_injector.spec.dma_faults_enabled:
            dma_fault = partial(fault_injector.dma_fault, island_id)
        dma = leg(SERVE, self.dma, span("dma", "dma"), fault=dma_fault)
        noc_in = leg(SERVE, self.noc_in, span("noc_in", "noc_if"))
        noc_out = leg(SERVE, self.noc_out, span("noc_out", "noc_if"))
        spm = self.spm = SpmEnd(shape.spm, self.energy)
        self._ingress_head = (noc_in, dma)
        self._read_head = (leg(CALL, spm.read),)
        self._egress_tail = (dma, noc_out)
        self._write_end = (leg(END, charge=spm.write),)

    # -------------------------------------------------------------- queries
    @property
    def n_slots(self) -> int:
        """Number of ABB slots on the island."""
        return len(self.abbs)

    def slots_of_type(self, type_name: str) -> list[int]:
        """Slot indices whose ABB is of ``type_name``.

        The layout is fixed by the island's shape, so this returns the
        list every island of that shape shares — callers must not
        mutate it.
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

    def held_slots(self) -> list[int]:
        """Slots a grant still owns or that are still computing (a
        drained run leaves none)."""
        computing = self._computing
        return [
            slot
            for slot, owner in enumerate(self._owner)
            if owner is not None or computing[slot]
        ]

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
        if not 0 <= slot < self._slot_count:
            raise ConfigError(f"slot {slot} out of range")

    # ------------------------------------------------------------ data path
    def ingress(self, slot: int, nbytes: float) -> tuple[Leg, ...]:
        """The legs bringing ``nbytes`` from the NoC into a slot's SPM."""
        self._check_size(nbytes)
        return self._ingress_head + self.network.legs(None, slot) + self._write_end

    def egress(self, slot: int, nbytes: float) -> tuple[Leg, ...]:
        """The legs sending ``nbytes`` from a slot's SPM out to the NoC.

        They end at the NoC interface with no final
        :data:`~repro.engine.route.END`: the route goes on.
        """
        self._check_size(nbytes)
        return self._read_head + self.network.legs(slot, None) + self._egress_tail

    def chain_local(
        self, src_slot: int, dst_slot: int, nbytes: float
    ) -> tuple[Leg, ...]:
        """The legs moving chained data between two slots on this island."""
        self._check_size(nbytes)
        legs = self.network.legs(src_slot, dst_slot)
        return self._read_head + legs + self._write_end

    @staticmethod
    def _check_size(nbytes: float) -> None:
        if not (0.0 <= nbytes < _INF):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )

    def compute(self, slot: int, invocations: int) -> float:
        """Run ``invocations`` through an allocated slot's ABB pipeline;
        returns the time it finishes (the caller schedules its wake-up,
        as with :meth:`repro.mem.MemorySystem.access_fast`)."""
        self._check_slot(slot)
        if self._owner[slot] is None or self._computing[slot]:
            state = "computing" if self._computing[slot] else "unowned"
            raise SimulationError(
                f"island {self.island_id}: slot {slot} computed while {state}"
            )
        self._computing[slot] = True
        abb_type = self.abbs[slot]
        cycles = abb_type.compute_cycles(invocations)
        cycles *= 1.0 + self.shape.spm[slot].conflict_penalty
        self.energy.charge("abb", abb_type.dynamic_energy_nj(invocations))
        return self.sim.now + cycles

    # ------------------------------------------------------------ physicals
    #: Total island area, mm^2, and leakage, mW (ABBs + SPM + networks +
    #: fixed blocks): attributes set from the shape's physicals.
    area_mm2: float
    static_power_mw: float

    def area_breakdown_mm2(self) -> dict[str, float]:
        """Area of every island component (Section 5.7 accounting)."""
        return dict(self.shape.breakdown)

    def average_abb_utilization(self, elapsed: float) -> float:
        """Time-weighted average fraction of busy ABBs."""
        return self.abb_tracker.average_utilization(elapsed)

    def peak_abb_utilization(self) -> float:
        """Peak fraction of simultaneously busy ABBs."""
        return self.abb_tracker.peak_utilization
