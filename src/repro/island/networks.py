"""The three SPM<->DMA network designs evaluated in the paper.

* :class:`ProxyCrossbarNetwork` — a crossbar connecting the DMA engine to
  every SPM bank.  Chaining data must pass SPM -> DMA -> SPM (two
  traversals of the single DMA port), which is why the paper calls it the
  *proxy* design and why it collapses under heavy chaining.
* :class:`ChainingCrossbarNetwork` — a full crossbar connecting all SPM
  banks to each other and to the DMA.  Chaining is a single direct
  traversal, but the port-product area is quadratic in island size
  (Section 5.2: >99 % of a 40-ABB island).
* :class:`RingNetwork` — 1-3 unidirectional rings of 16/32-byte links with
  a ring stop per ABB slot plus one for the DMA (Figure 5).  Bandwidth is
  modeled fluidly: a transfer spanning ``h`` of the ring's ``L`` links
  consumes ``h/L`` of the aggregate ring capacity, which captures the
  spatial reuse that makes rings scale where the proxy crossbar does not.

Each movement returns its completion time when it is known at issue (one
reserved channel), or the event of a nested :class:`~repro.engine.Route`;
dynamic energy is charged to the island's
:class:`~repro.power.aggregate.EnergyAccount` under ``"island_net"``.
"""

from __future__ import annotations

import abc
import math
import typing

from repro.engine import BandwidthServer, Event, Route, Simulator
from repro.engine.route import CALL, DONE, SERVE, WAIT, leg
from repro.errors import ConfigError
from repro.island.config import NetworkKind, SpmDmaNetworkConfig
from repro.power.aggregate import EnergyAccount
from repro.power.orion import (
    LinkModel,
    RouterModel,
    crossbar_area_mm2,
    crossbar_static_power_mw,
    crossbar_traversal_energy_nj,
)

#: Fixed latency of one crossbar traversal (arbitration + wires), cycles.
CROSSBAR_TRAVERSAL_LATENCY = 2.0

#: Per-hop latency of a ring stop, cycles.
RING_HOP_LATENCY = 1.0

#: Concurrent chaining connections supported by the chaining-optimized
#: crossbar (its point: parallel direct SPM->SPM paths).
CHAINING_XBAR_PARALLEL_PATHS = 4

#: Estimated island floorplan area per ABB slot used to derive ring link
#: lengths (the paper estimates link lengths from island size), mm^2.
FLOORPLAN_MM2_PER_SLOT = 0.6


class SpmDmaNetwork(abc.ABC):
    """Common interface of the island-internal SPM<->DMA network."""

    def __init__(
        self,
        sim: Simulator,
        slot_banks: typing.Sequence[int],
        config: SpmDmaNetworkConfig,
        energy: EnergyAccount,
    ) -> None:
        if not slot_banks:
            raise ConfigError("network needs at least one ABB slot")
        self.sim = sim
        self.slot_banks = list(slot_banks)
        self.n_slots = len(slot_banks)
        self.total_banks = sum(slot_banks)
        self.config = config
        self.energy = energy

    # ------------------------------------------------------------ transfers
    # Each returns the completion time (float) or a completion event.
    @abc.abstractmethod
    def dma_to_spm(self, slot: int, nbytes: float) -> typing.Union[float, Event]:
        """Move ``nbytes`` from the DMA engine into slot's SPM group."""

    @abc.abstractmethod
    def spm_to_dma(self, slot: int, nbytes: float) -> typing.Union[float, Event]:
        """Move ``nbytes`` from slot's SPM group to the DMA engine."""

    @abc.abstractmethod
    def chain(
        self, src_slot: int, dst_slot: int, nbytes: float
    ) -> typing.Union[float, Event]:
        """Move ``nbytes`` directly between two slots' SPM groups."""

    # ------------------------------------------------------------ physicals
    @property
    @abc.abstractmethod
    def area_mm2(self) -> float:
        """Silicon area of the network."""

    @property
    @abc.abstractmethod
    def static_power_mw(self) -> float:
        """Leakage power of the network."""

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise ConfigError(f"slot {slot} out of range (0..{self.n_slots - 1})")


class ProxyCrossbarNetwork(SpmDmaNetwork):
    """Crossbar from the DMA engine to every SPM bank (the baseline).

    Chaining is store-and-forward through the DMA engine, so each chained
    stream traverses the crossbar twice *and* occupies the DMA engine
    (set via :meth:`attach_dma`), competing with memory ingress/egress.
    """

    def __init__(self, sim, slot_banks, config, energy) -> None:
        super().__init__(sim, slot_banks, config, energy)
        self._port = BandwidthServer(
            sim,
            bytes_per_cycle=float(config.link_width_bytes),
            latency=CROSSBAR_TRAVERSAL_LATENCY,
            name="proxy_xbar_dma_port",
        )
        self._dma: typing.Optional[BandwidthServer] = None
        self._traverse_leg = leg(CALL, lambda route: self._traverse(route.nbytes))
        self._chain_legs = (self._traverse_leg, self._traverse_leg, DONE)

    def attach_dma(self, dma: BandwidthServer) -> None:
        """Couple the island's DMA engine into the chaining path."""
        self._dma = dma
        self._chain_legs = (
            self._traverse_leg, leg(SERVE, dma), self._traverse_leg, DONE
        )

    def _traverse(self, nbytes: float) -> float:
        self.energy.charge(
            "island_net",
            crossbar_traversal_energy_nj(nbytes, targets=self.total_banks),
        )
        return self._port.reserve(nbytes)

    def dma_to_spm(self, slot: int, nbytes: float) -> float:
        self._check_slot(slot)
        return self._traverse(nbytes)

    def spm_to_dma(self, slot: int, nbytes: float) -> float:
        self._check_slot(slot)
        return self._traverse(nbytes)

    def chain(self, src_slot: int, dst_slot: int, nbytes: float) -> Event:
        """Chaining proxies through the DMA: traverse, store-and-forward
        through the DMA engine (when attached), traverse again."""
        self._check_slot(src_slot)
        self._check_slot(dst_slot)
        return Route(self.sim, self._chain_legs, nbytes).event

    @property
    def area_mm2(self) -> float:
        return crossbar_area_mm2(1, self.total_banks, self.config.link_width_bytes)

    @property
    def static_power_mw(self) -> float:
        return crossbar_static_power_mw(
            1, self.total_banks, self.config.link_width_bytes
        )


class ChainingCrossbarNetwork(SpmDmaNetwork):
    """Full SPM-to-SPM crossbar: direct chaining, quadratic area."""

    def __init__(self, sim, slot_banks, config, energy) -> None:
        super().__init__(sim, slot_banks, config, energy)
        width = float(config.link_width_bytes)
        # Routing through the large array costs extra cycles (Sec. 5.5).
        self._latency = 1.0 + math.ceil(math.log2(self.total_banks + 1))
        self._dma_port = BandwidthServer(
            sim,
            bytes_per_cycle=width,
            latency=self._latency,
            name="chain_xbar_dma_port",
        )
        self._chain_paths = BandwidthServer(
            sim,
            bytes_per_cycle=width * CHAINING_XBAR_PARALLEL_PATHS,
            latency=self._latency,
            name="chain_xbar_paths",
        )

    def _charge(self, nbytes: float) -> None:
        self.energy.charge(
            "island_net",
            crossbar_traversal_energy_nj(nbytes, targets=self.total_banks + 1),
        )

    def dma_to_spm(self, slot: int, nbytes: float) -> float:
        self._check_slot(slot)
        self._charge(nbytes)
        return self._dma_port.reserve(nbytes)

    def spm_to_dma(self, slot: int, nbytes: float) -> float:
        self._check_slot(slot)
        self._charge(nbytes)
        return self._dma_port.reserve(nbytes)

    def chain(self, src_slot: int, dst_slot: int, nbytes: float) -> float:
        """Direct SPM -> SPM transfer over the parallel chaining paths."""
        self._check_slot(src_slot)
        self._check_slot(dst_slot)
        self._charge(nbytes)
        return self._chain_paths.reserve(nbytes)

    @property
    def area_mm2(self) -> float:
        # All banks talk to all banks plus the DMA port.
        return crossbar_area_mm2(
            self.total_banks, self.total_banks + 1, self.config.link_width_bytes
        )

    @property
    def static_power_mw(self) -> float:
        return crossbar_static_power_mw(
            self.total_banks, self.total_banks + 1, self.config.link_width_bytes
        )


class RingNetwork(SpmDmaNetwork):
    """1-3 unidirectional rings with a stop per ABB slot plus the DMA.

    The DMA engine sits at ring position 0; ABB slot ``i`` at position
    ``i + 1``.  A transfer from position ``s`` to ``d`` crosses
    ``(d - s) mod N`` links; its occupancy of the fluid ring capacity is
    scaled by ``hops / N`` so that disjoint transfers proceed in parallel
    (spatial reuse), and its latency grows by one cycle per ring stop.
    """

    def __init__(self, sim, slot_banks, config, energy) -> None:
        super().__init__(sim, slot_banks, config, energy)
        self.n_nodes = self.n_slots + 1  # +1 for the DMA stop
        width = float(config.link_width_bytes)
        self._capacity = BandwidthServer(
            sim,
            bytes_per_cycle=width * config.rings,
            latency=0.0,
            name="ring_capacity",
        )
        self._router = RouterModel(
            width_bytes=config.link_width_bytes, rings=config.rings
        )
        perimeter = 4.0 * math.sqrt(FLOORPLAN_MM2_PER_SLOT * self.n_slots)
        self._link = LinkModel(
            width_bytes=config.link_width_bytes,
            length_mm=perimeter / self.n_nodes,
        )
        # One traversal: fluid capacity occupancy, then hop latency.
        # Legs per hop count, built on first use.
        self._occupy = leg(SERVE, self._capacity)
        self._legs: dict[int, tuple] = {}

    # -------------------------------------------------------------- routing
    def hops(self, src_node: int, dst_node: int) -> int:
        """Link count from ``src_node`` to ``dst_node`` (unidirectional)."""
        if src_node == dst_node:
            return 0
        return (dst_node - src_node) % self.n_nodes

    def _slot_node(self, slot: int) -> int:
        self._check_slot(slot)
        return slot + 1

    def _traverse(
        self, src_node: int, dst_node: int, nbytes: float
    ) -> typing.Union[float, Event]:
        """Charge energy and start one traversal; a zero-hop move is done
        now.  Occupancy of the fluid capacity scales with ``hops / N``."""
        hops = self.hops(src_node, dst_node)
        if hops == 0:
            return self.sim.now
        self.energy.charge(
            "island_net",
            hops
            * (
                self._router.hop_energy_nj(nbytes)
                + self._link.transfer_energy_nj(nbytes)
            ),
        )
        legs = self._legs.get(hops)
        if legs is None:
            legs = self._legs[hops] = (
                self._occupy, leg(WAIT, RING_HOP_LATENCY * hops), DONE
            )
        effective = nbytes * hops / self.n_nodes
        return Route(self.sim, legs, effective, value=nbytes).event

    def dma_to_spm(self, slot: int, nbytes: float) -> typing.Union[float, Event]:
        return self._traverse(0, self._slot_node(slot), nbytes)

    def spm_to_dma(self, slot: int, nbytes: float) -> typing.Union[float, Event]:
        return self._traverse(self._slot_node(slot), 0, nbytes)

    def chain(
        self, src_slot: int, dst_slot: int, nbytes: float
    ) -> typing.Union[float, Event]:
        return self._traverse(
            self._slot_node(src_slot), self._slot_node(dst_slot), nbytes
        )

    # ------------------------------------------------------------ physicals
    @property
    def area_mm2(self) -> float:
        routers = self.n_nodes * self._router.area_mm2
        links = self.n_nodes * self.config.rings * self._link.area_mm2
        return routers + links

    @property
    def static_power_mw(self) -> float:
        return (
            self.n_nodes * self._router.static_power_mw
            + self.n_nodes * self.config.rings * self._link.static_power_mw
        )


def build_network(
    sim: Simulator,
    slot_banks: typing.Sequence[int],
    config: SpmDmaNetworkConfig,
    energy: EnergyAccount,
) -> SpmDmaNetwork:
    """Instantiate the configured SPM<->DMA network."""
    if config.kind is NetworkKind.PROXY_CROSSBAR:
        return ProxyCrossbarNetwork(sim, slot_banks, config, energy)
    if config.kind is NetworkKind.CHAINING_CROSSBAR:
        return ChainingCrossbarNetwork(sim, slot_banks, config, energy)
    if config.kind is NetworkKind.RING:
        return RingNetwork(sim, slot_banks, config, energy)
    raise ConfigError(f"unknown network kind {config.kind!r}")
