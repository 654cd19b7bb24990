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

Each design hands its owner the legs of one movement
(:meth:`SpmDmaNetwork.legs`, see :mod:`repro.engine.route`), which the
island splices into its ingress, egress and chaining legs.  Dynamic
energy is charged to the island's
:class:`~repro.power.aggregate.EnergyAccount` under ``"island_net"``
when a movement starts.
"""

from __future__ import annotations

import abc
import functools
import math
import typing

from repro.engine import BandwidthServer, Route, Simulator
from repro.engine.route import CALL, SERVE, WAIT, Leg, leg
from repro.errors import ConfigError
from repro.island.config import NetworkKind, SpmDmaNetworkConfig
from repro.power.aggregate import EnergyAccount
from repro.power.orion import (
    LinkModel,
    RouterModel,
    crossbar_area_mm2,
    crossbar_pj_per_byte,
    crossbar_static_power_mw,
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


class _Port:
    """A crossbar port's ``CALL``: charge the traversal's energy, then
    reserve the port.  A network's cached legs hold this, not the
    network."""

    __slots__ = ("server", "energy", "pj_per_byte")

    def __init__(
        self, server: BandwidthServer, energy: EnergyAccount, pj_per_byte: float
    ) -> None:
        self.server = server
        self.energy = energy
        self.pj_per_byte = pj_per_byte

    def traverse(self, route: Route) -> float:
        nbytes = route.nbytes
        self.energy.charge("island_net", self.pj_per_byte * nbytes * 1e-3)
        return self.server.reserve(nbytes)


class SpmDmaNetwork(abc.ABC):
    """Common interface of the island-internal SPM<->DMA network.

    ``span`` — ``(tracer, actor, kind, label)`` or ``None`` — is the
    owner's trace of the network: each movement records it once.
    """

    def __init__(
        self,
        sim: Simulator,
        slot_banks: typing.Sequence[int],
        config: SpmDmaNetworkConfig,
        energy: EnergyAccount,
        span: typing.Optional[tuple] = None,
    ) -> None:
        if not slot_banks:
            raise ConfigError("network needs at least one ABB slot")
        self.sim = sim
        self.slot_banks = list(slot_banks)
        self.n_slots = len(slot_banks)
        self.total_banks = sum(slot_banks)
        self.config = config
        self.energy = energy
        self.span = span

    # ------------------------------------------------------------ transfers
    def legs(
        self, src: typing.Optional[int], dst: typing.Optional[int]
    ) -> tuple[Leg, ...]:
        """The legs moving a transfer from ``src`` to ``dst``.

        Endpoints are slot indices, ``None`` standing for the DMA
        engine.  The last leg records :attr:`span`; there is no final
        :data:`~repro.engine.route.END`, since the owner splices the
        legs into its own route.  Movements of one shape (a crossbar's
        DMA or chaining traversal, a ring's hop count) share one tuple,
        built once.
        """
        if src is None and dst is None:
            raise ConfigError("a network movement needs an SPM endpoint")
        for slot in (src, dst):
            if slot is not None and not 0 <= slot < self.n_slots:
                raise ConfigError(
                    f"slot {slot} out of range (0..{self.n_slots - 1})"
                )
        return self._path(src, dst)

    @abc.abstractmethod
    def _path(
        self, src: typing.Optional[int], dst: typing.Optional[int]
    ) -> tuple[Leg, ...]:
        """The shared legs of one movement (endpoints already checked)."""

    def _spanned(self, *legs: Leg) -> tuple[Leg, ...]:
        """``legs`` with :attr:`span` on the last one."""
        op, arg, _span, charge, fault = legs[-1]
        return legs[:-1] + (leg(op, arg, self.span, charge, fault),)

    # ------------------------------------------------------------ physicals
    @property
    @abc.abstractmethod
    def area_mm2(self) -> float:
        """Silicon area of the network."""

    @property
    @abc.abstractmethod
    def static_power_mw(self) -> float:
        """Leakage power of the network."""


class ProxyCrossbarNetwork(SpmDmaNetwork):
    """Crossbar from the DMA engine to every SPM bank (the baseline).

    Chaining is store-and-forward through the DMA engine, so each chained
    stream traverses the crossbar twice *and* occupies the DMA engine
    (set via :meth:`attach_dma`), competing with memory ingress/egress.
    """

    def __init__(self, sim, slot_banks, config, energy, span=None) -> None:
        super().__init__(sim, slot_banks, config, energy, span)
        self._port = BandwidthServer(
            sim,
            bytes_per_cycle=float(config.link_width_bytes),
            latency=CROSSBAR_TRAVERSAL_LATENCY,
            name="proxy_xbar_dma_port",
        )
        self._dma: typing.Optional[BandwidthServer] = None
        port = _Port(self._port, energy, crossbar_pj_per_byte(self.total_banks))
        self._traverse_leg = leg(CALL, port.traverse)
        self._one = self._spanned(self._traverse_leg)
        self._chain = self._spanned(self._traverse_leg, self._traverse_leg)

    def attach_dma(self, dma: BandwidthServer) -> None:
        """Couple the island's DMA engine into the chaining path."""
        self._dma = dma
        traverse = self._traverse_leg
        self._chain = self._spanned(traverse, leg(SERVE, dma), traverse)

    def _path(self, src, dst):
        """One traversal to or from the DMA; chaining proxies through
        the DMA: traverse, store-and-forward through the DMA engine (when
        attached), traverse again."""
        return self._one if src is None or dst is None else self._chain

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

    def __init__(self, sim, slot_banks, config, energy, span=None) -> None:
        super().__init__(sim, slot_banks, config, energy, span)
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
        pj_per_byte = crossbar_pj_per_byte(self.total_banks + 1)
        dma_port = _Port(self._dma_port, energy, pj_per_byte)
        chain_paths = _Port(self._chain_paths, energy, pj_per_byte)
        self._dma_legs = self._spanned(leg(CALL, dma_port.traverse))
        self._chain_legs = self._spanned(leg(CALL, chain_paths.traverse))

    def _path(self, src, dst):
        """One traversal of the DMA port, or a direct SPM -> SPM
        transfer over the parallel chaining paths."""
        return self._dma_legs if src is None or dst is None else self._chain_legs

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

    def __init__(self, sim, slot_banks, config, energy, span=None) -> None:
        super().__init__(sim, slot_banks, config, energy, span)
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
        self._by_hops: list[typing.Optional[tuple[Leg, ...]]] = [None] * self.n_nodes

    # -------------------------------------------------------------- routing
    def hops(self, src_node: int, dst_node: int) -> int:
        """Link count from ``src_node`` to ``dst_node`` (unidirectional)."""
        if src_node == dst_node:
            return 0
        return (dst_node - src_node) % self.n_nodes

    def _path(self, src, dst):
        """One traversal, built once per hop count: fluid capacity
        occupancy scaled by ``hops / N``, then the hop latency.  A
        zero-hop move is done now, one zero-cycle wait."""
        hops = self.hops(
            0 if src is None else src + 1, 0 if dst is None else dst + 1
        )
        legs = self._by_hops[hops]
        if legs is None:
            if hops == 0:
                legs = self._spanned(leg(WAIT, 0.0))
            else:
                occupy = functools.partial(
                    _occupy,
                    self._capacity,
                    self.energy,
                    self._router,
                    self._link,
                    self.n_nodes,
                    hops,
                )
                legs = self._spanned(
                    leg(CALL, occupy), leg(WAIT, RING_HOP_LATENCY * hops)
                )
            self._by_hops[hops] = legs
        return legs

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


def _occupy(
    capacity: BandwidthServer,
    energy: EnergyAccount,
    router: RouterModel,
    link: LinkModel,
    n_nodes: int,
    hops: int,
    route: Route,
) -> float:
    """The ``CALL`` of a ``hops``-link ring movement: charge the hops'
    energy, then occupy ``hops / n_nodes`` of the ring capacity."""
    nbytes = route.nbytes
    energy.charge(
        "island_net",
        hops * (router.hop_energy_nj(nbytes) + link.transfer_energy_nj(nbytes)),
    )
    return capacity.reserve(nbytes * hops / n_nodes)


def build_network(
    sim: Simulator,
    slot_banks: typing.Sequence[int],
    config: SpmDmaNetworkConfig,
    energy: EnergyAccount,
    span: typing.Optional[tuple] = None,
) -> SpmDmaNetwork:
    """Instantiate the configured SPM<->DMA network."""
    if config.kind is NetworkKind.PROXY_CROSSBAR:
        return ProxyCrossbarNetwork(sim, slot_banks, config, energy, span)
    if config.kind is NetworkKind.CHAINING_CROSSBAR:
        return ChainingCrossbarNetwork(sim, slot_banks, config, energy, span)
    if config.kind is NetworkKind.RING:
        return RingNetwork(sim, slot_banks, config, energy, span)
    raise ConfigError(f"unknown network kind {config.kind!r}")
