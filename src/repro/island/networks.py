"""The three SPM<->DMA network designs evaluated in the paper.

* proxy crossbar — a crossbar connecting the DMA engine to every SPM
  bank.  Chaining data must pass SPM -> DMA -> SPM (two traversals of
  the single DMA port), which is why the paper calls it the *proxy*
  design and why it collapses under heavy chaining.
* chaining-optimized crossbar — a full crossbar connecting all SPM banks
  to each other and to the DMA.  Chaining is a single direct traversal,
  but the port-product area is quadratic in island size (Section 5.2:
  >99 % of a 40-ABB island).
* ring — 1-3 unidirectional rings of 16/32-byte links with a ring stop
  per ABB slot plus one for the DMA (Figure 5).  Bandwidth is modeled
  fluidly: a transfer spanning ``h`` of the ring's ``L`` links consumes
  ``h/L`` of the aggregate ring capacity, which captures the spatial
  reuse that makes rings scale where the proxy crossbar does not.

What the slots' bank counts and the :class:`SpmDmaNetworkConfig` fix —
area, leakage, a crossbar's pJ/byte and latency, a ring's router, link
and node count — is a :class:`NetworkShape`, closed-form and held by the
island's shape.  A run's :class:`SpmDmaNetwork` adds only its servers
and the legs of each movement (:meth:`SpmDmaNetwork.legs`, see
:mod:`repro.engine.route`), which the island splices into its ingress,
egress and chaining legs.  Dynamic energy is charged to the island's
:class:`~repro.power.aggregate.EnergyAccount` under ``"island_net"``
when a movement starts.
"""

from __future__ import annotations

import math
import typing
from functools import partial

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


class NetworkShape:
    """What a network config and the slots' bank counts fix, read-only
    and shared by every island of one shape.

    ``n_nodes`` counts the ring stops (one per slot plus the DMA's);
    ``latency`` and ``pj_per_byte`` are a crossbar's per traversal (a
    ring's latency is per hop, :data:`RING_HOP_LATENCY`), ``router`` and
    ``link`` a ring's models.
    """

    __slots__ = (
        "config", "n_slots", "n_nodes", "latency", "pj_per_byte", "router", "link",
        "area_mm2", "static_power_mw",
    )

    def __init__(
        self, slot_banks: typing.Sequence[int], config: SpmDmaNetworkConfig
    ) -> None:
        if not slot_banks:
            raise ConfigError("network needs at least one ABB slot")
        self.config = config
        self.n_slots = len(slot_banks)
        self.n_nodes = self.n_slots + 1  # +1 for the DMA stop
        total_banks = sum(slot_banks)
        width = config.link_width_bytes
        self.router = self.link = None
        if config.kind is NetworkKind.RING:
            self.latency, self.pj_per_byte = 0.0, 0.0
            router = self.router = RouterModel(width_bytes=width, rings=config.rings)
            perimeter = 4.0 * math.sqrt(FLOORPLAN_MM2_PER_SLOT * self.n_slots)
            link = self.link = LinkModel(
                width_bytes=width, length_mm=perimeter / self.n_nodes
            )
            n, rings = self.n_nodes, config.rings
            self.area_mm2 = n * router.area_mm2 + n * rings * link.area_mm2
            self.static_power_mw = (
                n * router.static_power_mw + n * rings * link.static_power_mw
            )
            return
        if config.kind is NetworkKind.PROXY_CROSSBAR:
            self.latency = CROSSBAR_TRAVERSAL_LATENCY
            ports = (1, total_banks)
        else:  # all banks talk to all banks plus the DMA port
            # Routing through the large array costs extra cycles (Sec. 5.5).
            self.latency = 1.0 + math.ceil(math.log2(total_banks + 1))
            ports = (total_banks, total_banks + 1)
        self.pj_per_byte = crossbar_pj_per_byte(ports[1])
        self.area_mm2 = crossbar_area_mm2(*ports, width)
        self.static_power_mw = crossbar_static_power_mw(*ports, width)

    def hops(self, src_node: int, dst_node: int) -> int:
        """Ring links from ``src_node`` to ``dst_node`` (unidirectional;
        the DMA engine is node 0, slot ``i`` node ``i + 1``)."""
        return (dst_node - src_node) % self.n_nodes


class SpmDmaNetwork:
    """One run's SPM<->DMA network: the servers of a :class:`NetworkShape`
    and the legs of each movement.

    ``port`` carries every DMA movement: a crossbar's DMA port, or the
    rings' fluid capacity.  The chaining crossbar chains over ``paths``,
    its parallel direct SPM->SPM paths; the proxy crossbar chains
    store-and-forward through the island's ``dma`` engine, so chaining
    competes with memory ingress and egress.  ``span`` — ``(tracer,
    actor, kind, label)`` or ``None`` — is the owner's trace of the
    network: each movement records it once (a zero-hop ring move, which
    has no legs, records nothing).
    """

    __slots__ = (
        "shape", "port", "paths", "span", "_energy", "_dma_legs", "_chain_legs",
        "_by_hops",
    )

    def __init__(
        self,
        sim: Simulator,
        shape: NetworkShape,
        dma: BandwidthServer,
        energy: EnergyAccount,
        span: typing.Optional[tuple] = None,
    ) -> None:
        config = shape.config
        width = float(config.link_width_bytes)
        self.shape = shape
        self.span = span
        self._energy = energy
        self.paths = None
        self._by_hops: typing.Optional[list] = None
        port = self.port = BandwidthServer(
            sim, width * config.rings, shape.latency, config.kind.value
        )
        if config.kind is NetworkKind.RING:
            self._by_hops = [None] * shape.n_nodes
            return
        traverse = leg(CALL, partial(_traverse, port, energy, shape.pj_per_byte))
        if config.kind is NetworkKind.PROXY_CROSSBAR:
            chain = (traverse, leg(SERVE, dma), traverse)
        else:
            paths = self.paths = BandwidthServer(
                sim,
                width * CHAINING_XBAR_PARALLEL_PATHS,
                shape.latency,
                "chaining_crossbar_paths",
            )
            chain = (leg(CALL, partial(_traverse, paths, energy, shape.pj_per_byte)),)
        self._dma_legs = self._spanned((traverse,))
        self._chain_legs = self._spanned(chain)

    def legs(
        self, src: typing.Optional[int], dst: typing.Optional[int]
    ) -> tuple[Leg, ...]:
        """The legs moving a transfer from ``src`` to ``dst``.

        Endpoints are slot indices, ``None`` standing for the DMA
        engine.  The last leg records :attr:`span`; there is no final
        :data:`~repro.engine.route.END`, since the owner splices the
        legs into its own route.  Movements of one shape (a crossbar's
        DMA or chaining traversal, a ring's hop count) share one tuple,
        built once; a zero-hop ring move has none.
        """
        if src is None and dst is None:
            raise ConfigError("a network movement needs an SPM endpoint")
        n_slots = self.shape.n_slots
        for slot in (src, dst):
            if slot is not None and not 0 <= slot < n_slots:
                raise ConfigError(f"slot {slot} out of range (0..{n_slots - 1})")
        by_hops = self._by_hops
        if by_hops is None:
            return self._dma_legs if src is None or dst is None else self._chain_legs
        # A ring traversal: fluid capacity occupancy scaled by
        # ``hops / N``, then the hop latency.  A zero-hop move has no legs.
        shape = self.shape
        hops = shape.hops(0 if src is None else src + 1, 0 if dst is None else dst + 1)
        if not hops:
            return ()
        legs = by_hops[hops]
        if legs is None:
            occupy = partial(
                _occupy, self.port, self._energy, shape.router, shape.link,
                shape.n_nodes, hops,
            )
            legs = by_hops[hops] = self._spanned(
                (leg(CALL, occupy), leg(WAIT, RING_HOP_LATENCY * hops))
            )
        return legs

    def _spanned(self, legs: tuple[Leg, ...]) -> tuple[Leg, ...]:
        """``legs`` with :attr:`span` on the last one."""
        op, arg, _span, charge, fault = legs[-1]
        return legs[:-1] + (leg(op, arg, self.span, charge, fault),)


def _traverse(
    server: BandwidthServer, energy: EnergyAccount, pj_per_byte: float, route: Route
) -> float:
    """The ``CALL`` of a crossbar traversal: charge its energy, then
    reserve the port.  A network's cached legs hold this, not the
    network."""
    nbytes = route.nbytes
    energy.charge("island_net", pj_per_byte * nbytes * 1e-3)
    return server.reserve(nbytes)


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
