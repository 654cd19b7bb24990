"""The mesh NoC timing model.

Each directed link between adjacent mesh stops is a bandwidth server.  A
transfer follows dimension-ordered (XY) routing, occupies every link on
its path, and pays one router-pipeline latency per hop.  Wormhole
pipelining is approximated by completing when the *slowest* link on the
path has drained the payload — links are charged in parallel, so a
congested link delays the message but uncongested links do not serialize
behind each other.
"""

from __future__ import annotations

import functools
import math
import typing
from operator import attrgetter

from repro.engine import BandwidthServer, Route, Simulator
from repro.engine.route import CALL, Leg, leg
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.noc.topology import MeshTopology, Node
from repro.power.aggregate import EnergyAccount

#: Router pipeline latency per hop, cycles.
ROUTER_LATENCY = 2.0

#: Default mesh link bandwidth, bytes/cycle.
DEFAULT_LINK_BYTES_PER_CYCLE = 16.0

#: NoC dynamic energy, pJ per byte per hop (router + link).
NOC_ENERGY_PJ_PER_BYTE_HOP = 1.1

#: Header/flow-control overhead per packet when segmentation is on.
PACKET_HEADER_BYTES = 8.0

_INF = float("inf")


class MeshNoC:
    """A 2D mesh with XY routing and per-link contention.

    By default transfers are fluid (one message occupies its path until
    its payload drains).  Passing ``segment_bytes`` segments messages
    into packets of that size — the paper's traffic moves at cache-block
    (64-byte) or half-block (32-byte) granularity — each paying a header
    overhead, which exposes the Section 5.3 effect that narrow channels
    waste width on packetization.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        link_bytes_per_cycle: float = DEFAULT_LINK_BYTES_PER_CYCLE,
        energy: typing.Optional[EnergyAccount] = None,
        segment_bytes: typing.Optional[float] = None,
        fault_injector: typing.Optional[typing.Any] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        if link_bytes_per_cycle <= 0:
            raise ConfigError("mesh link bandwidth must be positive")
        if segment_bytes is not None and segment_bytes <= PACKET_HEADER_BYTES:
            raise ConfigError(
                f"segment size must exceed the {PACKET_HEADER_BYTES}-byte header"
            )
        self.sim = sim
        self.topology = topology
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.energy = energy if energy is not None else EnergyAccount()
        self.segment_bytes = segment_bytes
        # Fault injection: a deterministic subset of links pays a
        # multiplied per-hop router latency (see repro.faults).
        self.fault_injector = fault_injector
        self.tracer = tracer
        self._links: dict[tuple[tuple[int, int], tuple[int, int]], BandwidthServer] = {}
        # Crossing legs by (src x, src y, dst x, dst y); they call into
        # the traffic record, not the NoC.
        self._crossings: dict[tuple[int, int, int, int], Leg] = {}
        self._traffic = _Traffic(
            self.energy,
            segment_bytes,
            fault_injector.stats if fault_injector is not None else None,
        )

    #: Crossings (zero-byte and zero-hop ones too), packets (segmented
    #: NoCs only) and wire bytes times hops so far.
    total_transfers = property(attrgetter("_traffic.transfers"))
    total_packets = property(attrgetter("_traffic.packets"))
    total_byte_hops = property(attrgetter("_traffic.byte_hops"))

    # ---------------------------------------------------------------- links
    @staticmethod
    def route(src: Node, dst: Node) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """XY route: walk X first, then Y.  Returns the directed link list."""
        return [link for link, _name in _xy_path(src.x, src.y, dst.x, dst.y)]

    # ------------------------------------------------------------ transfers
    def transfer(self, src: Node, dst: Node, nbytes: float) -> Leg:
        """The one leg of a crossing of ``nbytes`` from ``src`` to ``dst``.

        It reserves every link on the XY path at issue; arrival is when
        the slowest link has drained the payload, plus the router
        pipeline.  A zero-byte or zero-hop crossing arrives as it is
        issued, with no heap entry and no span.  The leg is built once
        per pair of stops; the caller splices it into its route.
        """
        if not (0.0 <= nbytes < _INF):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )
        key = (src.x, src.y, dst.x, dst.y)
        crossing = self._crossings.get(key)
        if crossing is None:
            crossing = self._crossings[key] = self._crossing(src, dst)
        return crossing

    def _crossing(self, src: Node, dst: Node) -> Leg:
        path = _xy_path(src.x, src.y, dst.x, dst.y)
        span = None
        if self.tracer is not None and path:
            hops = len(path)
            span = (
                self.tracer,
                f"mesh.{src.x},{src.y}->{dst.x},{dst.y}",
                "noc",
                lambda nbytes: f"{nbytes:g}B/{hops}h",
            )
        # Each link's server is made on the first crossing that uses it.
        servers = []
        for link, name in path:
            server = self._links.get(link)
            if server is None:
                server = self._links[link] = BandwidthServer(
                    self.sim,
                    bytes_per_cycle=self.link_bytes_per_cycle,
                    latency=0.0,
                    name=name,
                )
            servers.append(server)
        links = tuple(servers)
        router_cycles = ROUTER_LATENCY * len(path)
        injector = self.fault_injector
        degraded_hops = 0
        if injector is not None and injector.spec.noc_degrade_fraction > 0.0:
            degraded_hops = sum(
                1 for link, _name in path if injector.link_degraded(*link)
            )
        if degraded_hops:
            factor = injector.spec.noc_degrade_factor
            router_cycles += ROUTER_LATENCY * (factor - 1.0) * degraded_hops
        cross = functools.partial(
            self._traffic.cross, links, router_cycles, degraded_hops
        )
        return leg(CALL, cross, span)

    # ------------------------------------------------------------- metrics
    def max_link_utilization(self, elapsed: float) -> float:
        """Busy fraction of the most loaded link (the hotspot)."""
        if not self._links:
            return 0.0
        return max(link.utilization(elapsed) for link in self._links.values())


class _Traffic:
    """What a crossing's ``CALL`` touches: the NoC's traffic counters,
    its energy account, its packet size and the fault counters."""

    __slots__ = (
        "energy", "segment_bytes", "fault_stats", "transfers", "packets", "byte_hops"
    )

    def __init__(
        self,
        energy: EnergyAccount,
        segment_bytes: typing.Optional[float],
        fault_stats: typing.Any,
    ) -> None:
        self.energy = energy
        self.segment_bytes = segment_bytes
        self.fault_stats = fault_stats
        self.transfers = 0
        self.packets = 0
        self.byte_hops = 0.0

    def cross(
        self, links: tuple, router_cycles: float, degraded_hops: int, route: Route
    ) -> typing.Optional[float]:
        """The ``CALL`` function of a crossing over ``links``."""
        self.transfers += 1
        nbytes = route.nbytes
        hops = len(links)
        if nbytes == 0 or not hops:
            # Nothing crosses a link.  The zero charge still enters
            # "noc" in the energy breakdown, as any transfer does.
            self.energy.charge("noc", 0.0)
            return None
        wire_bytes = nbytes
        if self.segment_bytes is not None:
            payload = self.segment_bytes - PACKET_HEADER_BYTES
            packets = math.ceil(nbytes / payload)
            wire_bytes = nbytes + packets * PACKET_HEADER_BYTES
            self.packets += packets
        self.byte_hops += wire_bytes * hops
        self.energy.charge(
            "noc", NOC_ENERGY_PJ_PER_BYTE_HOP * wire_bytes * hops * 1e-3
        )
        slowest = -1.0
        for link in links:
            done = link.reserve(wire_bytes)
            if done > slowest:
                slowest = done
        if degraded_hops:
            self.fault_stats.noc_degraded_transfers += 1
        return slowest + router_cycles


@functools.lru_cache(maxsize=4096)
def _xy_path(
    x: int, y: int, dst_x: int, dst_y: int
) -> tuple[tuple[tuple[tuple[int, int], tuple[int, int]], str], ...]:
    """The XY path between two mesh stops: each directed link
    ``(from, to)`` with the name of its server.  A pure function of the
    coordinates, so each path is walked once per process, whatever mesh
    it lies on."""
    path = []
    while x != dst_x:
        nxt = x + (1 if dst_x > x else -1)
        path.append(((x, y), (nxt, y)))
        x = nxt
    while y != dst_y:
        nxt = y + (1 if dst_y > y else -1)
        path.append(((x, y), (x, nxt)))
        y = nxt
    return tuple(((a, b), f"link{a}->{b}") for a, b in path)
