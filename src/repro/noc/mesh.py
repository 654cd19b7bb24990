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
import sys
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

    ``crossings`` holds what each pair of stops' crossing fixes, filled
    on first use (see :meth:`transfer`): its degraded hop count, then
    its links' server names, in one flat tuple.  A platform passes the
    one dict every run on it shares, since the paths and the link-fault
    draws are functions of its config.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        crossings: dict[int, tuple],
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
        # This run's link servers, by name; the platform's crossings.
        self._links: dict[str, BandwidthServer] = {}
        self._fixed = crossings
        # This run's crossing legs by the same key (the pair of stops as
        # one int); they call into the traffic record, not the NoC.
        self._crossings: dict[int, Leg] = {}
        self._width = topology.width
        self._stops = topology.width * topology.height
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
        return xy_path(src.x, src.y, dst.x, dst.y)

    # ------------------------------------------------------------ transfers
    def transfer(self, src: Node, dst: Node, nbytes: float) -> Leg:
        """The one leg of a crossing of ``nbytes`` from ``src`` to ``dst``.

        It reserves every link on the XY path at issue; arrival is when
        the slowest link has drained the payload, plus the router
        pipeline.  A zero-byte or zero-hop crossing arrives as it is
        issued, with no heap entry and no span.  The leg is built once
        per pair of stops per run; the path's link names and degraded
        hop count once per pair in ``crossings``.  The caller splices the
        leg into its route.
        """
        if not (0.0 <= nbytes < _INF):
            raise ConfigError(
                f"transfer size must be finite and non-negative, got {nbytes!r}"
            )
        width = self._width
        key = (src.y * width + src.x) * self._stops + dst.y * width + dst.x
        crossing = self._crossings.get(key)
        if crossing is None:
            crossing = self._crossings[key] = self._crossing(key, src, dst)
        return crossing

    def _crossing(self, key: int, src: Node, dst: Node) -> Leg:
        injector = self.fault_injector
        fixed = self._fixed.get(key)
        if fixed is None:
            steps = xy_path(src.x, src.y, dst.x, dst.y)
            degraded = 0
            if injector is not None:
                degraded = sum(injector.link_degraded(*step) for step in steps)
            names = (sys.intern(f"link{a}->{b}") for a, b in steps)
            fixed = self._fixed[key] = (degraded, *names)
        degraded_hops, *path = fixed
        span = None
        if self.tracer is not None and path:
            hops = len(path)
            span = (
                self.tracer,
                f"mesh.{src.x},{src.y}->{dst.x},{dst.y}",
                "noc",
                lambda nbytes: f"{nbytes:g}B/{hops}h",
            )
        # Each link's server is made on the run's first crossing of it.
        links = self._links
        servers = []
        for name in path:
            server = links.get(name)
            if server is None:
                server = links[name] = BandwidthServer(
                    self.sim,
                    bytes_per_cycle=self.link_bytes_per_cycle,
                    latency=0.0,
                    name=name,
                )
            servers.append(server)
        router_cycles = ROUTER_LATENCY * len(path)
        if degraded_hops:
            factor = injector.spec.noc_degrade_factor
            router_cycles += ROUTER_LATENCY * (factor - 1.0) * degraded_hops
        cross = functools.partial(
            self._traffic.cross, tuple(servers), router_cycles, degraded_hops
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


def xy_path(
    x: int, y: int, dst_x: int, dst_y: int
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The XY path between two mesh stops: each directed link
    ``(from, to)``, X first, then Y."""
    path = []
    while x != dst_x:
        nxt = x + (1 if dst_x > x else -1)
        path.append(((x, y), (nxt, y)))
        x = nxt
    while y != dst_y:
        nxt = y + (1 if dst_y > y else -1)
        path.append(((x, y), (x, nxt)))
        y = nxt
    return path
