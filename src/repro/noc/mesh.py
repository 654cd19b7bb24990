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

import math
import typing

from repro.engine import BandwidthServer, Event, Route, Simulator
from repro.engine.route import CALL, DONE, leg
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
        # Span labels of traced transfers, formatted once per
        # (bytes, hops) pair.
        self._span_labels: dict[tuple[float, int], str] = {}
        self._links: dict[tuple[tuple[int, int], tuple[int, int]], BandwidthServer] = {}
        # Route legs: one shared tuple, or per endpoint pair when traced
        # (the span actor names the pair).
        self._plain_legs = (leg(CALL, self._traverse), DONE)
        self._traced_legs: dict[tuple[int, int, int, int], tuple] = {}
        self.total_transfers = 0
        self.total_packets = 0
        self.total_byte_hops = 0.0

    # ---------------------------------------------------------------- links
    def _link(
        self, src: tuple[int, int], dst: tuple[int, int]
    ) -> BandwidthServer:
        key = (src, dst)
        if key not in self._links:
            self._links[key] = BandwidthServer(
                self.sim,
                bytes_per_cycle=self.link_bytes_per_cycle,
                latency=0.0,
                name=f"link{src}->{dst}",
            )
        return self._links[key]

    @staticmethod
    def route(src: Node, dst: Node) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """XY route: walk X first, then Y.  Returns the directed link list."""
        path = []
        x, y = src.x, src.y
        while x != dst.x:
            nxt = x + (1 if dst.x > x else -1)
            path.append(((x, y), (nxt, y)))
            x = nxt
        while y != dst.y:
            nxt = y + (1 if dst.y > y else -1)
            path.append(((x, y), (x, nxt)))
            y = nxt
        return path

    # ------------------------------------------------------------ transfers
    def transfer(
        self, src: Node, dst: Node, nbytes: float, ref: str = ""
    ) -> Event:
        """Send ``nbytes`` from ``src`` to ``dst``; event fires on arrival."""
        if nbytes < 0:
            raise ConfigError(f"transfer size must be non-negative, got {nbytes}")
        self.total_transfers += 1
        if nbytes == 0 or (src.x == dst.x and src.y == dst.y):
            # Nothing crosses a link: the transfer arrives as it is
            # issued, with no heap entry.  Its zero charge still enters
            # "noc" in the energy breakdown, as any transfer does.
            self.energy.charge("noc", 0.0)
            return Event(self.sim).trigger(nbytes)
        legs = self._plain_legs
        if self.tracer is not None:
            key = (src.x, src.y, dst.x, dst.y)
            legs = self._traced_legs.get(key)
            if legs is None:
                actor = f"mesh.{src.x},{src.y}->{dst.x},{dst.y}"
                legs = self._traced_legs[key] = (
                    leg(CALL, self._traverse, (self.tracer, actor, "noc")),
                    DONE,
                )
        return Route(self.sim, legs, nbytes, src, dst, ref).event

    def _traverse(self, route: Route) -> float:
        """The one leg of a mesh transfer: reserve every link on the XY
        path at issue; arrival is when the slowest link has drained the
        payload, plus the router pipeline."""
        src, dst, nbytes = route.src, route.dst, route.nbytes
        path = self.route(src, dst)
        hops = len(path)
        wire_bytes = nbytes
        if self.segment_bytes is not None:
            payload = self.segment_bytes - PACKET_HEADER_BYTES
            packets = math.ceil(nbytes / payload)
            wire_bytes = nbytes + packets * PACKET_HEADER_BYTES
            self.total_packets += packets
        self.total_byte_hops += wire_bytes * hops
        self.energy.charge(
            "noc", NOC_ENERGY_PJ_PER_BYTE_HOP * wire_bytes * hops * 1e-3
        )

        slowest = -1.0
        for a, b in path:
            done = self._link(a, b).reserve(wire_bytes)
            if done > slowest:
                slowest = done

        router_cycles = ROUTER_LATENCY * hops
        injector = self.fault_injector
        if injector is not None and injector.spec.noc_degrade_fraction > 0.0:
            degraded_hops = sum(
                1 for a, b in path if injector.link_degraded(a, b)
            )
            if degraded_hops:
                injector.stats.noc_degraded_transfers += 1
                router_cycles += (
                    ROUTER_LATENCY
                    * (injector.spec.noc_degrade_factor - 1.0)
                    * degraded_hops
                )

        if self.tracer is not None:
            label = self._span_labels.get((nbytes, hops))
            if label is None:
                label = self._span_labels[(nbytes, hops)] = f"{nbytes:g}B/{hops}h"
            route.label = label
        return slowest + router_cycles

    # ------------------------------------------------------------- metrics
    def max_link_utilization(self, elapsed: float) -> float:
        """Busy fraction of the most loaded link (the hotspot)."""
        if not self._links:
            return 0.0
        return max(link.utilization(elapsed) for link in self._links.values())
