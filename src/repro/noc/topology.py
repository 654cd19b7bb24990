"""Mesh topology and node placement.

Figure 4 of the paper shows memory controllers on the chip edge, L2 banks
and cores in the middle rows, and accelerator islands filling the rest.
:class:`MeshTopology` reproduces that flavour of placement on the smallest
square-ish grid that fits all nodes: memory controllers go to the corners
first, cores and L2 banks to central positions, islands to the remaining
slots — interleaved so island traffic spreads across the mesh.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError


class NodeKind(enum.Enum):
    """What sits at a mesh stop."""

    ISLAND = "island"
    CORE = "core"
    L2_BANK = "l2"
    MEMORY_CONTROLLER = "mc"


@dataclass(frozen=True)
class Node:
    """One mesh stop.

    Attributes:
        kind: Component type at this stop.
        index: Index within its kind (e.g. island 3).
        x: Mesh column.
        y: Mesh row.
    """

    kind: NodeKind
    index: int
    x: int
    y: int

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``island3``."""
        return f"{self.kind.value}{self.index}"


class MeshTopology:
    """Placement of all components on a 2D mesh."""

    def __init__(
        self,
        n_islands: int,
        n_cores: int = 4,
        n_l2_banks: int = 8,
        n_memory_controllers: int = 4,
    ) -> None:
        if n_islands < 1:
            raise ConfigError("need at least one island")
        if n_memory_controllers < 1:
            raise ConfigError("need at least one memory controller")
        if n_cores < 0 or n_l2_banks < 0:
            raise ConfigError("core/L2 counts must be non-negative")
        self.n_islands = n_islands
        self.n_cores = n_cores
        self.n_l2_banks = n_l2_banks
        self.n_memory_controllers = n_memory_controllers

        total = n_islands + n_cores + n_l2_banks + n_memory_controllers
        self.width = width = max(2, math.ceil(math.sqrt(total)))
        self.height = height = max(2, math.ceil(total / width))
        coords = [(x, y) for y in range(height) for x in range(width)]
        available = list(coords)
        self.nodes: list[Node] = []

        def add(kind: NodeKind, index: int, coord: tuple[int, int]) -> None:
            available.remove(coord)
            self.nodes.append(Node(kind, index, coord[0], coord[1]))

        # Memory controllers at the chip edge, corners first (Fig. 4).
        corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
        edges = [c for c in coords if c[0] in (0, width - 1) or c[1] in (0, height - 1)]
        mc_spots = corners + [c for c in edges if c not in corners]
        for i in range(n_memory_controllers):
            add(NodeKind.MEMORY_CONTROLLER, i, mc_spots[i])

        # Cores and L2 banks at central positions.
        center = ((width - 1) / 2.0, (height - 1) / 2.0)
        central = sorted(
            available,
            key=lambda c: (abs(c[0] - center[0]) + abs(c[1] - center[1]), c),
        )
        for i in range(n_cores):
            add(NodeKind.CORE, i, central.pop(0))
        for i in range(n_l2_banks):
            add(NodeKind.L2_BANK, i, central.pop(0))

        # Islands fill the remaining slots in scan order.
        for i in range(n_islands):
            if not available:
                raise ConfigError("mesh too small for requested component counts")
            add(NodeKind.ISLAND, i, available[0])
        self._index = {(node.kind, node.index): node for node in self.nodes}

    # -------------------------------------------------------------- lookups
    def node(self, kind: NodeKind, index: int) -> Node:
        """The node of ``kind`` numbered ``index``, found by the pair
        itself (no name is formatted); raises :class:`ConfigError` when
        the mesh has no such node."""
        try:
            return self._index[kind, index]
        except KeyError:
            raise ConfigError(f"no such node '{kind.value}{index}'") from None

    def island(self, index: int) -> Node:
        """The mesh stop of island ``index``."""
        return self.node(NodeKind.ISLAND, index)

    def memory_controller(self, index: int) -> Node:
        """The mesh stop of memory controller ``index``."""
        return self.node(NodeKind.MEMORY_CONTROLLER, index)

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        """All nodes of one kind, ordered by index."""
        return sorted(
            (n for n in self.nodes if n.kind is kind), key=lambda n: n.index
        )

    def hop_distance(self, a: Node, b: Node) -> int:
        """Manhattan (XY-routed) hop count between two stops."""
        return abs(a.x - b.x) + abs(a.y - b.y)
