"""Virtual accelerators.

ARC/CHARM virtualize a larger accelerator out of multiple smaller blocks:
the user-visible object is a *virtual accelerator* whose physical
realization — which ABBs on which islands — is chosen dynamically by the
ABC.  :class:`VirtualAccelerator` is that handle: start it like a
monolithic device, then inspect which blocks actually composed it.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import ABBFlowGraph, TilePlan
from repro.core.scheduler import TileScheduler
from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import SystemModel


class VirtualAccelerator:
    """A composed accelerator executing one flow graph."""

    def __init__(self, system: "SystemModel", graph: ABBFlowGraph, va_id: int = 0) -> None:
        self.system = system
        self.graph = graph
        self.va_id = va_id
        self._scheduler = TileScheduler(
            system, TilePlan(graph, system.library), tile_id=va_id
        )
        self.started_at: typing.Optional[float] = None
        self.finished_at: typing.Optional[float] = None

    def start(self, then: typing.Callable[[], None] = lambda: None) -> None:
        """Launch the composition; ``then()`` runs when the graph drains."""
        if self.started_at is not None:
            raise SimulationError(f"virtual accelerator {self.va_id} already started")
        self.started_at = self.system.sim.now

        def finished() -> None:
            self.finished_at = self.system.sim.now
            then()

        self._scheduler.run(finished)

    # ------------------------------------------------------------- queries
    @property
    def is_complete(self) -> bool:
        """Whether every task of the graph has finished."""
        return self.finished_at is not None

    @property
    def mapping(self) -> dict[str, tuple[int, int]]:
        """Task id -> (island, slot) physical placement chosen by the ABC."""
        return dict(self._scheduler.locations)

    @property
    def islands_used(self) -> set[int]:
        """Distinct islands the composition spanned."""
        return {island for island, _slot in self._scheduler.locations.values()}

    @property
    def elapsed_cycles(self) -> float:
        """Wall-clock cycles from start to completion."""
        if self.started_at is None or self.finished_at is None:
            raise SimulationError("virtual accelerator has not completed")
        return self.finished_at - self.started_at
