"""Island-selection policies for the ABC.

A policy picks the island for a new task from the candidates: the
islands that hold a usable slot of the task's ABB type right now, in
index order.  The ABC allocates that island's lowest-index usable slot.
The paper's ABC does locality-aware placement with load balancing;
``first_fit`` is the no-balancing alternative for the load-balancing
ablation.
"""

from __future__ import annotations

import typing

from repro.errors import AllocationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.island.island import Island

#: A policy maps (islands, candidate indices, preferred_island_id) to the
#: index of the chosen candidate.
AllocationPolicy = typing.Callable[
    [typing.Sequence["Island"], typing.Sequence[int], typing.Optional[int]], int
]


def _require_islands(islands: typing.Sequence["Island"]) -> None:
    """Reject the degenerate empty platform with a clear error."""
    if not islands:
        raise AllocationError(
            "allocation policy invoked with an empty island list; "
            "the platform has no islands to place work on"
        )


def locality_then_load_balance(
    islands: typing.Sequence["Island"],
    candidates: typing.Sequence[int],
    preferred: typing.Optional[int],
) -> int:
    """The paper's policy: producer-locality first, then least-busy.

    The preferred island (where most of the task's chained input already
    resides) wins if it is a candidate; otherwise the least busy
    candidate does, the lower index breaking ties, so work spreads
    across islands.
    """
    _require_islands(islands)
    if preferred in candidates:
        return preferred
    return min(candidates, key=lambda i: islands[i].busy_fraction())


def first_fit(
    islands: typing.Sequence["Island"],
    candidates: typing.Sequence[int],
    preferred: typing.Optional[int],
) -> int:
    """No load balancing: always the lowest-index candidate."""
    _require_islands(islands)
    return candidates[0]
