"""Island-selection policies for the ABC.

A policy orders candidate islands for a new task.  The ABC tries islands
in the returned order and allocates the first usable slot.  The paper's
ABC does locality-aware placement with load balancing; ``first_fit``
is the no-balancing alternative for the load-balancing ablation.
"""

from __future__ import annotations

import typing

from repro.errors import AllocationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.island.island import Island

#: A policy maps (islands, preferred_island_id) to an ordered list of
#: island indices to try.
AllocationPolicy = typing.Callable[
    [typing.Sequence["Island"], typing.Optional[int]], typing.List[int]
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
    preferred: typing.Optional[int],
) -> list[int]:
    """The paper's policy: producer-locality first, then least-busy.

    The preferred island (where most of the task's chained input already
    resides) is tried first; the rest are ordered by current busy
    fraction so work spreads across islands.
    """
    _require_islands(islands)
    order = sorted(
        range(len(islands)),
        key=lambda i: (islands[i].busy_fraction(), i),
    )
    if preferred is not None and 0 <= preferred < len(islands):
        order.remove(preferred)
        order.insert(0, preferred)
    return order


def first_fit(
    islands: typing.Sequence["Island"],
    preferred: typing.Optional[int],
) -> list[int]:
    """No load balancing: always scan islands in index order."""
    _require_islands(islands)
    return list(range(len(islands)))

