"""Island-selection policies for the ABC.

A policy picks the island for a new task from the candidates: the
islands that hold a usable slot of the task's ABB type right now, in
index order.  It sees every island's busy fraction (allocated slots over
slots, by island index), which the ABC keeps current.  The ABC
allocates the chosen island's lowest-index usable slot.
The paper's ABC does locality-aware placement with load balancing;
``first_fit`` is the no-balancing alternative for the load-balancing
ablation.
"""

from __future__ import annotations

import typing

from repro.errors import AllocationError

#: A policy maps (busy fractions by island, candidate indices,
#: preferred_island_id) to the index of the chosen candidate.
AllocationPolicy = typing.Callable[
    [typing.Sequence[float], typing.Sequence[int], typing.Optional[int]], int
]


def _require_islands(busy: typing.Sequence[float]) -> None:
    """Reject the degenerate empty platform with a clear error."""
    if not busy:
        raise AllocationError(
            "allocation policy invoked with an empty island list; "
            "the platform has no islands to place work on"
        )


def locality_then_load_balance(
    busy: typing.Sequence[float],
    candidates: typing.Sequence[int],
    preferred: typing.Optional[int],
) -> int:
    """The paper's policy: producer-locality first, then least-busy.

    The preferred island (where most of the task's chained input already
    resides) wins if it is a candidate; otherwise the least busy
    candidate does, the lower index breaking ties, so work spreads
    across islands.
    """
    _require_islands(busy)
    if preferred in candidates:
        return preferred
    return min(candidates, key=busy.__getitem__)


def first_fit(
    busy: typing.Sequence[float],
    candidates: typing.Sequence[int],
    preferred: typing.Optional[int],
) -> int:
    """No load balancing: always the lowest-index candidate."""
    _require_islands(busy)
    return candidates[0]
