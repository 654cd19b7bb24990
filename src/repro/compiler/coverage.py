"""Minimum ABB-set coverage analysis.

The compiler framework determines "a minimum set of ABBs to cover the
kernel" (Section 4): for each ABB type, the peak number of tasks of that
type that can usefully run concurrently.  We compute concurrency from the
graph's level structure (ASAP scheduling levels): tasks at the same level
have no mutual dependencies, so they could all run in parallel.
"""

from __future__ import annotations

import typing

from repro.abb.flowgraph import ABBFlowGraph
from repro.abb.library import ABBLibrary


def minimum_abb_set(graph: ABBFlowGraph) -> dict[str, int]:
    """Per-type ABB counts needed to exploit the graph's parallelism.

    For each type: the maximum number of same-type tasks on any ASAP
    level.  One ABB per type is always enough for correctness; this is
    the count beyond which extra ABBs cannot help a single graph
    instance.
    """
    # ASAP level of each task, counted from 1 at the sources.
    levels = graph.path_lengths(lambda _task: 1)
    per_level_type: dict[tuple[int, str], int] = {}
    for task in graph.tasks:
        key = (levels[task.task_id], task.abb_type)
        per_level_type[key] = per_level_type.get(key, 0) + 1
    result: dict[str, int] = {}
    for (_level, type_name), count in per_level_type.items():
        result[type_name] = max(result.get(type_name, 0), count)
    return result


def coverage_report(
    graph: ABBFlowGraph,
    available: typing.Mapping[str, int],
    library: ABBLibrary,
) -> dict[str, object]:
    """Compare a graph's ABB needs against an available mix.

    Returns a dict with:
        * ``covered``: every required type has at least one ABB available;
        * ``missing_types``: required types with zero availability;
        * ``saturated_types``: types where the minimum set exceeds the
          available count (composition still works, just serialized);
        * ``minimum_set``: output of :func:`minimum_abb_set`.
    """
    graph.validate(library)
    needed = minimum_abb_set(graph)
    missing = sorted(t for t in needed if available.get(t, 0) == 0)
    saturated = sorted(
        t for t, n in needed.items() if 0 < available.get(t, 0) < n
    )
    return {
        "covered": not missing,
        "missing_types": missing,
        "saturated_types": saturated,
        "minimum_set": needed,
    }
