"""Critical-path bottleneck attribution over a span trace.

End-to-end latency says *that* a run is slow; this module says *why*.
The scheduler records one ``"task"`` span per flow-graph task carrying
its producer refs (the span DAG; a closed-loop tile's source tasks
carry the ref of the task whose completion released their window slot),
and every component a task touches — ABC allocation wait, island DMA,
the SPM<->DMA network, mesh NoC links, memory controllers, the ABB
pipeline itself — records leaf spans under the task's correlation ref.
The analyzer walks that DAG backward from the last-finishing task,
following whichever span *gated* completion at every instant, and
attributes each cycle of the makespan to one of six categories:

``compute``
    ABB pipeline (and software-fallback) execution.
``spm_conflict``
    The residual SPM bank-conflict share of compute time (Section 5.4's
    porting penalty, split out via the conflict fraction the scheduler
    stamps on compute spans).
``dma``
    Island DMA engine occupancy, including queueing and fault
    stall/retry time — the "DMA serialization" bottleneck.
``noc``
    Mesh link/router time plus the island NoC interfaces.
``abc_wait``
    Queueing in the Accelerator Block Composer for a free ABB.
``other``
    Everything else, itemized in the report's ``detail`` map: DRAM
    controller time (``mem``), the island-internal SPM network
    (``spm_net``), gaps between a dependency's end and its consumer's
    start (``handoff``), issue/arrival idle time, and walk gaps.

Segments tile [0, makespan] exactly — shares always sum to 100 % — and
the *reported critical path length equals the makespan by construction*,
which the property tests pin on chain-shaped workloads.
"""

from __future__ import annotations

import bisect
import typing
from dataclasses import dataclass, field

from repro.engine.trace import TraceRecord, Tracer
from repro.errors import ConfigError

#: Attribution categories, in report order.
CATEGORIES = ("compute", "spm_conflict", "dma", "noc", "abc_wait", "other")

#: Leaf span kinds and the category each attributes to.  Kinds not
#: listed here (``gather``, ``writeback``, ``task``) are aggregates of
#: leaf spans and are skipped by the walk.
_KIND_CATEGORY = {
    "compute": "compute",
    "sw_compute": "compute",
    "dma": "dma",
    "noc": "noc",
    "noc_if": "noc",
    "alloc_wait": "abc_wait",
    "mem": "other",
    "spm_net": "other",
}

#: Finer-grained labels inside "other".
_KIND_DETAIL = {"mem": "mem", "spm_net": "spm_net"}


class Segment(typing.NamedTuple):
    """One attributed slice of the critical path."""

    start: float
    end: float
    category: str
    detail: str
    ref: str = ""
    actor: str = ""

    @property
    def duration(self) -> float:
        """Segment length in cycles."""
        return self.end - self.start


@dataclass(frozen=True)
class AttributionReport:
    """Where the makespan went, category by category."""

    makespan: float
    segments: tuple = ()
    cycles: dict[str, float] = field(default_factory=dict)
    detail_cycles: dict[str, float] = field(default_factory=dict)

    @property
    def critical_path_cycles(self) -> float:
        """Length of the walked path — equals the makespan when the
        trace covers the whole run."""
        if not self.segments:
            return 0.0
        return self.segments[-1].end - self.segments[0].start

    def shares(self) -> dict[str, float]:
        """Fraction of the makespan per category (sums to 1.0)."""
        if self.makespan <= 0:
            return {category: 0.0 for category in CATEGORIES}
        return {
            category: self.cycles.get(category, 0.0) / self.makespan
            for category in CATEGORIES
        }

    def format_table(self) -> str:
        """Human-readable attribution table."""
        shares = self.shares()
        lines = [f"makespan {self.makespan:,.0f} cycles"]
        for category in CATEGORIES:
            lines.append(
                f"  {category:<13} {self.cycles.get(category, 0.0):14,.0f}  "
                f"{shares[category]:6.1%}"
            )
        detail = {
            k: v
            for k, v in sorted(self.detail_cycles.items())
            if k not in CATEGORIES
        }
        if detail:
            lines.append("  other breakdown:")
            for key, value in detail.items():
                lines.append(f"    {key:<11} {value:14,.0f}")
        return "\n".join(lines)


class _Node:
    """One task of the span DAG: its task span and its leaf spans."""

    __slots__ = ("ref", "start", "end", "deps", "leaves")

    def __init__(self, task: TraceRecord, leaves: list) -> None:
        self.ref = task.ref
        self.start = task.start
        self.end = task.end
        deps = task.args.get("deps") if task.args else None
        self.deps: tuple = tuple(deps) if deps else ()
        self.leaves = leaves


def _build_nodes(tracer: Tracer) -> dict[str, _Node]:
    """One pass groups task spans and leaf spans by ref; only refs with
    a task span become nodes.  Node order is free: every ``max`` over
    nodes breaks ties on ``ref``."""
    tasks: dict[str, TraceRecord] = {}
    leaves_of: dict[str, list] = {}
    kind_category = _KIND_CATEGORY
    for rec in tracer.records:
        ref = rec.ref
        if not ref:
            continue
        kind = rec.kind
        if kind == "task":
            if ref in tasks:
                raise ConfigError(f"duplicate task span for ref {ref!r}")
            tasks[ref] = rec
        elif kind in kind_category:
            group = leaves_of.get(ref)
            if group is None:
                leaves_of[ref] = [rec]
            else:
                group.append(rec)
    return {
        ref: _Node(task, leaves_of.get(ref, []))
        for ref, task in tasks.items()
    }


def _conflict_fraction(args: typing.Optional[typing.Mapping]) -> float:
    return float((args or {}).get("conflict", 0.0))


def _emit_leaf(rec: TraceRecord, lo: float, hi: float, out: list) -> None:
    """Append the attributed segment(s) for one leaf span."""
    kind = rec.kind
    category = _KIND_CATEGORY[kind]
    if kind == "compute":
        conflict = _conflict_fraction(rec.args)
        if conflict > 0.0:
            # compute_cycles = base * (1 + conflict): the conflict share
            # of the interval is conflict / (1 + conflict).
            split = hi - (hi - lo) * conflict / (1.0 + conflict)
            # The walk runs backward and reverses at the end, so append
            # the later slice first to keep segments time-ordered.
            out.append(
                Segment(split, hi, "spm_conflict", "spm_conflict", rec.ref, rec.actor)
            )
            out.append(Segment(lo, split, "compute", "compute", rec.ref, rec.actor))
            return
    detail = _KIND_DETAIL.get(kind, category)
    out.append(Segment(lo, hi, category, detail, rec.ref, rec.actor))


def _walk_node(node: _Node, t_hi: float, eps: float, out: list) -> None:
    """Attribute [node.start, t_hi] by walking the node's leaves backward.

    At each step the *gating* leaf — the one whose end sits latest at or
    before the current time — claims the interval back to its start;
    uncovered stretches become ``other/gap`` segments.  Leaves within a
    task are sequential per phase, and parallel operand fetches resolve
    to whichever finished last, which is exactly the fetch the task
    actually waited on.
    """
    leaves = sorted(
        (rec for rec in node.leaves if rec.end - rec.start > eps),
        key=lambda rec: (rec.end, rec.end - rec.start, rec.kind, rec.actor),
    )
    ends = [rec.end for rec in leaves]
    t = t_hi
    floor = node.start + eps
    budget = 2 * len(leaves) + 4  # safety bound; the walk is monotone
    while t > floor and budget > 0:
        budget -= 1
        # Rightmost leaf with end <= t + eps that still reaches below t.
        index = bisect.bisect_right(ends, t + eps) - 1
        chosen = None
        while index >= 0:
            candidate = leaves[index]
            if candidate.end > floor and candidate.start < t - eps:
                chosen = candidate
                break
            index -= 1
        if chosen is None:
            out.append(
                Segment(node.start, t, "other", "gap", node.ref, "")
            )
            return
        end = chosen.end
        if end < t - eps:
            out.append(
                Segment(end, t, "other", "gap", node.ref, "")
            )
            t = end
        lo = max(chosen.start, node.start)
        _emit_leaf(chosen, lo, min(t, end), out)
        t = lo
    if t > floor:
        out.append(Segment(node.start, t, "other", "gap", node.ref, ""))


def _gating_dep(
    nodes: dict[str, _Node], node: _Node, eps: float
) -> typing.Optional[_Node]:
    """The producer whose completion gated this node's start."""
    candidates = [
        nodes[ref]
        for ref in node.deps
        if ref in nodes and nodes[ref].end <= node.start + eps
    ]
    return max(candidates, key=lambda c: (c.end, c.ref), default=None)


def analyze_critical_path(
    tracer: Tracer,
    makespan: typing.Optional[float] = None,
) -> AttributionReport:
    """Attribute a traced run's makespan to bottleneck categories.

    Args:
        tracer: The run's tracer (must contain ``task`` spans, i.e. the
            run was executed with tracing threaded through the
            scheduler).
        makespan: Total simulated cycles; defaults to the latest span
            end.  Time past the last span is attributed to
            ``other/drain``.  Must be finite and non-negative.

    Returns an :class:`AttributionReport` whose segments tile
    [0, makespan] exactly.
    """
    if makespan is None:
        makespan = tracer.end_time()
    elif not (0.0 <= makespan < float("inf")):
        # NaN fails every comparison, so it lands here too.
        raise ConfigError(
            f"makespan must be finite and non-negative, got {makespan!r}"
        )
    nodes = _build_nodes(tracer)
    if makespan == 0 or not nodes:
        return AttributionReport(makespan=makespan)
    eps = 1e-9 * max(1.0, makespan)

    segments: list[Segment] = []
    current = max(nodes.values(), key=lambda node: (node.end, node.ref))
    t = makespan
    if t > current.end + eps:
        segments.append(Segment(current.end, t, "other", "drain", "", ""))
        t = current.end
    seen: set[str] = set()
    while current is not None and current.ref not in seen:
        seen.add(current.ref)
        _walk_node(current, min(t, current.end), eps, segments)
        t = current.start
        if t <= eps:
            break
        successor = _gating_dep(nodes, current, eps)
        if successor is None:
            segments.append(Segment(0.0, t, "other", "idle", current.ref, ""))
            t = 0.0
            break
        if successor.end < t - eps:
            segments.append(
                Segment(successor.end, t, "other", "handoff", successor.ref, "")
            )
            t = successor.end
        current = successor
    else:
        # Cycle guard tripped or source reached with time left: close
        # the path down to zero so segments always tile [0, makespan].
        if t > eps:
            segments.append(Segment(0.0, t, "other", "idle", "", ""))

    segments.reverse()
    cycles: dict[str, float] = {category: 0.0 for category in CATEGORIES}
    detail_cycles: dict[str, float] = {}
    for segment in segments:
        cycles[segment.category] += segment.duration
        detail_cycles[segment.detail] = (
            detail_cycles.get(segment.detail, 0.0) + segment.duration
        )
    return AttributionReport(
        makespan=makespan,
        segments=tuple(segments),
        cycles=cycles,
        detail_cycles=detail_cycles,
    )


def category_cycles_by_tenant(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Total leaf-span cycles per tenant per category.

    A busy-time breakdown (overlapping spans counted in full), not a
    critical path: it answers "what did tenant T's requests spend time
    on" for the per-tenant rows of serve SLO reports.  Tenancy comes
    from the ``tenant`` arg the scheduler stamps on task spans; refs
    with no tenant group under ``""``.
    """
    spans = tracer.records
    tenant_of: dict[str, str] = {}
    for rec in spans:
        if rec.kind == "task":
            tenant_of[rec.ref] = str((rec.args or {}).get("tenant", ""))
    out: dict[str, dict[str, float]] = {}
    for rec in spans:
        kind = rec.kind
        if kind not in _KIND_CATEGORY or not rec.ref:
            continue
        tenant = tenant_of.get(rec.ref, "")
        per_tenant = out.setdefault(
            tenant, {category: 0.0 for category in CATEGORIES}
        )
        duration = rec.end - rec.start
        if kind == "compute":
            conflict = _conflict_fraction(rec.args)
            conflict_share = duration * conflict / (1.0 + conflict)
            per_tenant["compute"] += duration - conflict_share
            per_tenant["spm_conflict"] += conflict_share
        else:
            per_tenant[_KIND_CATEGORY[kind]] += duration
    return out
