"""Structured execution tracing.

A :class:`Tracer` collects timestamped spans — ABB compute, DMA
transfers, NoC crossings, allocation waits — so a run can be inspected
after the fact: per-actor busy summaries, bottleneck ranking, and a
text Gantt chart for small runs.  Tracing is opt-in (pass a tracer to
:class:`~repro.sim.system.SystemModel`) and has no effect on timing.

Spans carry two optional pieces of structure used by the observability
subsystem (:mod:`repro.obs`):

* ``ref`` — a correlation id tying a span to the task or request that
  caused it (``"t3.conv0"`` for tile 3's ``conv0`` task,
  ``"tenant1.t5.div0"`` under the serving frontend).  Every span a task
  generates anywhere in the system — ABC wait, DMA, mesh hops, DRAM —
  shares the task's ref, which is what lets the critical-path analyzer
  walk one task's time breakdown across components.
* ``args`` — a small mapping of structured detail (byte counts, producer
  refs, SPM conflict fraction) exported verbatim into Perfetto traces.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

from repro.errors import ConfigError

_INF = float("inf")


@dataclass(frozen=True, init=False)
class TraceRecord:
    """One traced span.

    Attributes:
        start: Span start time (cycles).
        end: Span end time (cycles).
        actor: The resource or agent (e.g. ``"island0.slot3"``).
        kind: Span category (``"compute"``, ``"ingress"``, ``"chain"``,
            ``"egress"``, ``"alloc_wait"``, ...).
        label: Free-form detail (task id, byte count, ...).
        ref: Correlation id of the task/request that caused the span
            (empty for spans with no owner).
        args: Structured detail exported to trace viewers; ``None``
            means "no args".
    """

    start: float
    end: float
    actor: str
    kind: str
    label: str = ""
    ref: str = ""
    args: typing.Optional[typing.Mapping[str, typing.Any]] = None

    def __init__(
        self,
        start: float,
        end: float,
        actor: str,
        kind: str,
        label: str = "",
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    ) -> None:
        # One chained comparison accepts exactly the valid spans: NaN
        # makes every comparison false, +/-inf fall outside the open
        # bounds, and ordering is checked in the same expression.  The
        # slow branch re-distinguishes the two failure modes for the
        # error message.
        if not (-_INF < start <= end < _INF):
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ConfigError(
                    f"span times must be finite, got [{start}, {end}]"
                )
            raise ConfigError(
                f"span ends before it starts ({start} > {end})"
            )
        # Hand-written init: the generated frozen-dataclass __init__
        # funnels every field through object.__setattr__, which tripled
        # per-span cost on hot traced runs.  Writing the instance dict
        # directly keeps mutation blocked while making creation cheap.
        d = self.__dict__
        d["start"] = start
        d["end"] = end
        d["actor"] = actor
        d["kind"] = kind
        d["label"] = label
        d["ref"] = ref
        d["args"] = args

    @property
    def duration(self) -> float:
        """Span length in cycles."""
        return self.end - self.start


class Tracer:
    """Collects timestamped spans during a simulation run.

    Hot-path storage is a list of plain span tuples ``(start, end,
    actor, kind, label, ref, args)``; :class:`TraceRecord` objects are
    materialized lazily the first time :attr:`records` is read (queries,
    exports, tests), so a traced simulation never pays per-span object
    construction inside the event loop.  Hot recording sites (routes,
    the tile scheduler, memory controllers) call :meth:`span`, which
    skips validation; everything else goes through :meth:`record`.
    """

    __slots__ = ("_spans", "_records", "_materialized")

    def __init__(self) -> None:
        # Raw span tuples in record order — the hot-path storage.
        self._spans: list = []
        # Materialized TraceRecord cache; None until .records is read.
        self._records: typing.Optional[list] = None
        # How many _spans entries are already in the cache.
        self._materialized = 0

    @property
    def records(self) -> list:
        """The spans as :class:`TraceRecord` objects.

        Materialized lazily and cached: the same list object is
        returned on every access (so appending to it works), and spans
        recorded after an access are appended to it on the next one.
        """
        recs = self._records
        spans = self._spans
        if recs is None:
            recs = self._records = [TraceRecord(*span) for span in spans]
            self._materialized = len(spans)
        elif self._materialized != len(spans):
            recs.extend(
                TraceRecord(*span) for span in spans[self._materialized :]
            )
            self._materialized = len(spans)
        return recs

    def _raw_spans(self) -> list:
        """Span tuples for internal consumers (critical-path analysis).

        Returns the hot-path tuple list directly; when records were
        appended to :attr:`records` by hand (bypassing :meth:`record`),
        the tuples are re-derived so nothing is missed.
        """
        recs = self._records
        if recs is not None and len(recs) != self._materialized:
            return [
                (r.start, r.end, r.actor, r.kind, r.label, r.ref, r.args)
                for r in self.records
            ]
        return self._spans

    def record(
        self,
        start: float,
        end: float,
        actor: str,
        kind: str,
        label: str = "",
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        # Default-argument cell: record() runs once per span on traced
        # runs, and it turns two global lookups into local loads.
        _inf: float = _INF,
    ) -> None:
        """Append one span."""
        # The TraceRecord constructor runs only to raise its precise
        # validation error; valid spans stay tuples until materialized.
        if not (-_inf < start <= end < _inf):
            TraceRecord(start, end, actor, kind, label, ref, args)
        self._spans.append((start, end, actor, kind, label, ref, args))

    def span(
        self,
        start: float,
        end: float,
        actor: str,
        kind: str,
        label: str = "",
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    ) -> None:
        """Append one span without validation.

        For simulation-side callers whose spans are valid by
        construction: ``start`` is an earlier reading of the monotone
        clock (or the issue time of a reservation ending at ``end``).
        """
        self._spans.append((start, end, actor, kind, label, ref, args))

    # ---------------------------------------------------------------- query
    def by_actor(self, actor: str) -> list:
        """All spans of one actor, in record order."""
        return [r for r in self.records if r.actor == actor]

    def actors(self) -> list:
        """Distinct actors, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.actor, None)
        return list(seen)

    def end_time(self) -> float:
        """Latest span end (0 when empty)."""
        return max((r.end for r in self.records), default=0.0)

    # -------------------------------------------------------------- summary
    def busy_cycles(self) -> dict[str, float]:
        """Total span duration per actor (overlaps counted twice)."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.actor] = out.get(r.actor, 0.0) + r.duration
        return out

    def kind_cycles(self) -> dict[str, float]:
        """Total span duration per kind."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0.0) + r.duration
        return out

    def hotspots(self, top: int = 5) -> list:
        """The ``top`` busiest actors as (actor, cycles) pairs.

        Ties are broken by actor name so the ranking is deterministic
        regardless of record insertion order.
        """
        if top < 0:
            raise ConfigError(f"hotspot count must be >= 0, got {top}")
        busy = self.busy_cycles()
        return sorted(busy.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # ---------------------------------------------------------------- gantt
    def gantt(
        self,
        width: int = 72,
        actors: typing.Optional[typing.Sequence[str]] = None,
        kind_symbols: typing.Optional[typing.Mapping[str, str]] = None,
    ) -> str:
        """Render a text Gantt chart of the trace.

        Each actor gets one row of ``width`` character cells spanning
        [0, end_time]; a cell shows the symbol of the span kind covering
        it ('#' by default, '.' when idle).
        """
        if width < 10:
            raise ConfigError("gantt width must be >= 10")
        end = self.end_time()
        if end <= 0:
            return "(empty trace)"
        symbols = dict(kind_symbols or {})
        chosen = list(actors) if actors is not None else self.actors()
        label_width = max((len(a) for a in chosen), default=0) + 1
        scale = width / end
        # One pass over the records fills every chosen actor's row; the
        # old per-actor `by_actor` rescans made rendering O(actors x
        # records), which dominated on serve-sized traces.
        cells_by_actor: dict[str, list] = {a: ["."] * width for a in chosen}
        for rec in self.records:
            cells = cells_by_actor.get(rec.actor)
            if cells is None:
                continue
            lo = min(width - 1, int(rec.start * scale))
            hi = min(width, max(lo + 1, int(rec.end * scale)))
            symbol = symbols.get(rec.kind, "#")
            for i in range(lo, hi):
                cells[i] = symbol
        rows = [
            f"{actor:<{label_width}}|{''.join(cells_by_actor[actor])}|"
            for actor in chosen
        ]
        # Right-align the end-time label after the "0" origin mark; the
        # padding is clamped at one space so a label wider than the chart
        # (very large end times) cannot drive it negative and collapse
        # the header.
        end_label = str(int(end))
        padding = max(1, width - len(end_label) - 1)
        header = f"{'':<{label_width}} 0{' ' * padding}{end_label}"
        return "\n".join([header] + rows)

    def __len__(self) -> int:
        return len(self.records)
