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

import functools
import sys
import typing

from repro.errors import ConfigError

#: Span label of a traced transfer of ``nbytes``, e.g. ``"64B"``,
#: formatted once per size for every owner that labels spans by size.
size_label = functools.lru_cache(maxsize=4096)("{:g}B".format)

#: Exact span-time types :meth:`Tracer.record`'s fast check accepts;
#: ``bool`` is an ``int`` subclass but no time.
_TIME_TYPES = frozenset((int, float))

#: Largest finite float, the bound on span times.
_MAX = sys.float_info.max


def _check_times(start: typing.Any, end: typing.Any) -> None:
    """Raise for the first rule a span's times break, in argument order."""
    for value in (start, end):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"span times must be int or float, got {value!r}")
        if not -_MAX <= value <= _MAX:
            if isinstance(value, int):  # too long to print, maybe
                value = f"a {value.bit_length()}-bit int, beyond float range"
            raise ConfigError(f"span times must be finite, got {value}")
    if start > end:
        raise ConfigError(f"span ends before it starts ({start} > {end})")


class TraceRecord(typing.NamedTuple):
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

    @property
    def duration(self) -> float:
        """Span length in cycles."""
        return self.end - self.start


class Tracer:
    """Collects timestamped spans during a simulation run.

    :attr:`records` is the one span store: :meth:`record` appends one
    :class:`TraceRecord` per span, and queries, exports and the
    critical-path analyzer all read that list.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(
        self,
        start: float,
        end: float,
        actor: str,
        kind: str,
        label: str = "",
        ref: str = "",
        args: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        # Default-argument cells: record() runs once per span on traced
        # runs, and they turn global lookups into local loads.
        _types: frozenset = _TIME_TYPES,
        _max: float = _MAX,
        _new: typing.Callable = tuple.__new__,
    ) -> None:
        """Append one span; rejects non-numeric (``bool`` included),
        non-finite, beyond-float-range and backwards spans."""
        # An exact type test, then one chained comparison: NaN makes
        # every comparison false, infinities and ints too large for a
        # float fall outside the bounds, and ordering is checked in the
        # same expression.  The slow branch names the broken rule, or
        # passes a number subclass that keeps them all.
        if not (
            start.__class__ in _types
            and end.__class__ in _types
            and -_max <= start <= end <= _max
        ):
            _check_times(start, end)
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        self.records.append(
            _new(TraceRecord, (start, end, actor, kind, label, ref, args))
        )

    # ---------------------------------------------------------------- query
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
        # One pass over the records fills every chosen actor's row, so
        # rendering stays O(records) on serve-sized traces.
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
