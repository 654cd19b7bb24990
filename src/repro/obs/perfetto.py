"""Chrome/Perfetto trace-event export for :class:`~repro.engine.trace.Tracer`.

Converts a span trace into the JSON trace-event format that
``ui.perfetto.dev`` (and ``chrome://tracing``) load directly: one
complete event (``"ph": "X"``) per span, grouped into processes by the
actor's top-level component (``island0``, ``mesh``, ``mem``, ``core``)
and into threads by full actor name, with metadata events naming both.

Timestamps are simulated cycles emitted as trace-event microsecond
ticks, so one viewer microsecond equals one cycle — durations read
directly in cycles.

Every span's correlation id and structured args are exported under
``args``, which is what makes a task's path through ABC wait, DMA, mesh
and DRAM traceable in the viewer (search for the ``ref``).
"""

from __future__ import annotations

import json
import math
import sys
import typing

from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.sim.serialize import read_document

#: Format version stamped into the exported document's ``otherData``.
TRACE_SCHEMA_VERSION = 1

#: Keys every complete ("X") trace event must carry — the contract the
#: CI observability job validates emitted traces against.
REQUIRED_EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")


def _process_of(actor: str) -> str:
    """Process grouping: the actor's top-level component."""
    return actor.split(".", 1)[0] if actor else "trace"


#: The key set :func:`validate_events` tests each complete event against.
_REQUIRED_KEYS = frozenset(REQUIRED_EVENT_KEYS)

#: Exact ``ts``/``dur`` types the fast checks accept.  ``bool`` is an
#: ``int`` subclass but a JSON ``true``, which viewers cannot place on
#: a timeline; other subclasses take the slow path.
_CLOCK_TYPES = frozenset((int, float))

#: Largest finite float.  The fast checks bound times by it, not by
#: infinity, so an ``int`` too large for a float takes the slow path,
#: where ``math.isfinite`` refuses it.
_MAX = sys.float_info.max


def _reject(index: int, event: dict) -> None:
    """Raise the :class:`ConfigError` for an event a fast check refused.

    The fast checks in :func:`trace_events` and :func:`validate_events`
    only say *that* an event may break the contract; this re-derives
    *which* rule it breaks first, in contract order, and returns when
    the event passes after all (say a ``float`` subclass as ``ts``).
    """
    if "ph" in event and event["ph"] != "X":
        raise ConfigError(
            f"trace event {index} has unsupported phase {event['ph']!r}"
        )
    missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
    if missing:
        raise ConfigError(f"trace event {index} missing keys {missing}: {dict(event)}")
    for key in ("ts", "dur"):
        value = event[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ConfigError(f"trace event {index} has non-finite {key}: {value!r}")
        if value < 0:
            raise ConfigError(f"trace event {index} has negative {key}: {value!r}")
    if not event["name"]:
        raise ConfigError(f"trace event {index} has an empty name")


def trace_events(tracer: Tracer) -> list[dict]:
    """Convert a tracer's spans into checked trace-event dicts.

    Metadata events (process/thread names) come first, then one complete
    event per span in record order.  Pid/tid assignment is independent
    of record order (sorted by name), so two traces of the same run are
    byte-identical.

    Each complete event is checked against the :func:`validate_events`
    contract as it is built, so a span with a negative, non-finite or
    ``bool`` time (one appended to ``tracer.records`` directly), or an
    empty name, raises the same :class:`ConfigError` with the same
    event index that :func:`validate_events` would.
    """
    records = tracer.records
    actors = sorted({rec.actor for rec in records})
    process_of = {actor: _process_of(actor) for actor in actors}
    processes = sorted(set(process_of.values()))
    pid_of = {process: pid for pid, process in enumerate(processes, 1)}
    ids_of = {
        actor: (pid_of[process_of[actor]], tid)
        for tid, actor in enumerate(actors, 1)
    }

    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid_of[process],
            "tid": 0,
            "args": {"name": process},
        }
        for process in processes
    ]
    events += [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": actor},
        }
        for actor, (pid, tid) in ids_of.items()
    ]
    append = events.append
    clock_types = _CLOCK_TYPES
    top = _MAX
    index = len(events)
    for start, end, actor, kind, label, ref, extra in records:
        if ref:
            args = {"ref": ref, "label": label} if label else {"ref": ref}
        else:
            args = {"label": label} if label else {}
        if extra:
            for key, value in extra.items():
                args[str(key)] = value
        dur = end - start
        name = f"{kind}:{ref}" if ref else kind
        pid, tid = ids_of[actor]
        event = {
            "ph": "X",
            "name": name,
            "cat": kind,
            "ts": start,
            "dur": dur,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        # One chained comparison bounds both times to [0, float max];
        # NaN and infinities fail it.  The type test runs first, so no
        # comparison ever sees a bool or a non-number.
        if not (
            start.__class__ in clock_types
            and dur.__class__ in clock_types
            and 0 <= start <= top >= dur >= 0
            and name
        ):
            _reject(index, event)
        append(event)
        index += 1
    return events


def validate_events(events: typing.Sequence[dict]) -> None:
    """Check trace events against the trace-event schema contract.

    The boundary check for loaded and external documents
    (:func:`trace_events` checks its own events as it builds them).
    Metadata events (``"ph": "M"``) pass as they are.  Every other
    event must be a complete event (``"ph": "X"``) carrying
    :data:`REQUIRED_EVENT_KEYS`, with ``int``/``float`` (not ``bool``)
    ``ts``/``dur`` that are finite and non-negative, and a non-empty
    name.  Raises :class:`~repro.errors.ConfigError` on the first
    violation.
    """
    if not isinstance(events, (list, tuple)):
        raise ConfigError(f"trace events must be a list, got {type(events).__name__}")
    required = _REQUIRED_KEYS
    clock_types = _CLOCK_TYPES
    top = _MAX
    for index, event in enumerate(events):
        # A dict check, not typing.Mapping: that ABC check costs about
        # 1 us per event, a quarter of a traced run's export.
        if not isinstance(event, dict):
            raise ConfigError(f"trace event {index} is not an object: {event!r}")
        phase = event.get("ph")
        if phase == "M":
            continue
        if not (
            phase == "X"
            and required <= event.keys()
            and (ts := event["ts"]).__class__ in clock_types
            and (dur := event["dur"]).__class__ in clock_types
            and 0 <= ts <= top >= dur >= 0
            and event["name"]
        ):
            _reject(index, event)


def trace_document(tracer: Tracer, note: str = "") -> dict:
    """Build the full Perfetto-loadable JSON document for a trace.

    Its events come from :func:`trace_events`, which checks each one as
    it builds it, so the document is not walked a second time.
    """
    return {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "simulated cycles as microsecond ticks",
            "spans": len(tracer.records),
            "note": note,
        },
    }


def write_trace(tracer: Tracer, path: str, note: str = "") -> dict:
    """Write a Perfetto-loadable trace JSON; returns the document."""
    document = trace_document(tracer, note)
    # Not write_document: traces are large, so they use a narrower indent.
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def load_trace(path: str) -> dict:
    """Read and validate a document written by :func:`write_trace`."""
    document = read_document(
        path,
        TRACE_SCHEMA_VERSION,
        kind="trace",
        payload="traceEvents",
        header="otherData",
    )
    validate_events(document["traceEvents"])
    return document
