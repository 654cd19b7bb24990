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


def trace_events(tracer: Tracer) -> list[dict]:
    """Convert a tracer's spans into trace-event dicts.

    Metadata events (process/thread names) come first, then one complete
    event per span in record order.  Pid/tid assignment is independent
    of record order (sorted by name), so two traces of the same run are
    byte-identical.
    """
    actors = sorted({rec.actor for rec in tracer.records})
    processes = sorted({_process_of(actor) for actor in actors})
    pid_of = {process: index + 1 for index, process in enumerate(processes)}
    tid_of = {actor: index + 1 for index, actor in enumerate(actors)}

    events: list[dict] = []
    for process in processes:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[process],
                "tid": 0,
                "args": {"name": process},
            }
        )
    for actor in actors:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid_of[_process_of(actor)],
                "tid": tid_of[actor],
                "args": {"name": actor},
            }
        )
    for rec in tracer.records:
        args: dict = {}
        if rec.ref:
            args["ref"] = rec.ref
        if rec.label:
            args["label"] = rec.label
        if rec.args:
            for key, value in rec.args.items():
                args[str(key)] = value
        events.append(
            {
                "ph": "X",
                "name": f"{rec.kind}:{rec.ref}" if rec.ref else rec.kind,
                "cat": rec.kind,
                "ts": rec.start,
                "dur": rec.duration,
                "pid": pid_of[_process_of(rec.actor)],
                "tid": tid_of[rec.actor],
                "args": args,
            }
        )
    return events


def validate_events(events: typing.Sequence[typing.Mapping]) -> None:
    """Check trace events against the trace-event schema contract.

    Every complete event must carry :data:`REQUIRED_EVENT_KEYS` with
    finite, non-negative ``ts``/``dur``; raises
    :class:`~repro.errors.ConfigError` on the first violation.
    """
    for index, event in enumerate(events):
        if event.get("ph") == "M":
            continue
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            raise ConfigError(
                f"trace event {index} missing keys {missing}: {dict(event)}"
            )
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(
                    f"trace event {index} has non-finite {key}: {value!r}"
                )
            if value < 0:
                raise ConfigError(
                    f"trace event {index} has negative {key}: {value!r}"
                )
        if not event["name"]:
            raise ConfigError(f"trace event {index} has an empty name")


def trace_document(tracer: Tracer, note: str = "") -> dict:
    """Build the full Perfetto-loadable JSON document for a trace."""
    events = trace_events(tracer)
    validate_events(events)
    return {
        "traceEvents": events,
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
