"""Differential check: the one-pass trace export against a plain reference.

The reference is the export and grouping the one-pass versions
replaced, kept verbatim: ``trace_events`` built every event dict first
and ``trace_document`` then ran ``validate_events`` over the finished
list; ``validate_events`` tested each key, type and bound in turn; and
the critical-path analyzer's ``_build_nodes`` made a node for every ref
with a leaf span and dropped the ones without a task span at the end.

Hypothesis draws tracers with shared and empty actors, empty and
non-empty refs and labels, args whose keys are not strings or shadow
``ref``/``label``, and records appended straight to ``tracer.records``
with negative, NaN or infinite times or an empty kind (``Tracer.record``
would refuse the times).  The one-pass export must return the same
events in the same key order, or raise the same ``ConfigError``
message.  ``validate_events`` must agree with the reference on drawn
events too, except for the two rules the reference lacked: ``bool``
times and phases other than ``"M"``/``"X"``, which the draws leave out.
The analyzer with its one grouping pass must give the same
``AttributionReport`` as with the reference grouping on drawn task
graphs, on the eight traced runs of perfbench's ``trace_attrib``
workload and on a traced serve session.
"""

import math
import typing

import pytest
from hypothesis import given, strategies as st

from repro.dse.report import DEFAULT_TILES
from repro.engine.trace import Tracer, TraceRecord
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.obs import analyze_critical_path, critpath, trace_document, trace_events
from repro.obs import validate_events
from repro.serve import ArrivalConfig, ServeConfig, make_tenants, run_serve
from repro.sim import SystemConfig, run_workload
from repro.workloads import MEDICAL_NAMES, denoise, get_workload


# ----------------------------------------------------------- reference
REQUIRED_EVENT_KEYS = ("ph", "ts", "dur", "pid", "tid", "name")


def _process_of(actor: str) -> str:
    """Process grouping: the actor's top-level component."""
    return actor.split(".", 1)[0] if actor else "trace"


def ref_trace_events(tracer: Tracer) -> list[dict]:
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


def ref_validate_events(events: typing.Sequence[dict]) -> None:
    if not isinstance(events, (list, tuple)):
        raise ConfigError(f"trace events must be a list, got {type(events).__name__}")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigError(f"trace event {index} is not an object: {event!r}")
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


class RefNode:
    __slots__ = ("ref", "start", "end", "deps", "defined", "leaves")

    def __init__(self, ref: str) -> None:
        self.ref = ref
        self.start = 0.0
        self.end = 0.0
        self.deps: tuple = ()
        self.defined = False
        self.leaves: list = []


def ref_build_nodes(tracer: Tracer) -> dict[str, RefNode]:
    nodes: dict[str, RefNode] = {}
    get = nodes.get
    kind_category = critpath._KIND_CATEGORY
    for rec in tracer.records:
        ref = rec.ref
        if not ref:
            continue
        kind = rec.kind
        if kind == "task":
            node = get(ref)
            if node is None:
                node = RefNode(ref)
                nodes[ref] = node
            elif node.defined:
                raise ConfigError(f"duplicate task span for ref {ref!r}")
            node.start, node.end = rec.start, rec.end
            args = rec.args
            deps = args.get("deps") if args else None
            node.deps = tuple(deps) if deps else ()
            node.defined = True
        elif kind in kind_category:
            node = get(ref)
            if node is None:
                node = RefNode(ref)
                nodes[ref] = node
            node.leaves.append(rec)
    return {ref: node for ref, node in nodes.items() if node.defined}


# ------------------------------------------------------------- helpers
def outcome(function, *args):
    """``("ok", value)`` or ``(error type, message)``.

    In a loaded event, an ``int`` time too large for a float raises
    ``OverflowError`` from ``math.isfinite`` in the reference, and must
    in ``validate_events`` too.  Tracers draw no such time: the
    reference raised it while building, before checking any event, so
    an earlier bad event went unreported; the one-pass export reports
    that event.
    """
    try:
        return "ok", function(*args)
    except (ConfigError, OverflowError) as error:
        return type(error).__name__, str(error)


def reference_export(tracer):
    events = ref_trace_events(tracer)
    ref_validate_events(events)
    return events


def assert_same_events(actual, expected):
    # repr shows dict key order and exact floats; == alone would not
    # see a reordered key.
    assert actual[0] == expected[0]
    assert repr(actual[1]) == repr(expected[1])


def reference_report(tracer, makespan=None):
    """The analyzer's outcome with the reference grouping swapped in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(critpath, "_build_nodes", ref_build_nodes)
        return outcome(analyze_critical_path, tracer, makespan)


def assert_same_report(actual, expected):
    assert actual[0] == expected[0]
    if actual[0] != "ok":
        assert actual[1] == expected[1]
        return
    got, want = actual[1], expected[1]
    assert got.makespan == want.makespan
    assert got.segments == want.segments
    assert list(got.cycles.items()) == list(want.cycles.items())
    assert list(got.detail_cycles.items()) == list(want.detail_cycles.items())


# ----------------------------------------------------------- strategies
ACTORS = st.sampled_from(
    ["", "island0.slot3", "island0.dma", "island1.net", "mesh.0,0->1,0", "mem.0",
     "core"]
)
KINDS = st.sampled_from(["task", "compute", "dma", "noc", "mem", "gather", "k"])
REFS = st.sampled_from(["", "t0.a", "t0.b", "t1.a", "tenant1.t5.div0"])
LABELS = st.sampled_from(["", "conv", "64B"])
ARG_KEYS = st.sampled_from(
    ["n", "ref", "label", "deps", 1, "1", 2.5, None, ("a", 1)]
)
ARGS = st.none() | st.dictionaries(ARG_KEYS, st.integers(-3, 3), max_size=4)
FINITE = st.floats(0.0, 1e6) | st.integers(0, 10**6)
ANY_TIME = st.floats() | st.integers(-(10**6), 10**6)


@st.composite
def recorded(draw):
    """A span through ``Tracer.record``: finite, in order."""
    start, end = sorted([draw(FINITE), draw(FINITE)])
    return (start, end, draw(ACTORS), draw(KINDS), draw(LABELS), draw(REFS), draw(ARGS))


@st.composite
def appended(draw):
    """A record appended directly: any time, any order, maybe no kind."""
    kind = draw(KINDS | st.just(""))
    return TraceRecord(
        draw(ANY_TIME), draw(ANY_TIME), draw(ACTORS), kind,
        draw(LABELS), draw(REFS), draw(ARGS),
    )


@st.composite
def tracers(draw):
    tracer = Tracer()
    for span in draw(st.lists(recorded(), max_size=12)):
        tracer.record(*span)
    direct = st.tuples(st.integers(0, 12), appended())
    for position, rec in draw(st.lists(direct, max_size=3)):
        tracer.records.insert(position, rec)
    return tracer


TASK_REFS = [f"t{i}" for i in range(6)]


@st.composite
def task_graphs(draw):
    """Task spans with drawn producer refs, plus leaf spans, some of
    them under refs that have no task span."""
    tracer = Tracer()
    refs = draw(st.lists(st.sampled_from(TASK_REFS), unique=True, max_size=6))
    spans = []
    for ref in refs:
        start, end = sorted([draw(FINITE), draw(FINITE)])
        deps = draw(st.lists(st.sampled_from(TASK_REFS), max_size=3))
        spans.append((start, end, "core", "task", ref, ref, {"deps": deps}))
    for _ in range(draw(st.integers(0, 12))):
        start, end = sorted([draw(FINITE), draw(FINITE)])
        kind = draw(
            st.sampled_from(["compute", "dma", "noc", "mem", "alloc_wait", "gather"])
        )
        ref = draw(st.sampled_from(TASK_REFS + ["orphan", ""]))
        args = draw(st.none() | st.just({"conflict": 0.25}))
        spans.append((start, end, draw(ACTORS), kind, "", ref, args))
    for span in draw(st.permutations(spans)):
        tracer.record(*span)
    if refs and draw(st.booleans()):
        tracer.record(0.0, 1.0, "core", "task", "", draw(st.sampled_from(refs)))
    return tracer


# ---------------------------------------------------------------- export
@given(tracers())
def test_export_matches_reference(tracer):
    expected = outcome(reference_export, tracer)
    assert_same_events(outcome(trace_events, tracer), expected)
    document = outcome(lambda t: trace_document(t)["traceEvents"], tracer)
    assert_same_events(document, expected)


#: Values a loaded event may hold per key, valid or not.
ODD_VALUES = {
    "ph": st.sampled_from(["X", "M"]),
    "ts": ANY_TIME | st.none() | st.just("0") | st.just(2**1024),
    "dur": ANY_TIME | st.none() | st.just([1]) | st.just(2**1024),
    "pid": st.integers(0, 3),
    "tid": st.integers(0, 3),
    "name": st.sampled_from(["", "x", 0, None]),
    "args": st.just({}),
}


@st.composite
def loaded_events(draw):
    """Events as a loaded document may hold them: valid complete events
    with up to two keys dropped or given odd values, and now and then
    not a dict at all."""
    events = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 9)) == 0:
            events.append(draw(st.sampled_from([1, "X", None, ["ph", "X"]])))
            continue
        event = {
            "ph": "X", "ts": draw(FINITE), "dur": draw(FINITE),
            "pid": 1, "tid": 1, "name": "compute:t0", "args": {},
        }
        for key in draw(st.lists(st.sampled_from(list(ODD_VALUES)), max_size=2)):
            if draw(st.booleans()):
                event.pop(key, None)
            else:
                event[key] = draw(ODD_VALUES[key])
        events.append(event)
    return events


@given(loaded_events())
def test_validate_matches_reference(events):
    assert outcome(validate_events, events) == outcome(ref_validate_events, events)


# --------------------------------------------------------- critical path
@given(task_graphs())
def test_grouping_matches_reference_on_drawn_graphs(tracer):
    expected = reference_report(tracer)
    assert_same_report(outcome(analyze_critical_path, tracer), expected)


TRACE_ATTRIB_CELLS = [
    (network, name)
    for network in (SpmDmaNetworkConfig(), SpmDmaNetworkConfig(NetworkKind.RING, 32, 2))
    for name in MEDICAL_NAMES
]


@pytest.mark.parametrize("network,name", TRACE_ATTRIB_CELLS)
def test_grouping_matches_reference_on_trace_attrib(network, name):
    tracer = Tracer()
    result = run_workload(
        SystemConfig(n_islands=3, network=network),
        get_workload(name, tiles=DEFAULT_TILES),
        tracer=tracer,
    )
    expected = reference_report(tracer, makespan=result.total_cycles)
    actual = outcome(analyze_critical_path, tracer, result.total_cycles)
    assert actual[0] == "ok" and actual[1].segments
    assert_same_report(actual, expected)
    assert_same_events(outcome(trace_events, tracer), outcome(reference_export, tracer))


def test_grouping_matches_reference_on_serve_session():
    tracer = Tracer()
    tenants = make_tenants(2, [denoise()], ArrivalConfig(rate_per_mcycle=20.0))
    result = run_serve(
        SystemConfig(n_islands=3),
        ServeConfig(tenants=tenants, duration_cycles=200_000.0),
        tracer=tracer,
    )
    expected = reference_report(tracer, makespan=result.drained_cycles)
    actual = outcome(analyze_critical_path, tracer, result.drained_cycles)
    assert actual[0] == "ok" and actual[1].segments
    assert_same_report(actual, expected)
    assert_same_events(outcome(trace_events, tracer), outcome(reference_export, tracer))
