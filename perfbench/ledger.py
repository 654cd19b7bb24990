"""Operation accounting and the per-layer ledger pass.

Two kinds of instrumentation, both installed from the benchmark's own
files and removed when the pass ends:

* counting wrappers around public entry points of each layer, plus
  spans around the synchronous ones (system construction, graph
  lowering, and every operation made through :class:`Ops`);
* cProfile self-time, grouped by ``repro.<package>``.

Event-returning entry points do their work later, inside
``Simulator.run`` callbacks, so their wrappers only count calls; host
time per layer comes from the profile.  cProfile inflates Python calls
unevenly (about 3x), so the grouped self-times are rescaled to sum to
the uninstrumented ``wall_s``.  Span times are rescaled by the same
factor, so every ledger second is a calibrated second like ``wall_s``.
"""

from __future__ import annotations

import collections
import cProfile
import functools
import gc
import os
import pstats
import time
import typing

import repro
from repro.core.composer import AcceleratorBlockComposer
from repro.core.scheduler import TileScheduler
from repro.engine.simulator import Simulator
from repro.island.island import Island
from repro.mem.controller import MemorySystem
from repro.noc.mesh import MeshNoC
from repro.sim.system import SystemModel
from repro.workloads.base import Workload

from perfbench.workloads import sim_digest

#: Layers reported with a self time; every other package of the program,
#: the benchmark itself and unattributable time go to :data:`OTHER`.
LAYERS = (
    "engine",
    "core",
    "island",
    "noc",
    "mem",
    "sim",
    "serve",
    "faults",
    "obs",
    "abb",
    "power",
)
OTHER = "other"

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))


class OpFailed(Exception):
    """An operation raised; it is already counted as failed."""


class SpanLog:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def seconds(self, name: str, since: int = 0) -> float:
        """Host seconds inside spans called ``name`` from index ``since``."""
        return sum(
            end - start for span_name, start, end, _ in self.spans[since:]
            if span_name == name
        )

    def export(self) -> list:
        """Spans as dicts, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start_s": start - origin,
                "dur_s": end - start,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]


class Ops:
    """Counts operations and failures; one operation is one call into the
    program (``run_workload``, ``run_serve``, an export call, ...)."""

    def __init__(self, spans: typing.Optional[SpanLog] = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.seconds: collections.Counter = collections.Counter()
        self.spans = spans

    def call(self, name: str, fn, *args, check=None, **kwargs):
        """Call ``fn``; a raise or a failed ``check(result)`` counts as a
        failure.  Raises :class:`OpFailed` when ``fn`` raised."""
        self.attempted += 1
        span = self.spans.open(name) if self.spans is not None else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        finally:
            self.seconds[name] += time.perf_counter() - start
            if span is not None:
                self.spans.close(span)
        problem = check(result) if check is not None else None
        if problem:
            self.fail(f"{name}: {problem}")
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def add(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


class Patch(typing.NamedTuple):
    cls: type
    method: str
    count: str
    #: Counter summing a byte-size argument, and that argument's index.
    bytes_key: typing.Optional[str] = None
    bytes_arg: int = 0
    #: Record a span around the call (synchronous entry points only).
    span: typing.Optional[str] = None


PATCHES = (
    Patch(Simulator, "process", "engine.processes"),
    Patch(AcceleratorBlockComposer, "request", "core.abc_requests"),
    Patch(AcceleratorBlockComposer, "estimate_wait", "core.estimate_wait_calls"),
    Patch(Island, "ingress", "island.ingress", "island.bytes", 2),
    Patch(Island, "egress", "island.egress", "island.bytes", 2),
    Patch(Island, "chain_local", "island.chain_local", "island.bytes", 3),
    Patch(Island, "compute", "island.computes"),
    Patch(MeshNoC, "transfer", "noc.transfers"),
    Patch(MemorySystem, "access", "mem.accesses", "mem.bytes", 1),
    Patch(MemorySystem, "access_fast", "mem.accesses", "mem.bytes", 1),
    Patch(SystemModel, "__init__", "sim.system_builds", span="SystemModel"),
    Patch(Workload, "build_graph", "sim.graph_builds", span="build_graph"),
    Patch(TileScheduler, "run", "core.tiles"),
)


class Instrumentation:
    """Installs the counting wrappers of :data:`PATCHES` while active.

    Also keeps every :class:`SystemModel` built, so heap entries and
    NoC, fault and utilization statistics can be read from them when
    the pass ends.  The wrappers call the originals unchanged, so
    simulated results are bit-identical.
    """

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.counts: collections.Counter = collections.Counter()
        self.systems: list = []
        self._saved: list = []

    def __enter__(self) -> "Instrumentation":
        for patch in PATCHES:
            original = patch.cls.__dict__[patch.method]
            self._saved.append((patch.cls, patch.method, original))
            setattr(patch.cls, patch.method, self._wrap(original, patch))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def reset(self) -> None:
        """Forget what set-up did, so counts cover one pass."""
        self.counts.clear()
        self.systems.clear()

    def _wrap(self, original, patch: Patch):
        counts = self.counts
        spans = self.spans
        key = patch.count
        if patch.span is not None:
            name = patch.span
            keep = self.systems if patch.cls is SystemModel else None

            def wrapper(*args, **kwargs):
                counts[key] += 1
                span = spans.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.close(span)
                if keep is not None:
                    keep.append(args[0])
                return result

        elif patch.bytes_key is not None:
            bytes_key = patch.bytes_key
            index = patch.bytes_arg

            def wrapper(*args, **kwargs):
                counts[key] += 1
                counts[bytes_key] += (
                    args[index] if len(args) > index else kwargs["nbytes"]
                )
                return original(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

        return functools.wraps(original)(wrapper)


# ----------------------------------------------------------- self time
def layer_of(filename: str) -> typing.Optional[str]:
    """Layer owning a profiled function's file; ``None`` for code outside
    the program and the benchmark (builtins, the standard library)."""
    if filename.startswith(REPRO_DIR + os.sep):
        head = filename[len(REPRO_DIR) + 1 :].split(os.sep, 1)[0]
        name = head[:-3] if head.endswith(".py") else head
        return name if name in LAYERS else OTHER
    if filename.startswith(HARNESS_DIR + os.sep):
        return OTHER
    return None


def group_self_time(stats: typing.Mapping) -> dict:
    """Sum profiled self time per layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``func = (filename, line, name)`` and ``callers``
    mapping each calling function to its own ``(cc, nc, tt, ct)`` edge.
    A function :func:`layer_of` does not place (a C builtin, a standard
    library function) is charged to its callers in proportion to the
    self time each edge carries, recursively, so ``heappush`` called
    from the engine counts as engine time.
    """
    memo: dict = {}

    def owners(func, visiting: frozenset) -> dict:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            entry = stats.get(func)
            callers = {
                caller: edge
                for caller, edge in (entry[4] if entry else {}).items()
                if caller != func and caller not in visiting
            }
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if not any(weights.values()):
                weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
            if not total:
                result = {OTHER: 1.0}
            else:
                result = collections.defaultdict(float)
                for caller, weight in weights.items():
                    for owner, share in owners(caller, visiting | {func}).items():
                        result[owner] += share * weight / total
        memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in owners(func, frozenset()).items():
            totals[layer] += tt * share
    return totals


def rescale(totals: typing.Mapping[str, float], wall_s: float) -> dict:
    """Scale per-layer seconds so they sum to ``wall_s``."""
    whole = sum(totals.values())
    if whole <= 0:
        return {layer: 0.0 for layer in totals}
    return {layer: value * wall_s / whole for layer, value in totals.items()}


# -------------------------------------------------------- ledger pass
def ledger_pass(workload, seed: int, wall_s: float, host_wall_s: float) -> dict:
    """Run ``workload`` once more, instrumented and profiled.

    Set-up runs under the wrappers (so its spans, such as
    ``estimate_saturation``, are recorded) but counters are reset
    before the pass, so every count covers exactly one pass.  Returns
    the per-layer metrics, the pass's ``sim_digest`` and its spans;
    metrics a workload does not produce are left out.
    """
    spans = SpanLog()
    ops = Ops(spans)
    outcome = None
    profiler = cProfile.Profile()
    with Instrumentation(spans) as inst:
        try:
            inputs = workload.setup(seed, ops)
            inst.reset()
            first_span = len(spans.spans)
            gc.collect()
            start = time.perf_counter()
            profiler.enable()
            try:
                outcome = workload.run_pass(inputs, ops)
            finally:
                profiler.disable()
                ledger_wall = time.perf_counter() - start
        except OpFailed:
            pass
        except Exception as exc:  # a broken pass is a counted failure
            ops.fail(f"ledger pass: {type(exc).__name__}: {exc}")
    if outcome is None:
        return {"ops": ops, "metrics": {}, "digest": None, "spans": spans.export()}

    factor = wall_s / ledger_wall
    self_s = rescale(group_self_time(pstats.Stats(profiler).stats), wall_s)
    counts = inst.counts
    systems = inst.systems
    heap = sum(system.sim._seq for system in systems)
    dma = counts["island.ingress"] + counts["island.egress"] + counts["island.chain_local"]
    faults = [system.fault_stats for system in systems]
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + (OTHER,)}
    metrics.update(
        {
            "engine.heap_entries": heap,
            "engine.processes": counts["engine.processes"],
            "engine.heap_entries_per_s": heap / wall_s,
            "core.tiles": counts["core.tiles"],
            "core.abc_requests": counts["core.abc_requests"],
            "core.estimate_wait_calls": counts["core.estimate_wait_calls"],
            "island.dma_calls": dma,
            "island.computes": counts["island.computes"],
            # Byte totals are float sums whose last digits depend on
            # the order of runs (see sim_digest); whole bytes repeat.
            "island.bytes": round(counts["island.bytes"]),
            "island.heap_entries_per_dma": heap / dma if dma else 0.0,
            "island.abb_util_avg": sum(
                s.average_abb_utilization(s.sim.now) for s in systems
            ) / max(len(systems), 1),
            "noc.transfers": counts["noc.transfers"],
            "noc.byte_hops": round(sum(s.noc.total_byte_hops for s in systems)),
            "noc.max_link_util": max(
                (s.noc.max_link_utilization(s.sim.now) for s in systems),
                default=0.0,
            ),
            "mem.accesses": counts["mem.accesses"],
            "mem.bytes": round(counts["mem.bytes"]),
            "sim.system_builds": counts["sim.system_builds"],
            "sim.build_s": spans.seconds("SystemModel", first_span) * factor,
            "sim.graph_build_s": spans.seconds("build_graph", first_span) * factor,
            "faults.failed_abbs": sum(f.failed_abbs for f in faults),
            "faults.dma_stalls": sum(f.dma_stalls for f in faults),
            "faults.dma_retries": sum(f.dma_retries for f in faults),
            "faults.noc_degraded": sum(f.noc_degraded_transfers for f in faults),
            "obs.export_s": (
                spans.seconds("trace_document", first_span)
                + spans.seconds("validate_events", first_span)
            ) * factor,
            "obs.critpath_s": spans.seconds("analyze_critical_path", first_span)
            * factor,
            "ledger.overhead": ledger_wall / host_wall_s - 1.0,
        }
    )
    metrics.update(outcome.stats)
    return {
        "ops": ops,
        "metrics": metrics,
        "digest": sim_digest(outcome.results),
        "spans": spans.export(),
    }
