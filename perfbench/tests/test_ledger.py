import os

import pytest

from perfbench import ledger
from perfbench.ledger import (
    LAYERS,
    OTHER,
    Instrumentation,
    OpFailed,
    Ops,
    SpanLog,
    group_self_time,
    layer_of,
    rescale,
)
from repro.engine.simulator import Simulator
from repro.sim import SystemConfig, run_workload
from repro.sim.system import SystemModel
from repro.workloads import get_workload


def _repro(path):
    return os.path.join(ledger.REPRO_DIR, *path.split("/"))


ENGINE = (_repro("engine/simulator.py"), 93, "run")
CORE = (_repro("core/scheduler.py"), 191, "_run_task")
FAULTS = (_repro("faults.py"), 282, "dma_outcome")
WORKLOADS = (_repro("workloads/base.py"), 79, "build_graph")
HARNESS = (os.path.join(ledger.HARNESS_DIR, "run.py"), 1, "main")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
LEN = ("~", 0, "<built-in method builtins.len>")
STDLIB = ("/usr/lib/python3/random.py", 1, "random")


def _entry(tt, callers):
    # (cc, nc, tt, ct, callers); callers map to (cc, nc, tt, ct) edges.
    nc = sum(edge[1] for edge in callers.values()) or 1
    return (nc, nc, tt, tt, callers)


def test_layer_of_groups_by_package():
    assert layer_of(ENGINE[0]) == "engine"
    assert layer_of(FAULTS[0]) == "faults"
    assert layer_of(WORKLOADS[0]) == OTHER
    assert layer_of(HARNESS[0]) == OTHER
    assert layer_of("~") is None
    assert layer_of(STDLIB[0]) is None


def test_builtins_are_charged_to_callers_and_rescale_sums_to_wall():
    stats = {
        ENGINE: _entry(2.0, {}),
        CORE: _entry(1.0, {ENGINE: (1, 1, 1.0, 1.0)}),
        FAULTS: _entry(0.5, {CORE: (1, 1, 0.5, 0.5)}),
        HARNESS: _entry(0.25, {}),
        # heappush: 3 s from the engine, 1 s from core.
        HEAPPUSH: _entry(4.0, {ENGINE: (3, 3, 3.0, 3.0), CORE: (1, 1, 1.0, 1.0)}),
        # A stdlib function called by faults, calling a builtin itself.
        STDLIB: _entry(1.0, {FAULTS: (2, 2, 1.0, 1.0)}),
        LEN: _entry(0.5, {STDLIB: (5, 5, 0.5, 0.5)}),
    }
    totals = group_self_time(stats)
    assert set(totals) == set(LAYERS) | {OTHER}
    assert totals["engine"] == pytest.approx(5.0)
    assert totals["core"] == pytest.approx(2.0)
    assert totals["faults"] == pytest.approx(2.0)
    assert totals[OTHER] == pytest.approx(0.25)
    assert sum(totals.values()) == pytest.approx(9.25)

    scaled = rescale(totals, wall_s=0.37)
    assert sum(scaled.values()) == pytest.approx(0.37)
    assert scaled["engine"] / scaled["core"] == pytest.approx(2.5)


def test_recursion_and_callerless_builtins_go_to_other():
    stats = {
        # Self-recursive stdlib function called only by itself.
        STDLIB: _entry(1.0, {STDLIB: (3, 3, 1.0, 1.0)}),
        LEN: _entry(0.5, {}),
    }
    totals = group_self_time(stats)
    assert totals[OTHER] == pytest.approx(1.5)


def _small_run():
    return run_workload(SystemConfig(n_islands=3), get_workload("Denoise", tiles=2))


def test_wrappers_count_are_bit_neutral_and_restore_originals():
    originals = {
        (patch.cls, patch.method): patch.cls.__dict__[patch.method]
        for patch in ledger.PATCHES
    }
    clean = _small_run()
    spans = SpanLog()
    with Instrumentation(spans) as inst:
        assert Simulator.__dict__["process"] is not originals[(Simulator, "process")]
        traced = _small_run()
    assert traced == clean
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original
    assert inst.counts["sim.system_builds"] == 1
    assert inst.counts["core.tiles"] == 2
    assert inst.counts["island.ingress"] > 0
    assert inst.counts["island.bytes"] > 0
    assert len(inst.systems) == 1 and isinstance(inst.systems[0], SystemModel)
    assert [s[0] for s in spans.spans] == ["SystemModel", "build_graph"]


def test_wrappers_are_removed_when_the_pass_raises():
    original = Simulator.__dict__["process"]
    with pytest.raises(RuntimeError):
        with Instrumentation(SpanLog()):
            raise RuntimeError("pass failed")
    assert Simulator.__dict__["process"] is original


def test_ops_counts_raises_and_failed_checks():
    spans = SpanLog()
    ops = Ops(spans)
    assert ops.call("ok", lambda x: x + 1, 1) == 2
    assert ops.call("checked", lambda: 0, check=lambda r: "zero" if r == 0 else None) == 0
    with pytest.raises(OpFailed):
        ops.call("boom", lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.errors[0] == "checked: zero"
    assert ops.errors[1].startswith("boom: ZeroDivisionError")
    assert [s[0] for s in spans.spans] == ["ok", "checked", "boom"]
    assert all(s[2] is not None for s in spans.spans)
