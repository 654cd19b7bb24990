"""Tests for Chrome/Perfetto trace-event export."""

import hashlib
import json
import math

import pytest

from repro.arch.presets import PAPER_NETWORKS
from repro.engine.trace import Tracer, TraceRecord
from repro.errors import ConfigError
from repro.obs import (
    REQUIRED_EVENT_KEYS,
    TRACE_SCHEMA_VERSION,
    load_trace,
    trace_document,
    trace_events,
    validate_events,
    write_trace,
)
from repro.sim import SystemConfig, run_workload
from repro.workloads import denoise, get_workload

#: SHA-256 of the document ``repro trace EKF-SLAM --tiles 8`` writes: an
#: export change that moves one byte of a real trace shows here.
EKF_SLAM_TRACE_SHA256 = (
    "8ca485c8b56df73102a0047c7310440c3867ecf8e20869e49b1d0c145f9e48ac"
)

#: A valid complete event to mutate.
GOOD_EVENT = dict(ph="X", ts=0.0, dur=1.0, pid=1, tid=1, name="x", args={})


def make_tracer():
    t = Tracer()
    t.record(0.0, 10.0, "island0.slot3", "compute", "conv", "t0.conv", {"n": 4})
    t.record(10.0, 14.0, "island0.dma", "dma", "64B", "t0.conv")
    t.record(2.0, 8.0, "mesh.0,0->1,0", "noc", "64B/1h", "t0.div")
    return t


class TestTraceEvents:
    def test_complete_events_carry_required_keys(self):
        events = trace_events(make_tracer())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event

    def test_metadata_names_processes_and_threads(self):
        events = trace_events(make_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert process_names == {"island0", "mesh"}
        assert thread_names == {"island0.slot3", "island0.dma", "mesh.0,0->1,0"}

    def test_threads_of_one_component_share_pid(self):
        events = trace_events(make_tracer())
        by_actor = {
            e["args"]["name"]: e
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert by_actor["island0.slot3"]["pid"] == by_actor["island0.dma"]["pid"]
        assert by_actor["island0.slot3"]["pid"] != by_actor["mesh.0,0->1,0"]["pid"]

    def test_ref_and_args_exported(self):
        events = trace_events(make_tracer())
        compute = next(e for e in events if e.get("cat") == "compute")
        assert compute["args"]["ref"] == "t0.conv"
        assert compute["args"]["n"] == 4
        assert compute["name"] == "compute:t0.conv"

    def test_timestamps_are_cycles(self):
        events = trace_events(make_tracer())
        noc = next(e for e in events if e.get("cat") == "noc")
        assert noc["ts"] == 2.0
        assert noc["dur"] == 6.0

    def test_export_is_deterministic(self):
        # pid/tid come from sorted names, not record order.
        a = trace_events(make_tracer())
        reordered = Tracer()
        for rec in reversed(make_tracer().records):
            reordered.records.append(rec)
        b = trace_events(reordered)
        meta_a = [e for e in a if e["ph"] == "M"]
        meta_b = [e for e in b if e["ph"] == "M"]
        assert meta_a == meta_b

    @pytest.mark.parametrize(
        "start,end,kind,message",
        [
            (-1.0, 2.0, "k", "trace event 2 has negative ts: -1.0"),
            (1.0, 0.5, "k", "trace event 2 has negative dur: -0.5"),
            (math.nan, 1.0, "k", "trace event 2 has non-finite ts: nan"),
            (0.0, math.inf, "k", "trace event 2 has non-finite dur: inf"),
            (0.0, 1.0, "", "trace event 2 has an empty name"),
        ],
    )
    def test_each_event_is_checked_as_it_is_built(self, start, end, kind, message):
        # Records appended directly skip Tracer.record's own checks.
        tracer = Tracer()
        tracer.records.append(TraceRecord(start, end, "a", kind))
        with pytest.raises(ConfigError) as built:
            trace_events(tracer)
        assert str(built.value) == message
        with pytest.raises(ConfigError) as documented:
            trace_document(tracer)
        assert str(documented.value) == message

    def test_bool_timestamp_rejected(self):
        # Tracer.record refuses True as a start; a record appended
        # directly still fails at export, where JSON would carry `true`.
        with pytest.raises(ConfigError, match="must be int or float, got True"):
            Tracer().record(True, 3, "a", "k")
        tracer = Tracer()
        tracer.records.append(TraceRecord(True, 3, "a", "k"))
        with pytest.raises(ConfigError, match="trace event 2 has non-finite ts: True"):
            trace_document(tracer)


class TestValidation:
    def test_valid_events_pass(self):
        validate_events(trace_events(make_tracer()))

    @pytest.mark.parametrize("key", list(REQUIRED_EVENT_KEYS))
    def test_missing_key_rejected(self, key):
        events = trace_events(make_tracer())
        bad = dict(next(e for e in events if e["ph"] == "X"))
        del bad[key]
        with pytest.raises(ConfigError):
            validate_events([bad])

    def test_negative_ts_rejected(self):
        event = dict(
            ph="X", ts=-1.0, dur=1.0, pid=1, tid=1, name="x", args={}
        )
        with pytest.raises(ConfigError):
            validate_events([event])

    def test_empty_name_rejected(self):
        event = dict(ph="X", ts=0.0, dur=1.0, pid=1, tid=1, name="", args={})
        with pytest.raises(ConfigError):
            validate_events([event])

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"ts": True, "dur": False}, "trace event 0 has non-finite ts: True"),
            ({"dur": True}, "trace event 0 has non-finite dur: True"),
        ],
    )
    def test_bool_times_rejected(self, changes, message):
        with pytest.raises(ConfigError) as raised:
            validate_events([{**GOOD_EVENT, **changes}])
        assert str(raised.value) == message

    @pytest.mark.parametrize("phase", ["B", "E", "C", "x", None])
    def test_unsupported_phase_named(self, phase):
        meta = trace_events(make_tracer())[0]
        with pytest.raises(ConfigError) as raised:
            validate_events([meta, {"ph": phase}])
        assert str(raised.value) == f"trace event 1 has unsupported phase {phase!r}"

    def test_missing_phase_is_a_missing_key(self):
        event = {key: value for key, value in GOOD_EVENT.items() if key != "ph"}
        with pytest.raises(ConfigError, match=r"trace event 0 missing keys \['ph'\]"):
            validate_events([event])

    def test_number_subclass_times_pass(self):
        # The fast check takes exact int/float only; subclasses other
        # than bool pass through the slow check.
        class Cycles(float):
            pass

        validate_events([{**GOOD_EVENT, "ts": Cycles(2.0), "dur": Cycles(0.0)}])


    @pytest.mark.parametrize("event", [1, "X", None, ["ph", "X"]])
    def test_non_object_event_rejected(self, event):
        with pytest.raises(ConfigError, match="trace event 1 is not an object"):
            validate_events([trace_events(make_tracer())[0], event])

    def test_non_list_events_rejected(self):
        with pytest.raises(ConfigError, match="must be a list"):
            validate_events(7)


class TestDocumentIO:
    def test_document_shape(self):
        document = trace_document(make_tracer(), note="unit")
        assert document["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        assert document["otherData"]["spans"] == 3
        assert document["otherData"]["note"] == "unit"
        assert document["displayTimeUnit"] == "ms"

    def test_write_load_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        written = write_trace(make_tracer(), path)
        loaded = load_trace(path)
        assert loaded == written

    def test_load_rejects_version_mismatch(self, tmp_path):
        path = str(tmp_path / "trace.json")
        document = write_trace(make_tracer(), path)
        document["otherData"]["schema_version"] = 99
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ConfigError):
            load_trace(path)

    def test_load_rejects_non_object_event(self, tmp_path):
        path = str(tmp_path / "trace.json")
        document = write_trace(make_tracer(), path)
        document["traceEvents"].append(3)
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ConfigError, match="is not an object"):
            load_trace(path)

    def test_real_trace_is_byte_identical(self, tmp_path):
        # What `repro trace EKF-SLAM --tiles 8 --out t8.json` writes.
        config = SystemConfig(n_islands=3, network=PAPER_NETWORKS["Crossbar"])
        workload = get_workload("EKF-SLAM", tiles=8)
        tracer = Tracer()
        run_workload(config, workload, tracer=tracer)
        path = tmp_path / "t8.json"
        write_trace(tracer, str(path), note=f"{workload.name} on {config.label()}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == EKF_SLAM_TRACE_SHA256

    def test_traced_workload_exports_loadable_trace(self, tmp_path):
        tracer = Tracer()
        run_workload(SystemConfig(n_islands=3), denoise(), tracer=tracer)
        path = str(tmp_path / "denoise.json")
        write_trace(tracer, path)
        document = load_trace(path)
        complete = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert len(complete) == len(tracer.records)
        # Task spans correlate with data-path spans through the ref.
        refs = {
            e["args"]["ref"]
            for e in complete
            if e["cat"] == "task"
        }
        assert refs  # every task exported a correlation id
        dma_refs = {
            e["args"].get("ref") for e in complete if e["cat"] == "dma"
        }
        assert dma_refs & refs
