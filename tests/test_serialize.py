"""Tests for result serialization."""

import re

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, load_trace
from repro.serve import load_serve_results
from repro.sim import SystemConfig, run_workload
from repro.sim.serialize import (
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.workloads import synthetic_workload


@pytest.fixture(scope="module")
def result():
    return run_workload(
        SystemConfig(n_islands=3), synthetic_workload(depth=2, width=2, tiles=4)
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_fields(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.workload == result.workload
        assert rebuilt.total_cycles == result.total_cycles
        assert rebuilt.energy_nj == result.energy_nj
        assert rebuilt.performance == result.performance
        assert rebuilt.energy_breakdown_nj == result.energy_breakdown_nj

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result, result], str(path), note="unit test")
        loaded = load_results(str(path))
        assert len(loaded) == 2
        assert loaded[0].total_cycles == result.total_cycles

    def test_derived_metrics_included(self, result):
        data = result_to_dict(result)
        assert data["derived"]["performance"] == pytest.approx(result.performance)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            result_from_dict({"workload": "x"})

    def test_bad_schema_version_rejected(self, result, tmp_path):
        import json

        path = tmp_path / "bad.json"
        doc = {"schema_version": 99, "results": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_results(str(path))


#: Every document loader with a header that passes its version check
#: but lacks the payload key.
LOADERS = {
    "results": (load_results, {"schema_version": 1}),
    "serve": (load_serve_results, {"schema_version": 1, "kind": "serve"}),
    "trace": (load_trace, {"otherData": {"schema_version": 1}}),
    "metrics": (MetricsRegistry.load, {"schema_version": 1}),
}

MALFORMED = {
    "array": "[1, 2, 3]",
    "invalid-json": '{"schema_version": 1,',
    "no-payload": None,  # the loader's header without its payload key
}


@pytest.mark.parametrize("flaw", sorted(MALFORMED))
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loaders_reject_malformed_documents(loader, flaw, tmp_path):
    import json

    load, header = LOADERS[loader]
    path = tmp_path / f"{loader}-{flaw}.json"
    text = MALFORMED[flaw]
    path.write_text(json.dumps(header) if text is None else text)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load(str(path))
