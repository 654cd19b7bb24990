"""Tests for fingerprinting and the persistent DSE result cache."""

import dataclasses
import json
import os

import pytest

from repro.abb.library import standard_library
from repro.core.allocation import first_fit
from repro.dse import cache as cache_module
from repro.dse.cache import (
    ResultCache,
    library_fingerprint,
    point_fingerprint,
    serve_point_fingerprint,
)
from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.island import NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.serve import ArrivalConfig, ServeConfig, make_tenants
from repro.dse.report import RING_LABELS, _point
from repro.sim.fingerprint import canonical_value, digest, model_digest
from repro.sim.run import DEFAULT_TILE_WINDOW, run_workload
from repro.sim.system import SystemConfig
from repro.workloads import PAPER_BENCHMARKS, get_workload, scale_workload

#: For each SystemConfig field, a value different from the default.
FIELD_ALTERNATES = {
    "n_islands": 6,
    "abb_mix": {"poly": 80, "div": 18, "sqrt": 9, "pow": 6, "sum": 9},
    "network": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=16, rings=2
    ),
    "spm_porting": SpmPorting.DOUBLE,
    "spm_sharing": True,
    "noc_link_bytes_per_cycle": 7.0,
    "mesh_link_bytes_per_cycle": 17.0,
    "n_memory_controllers": 5,
    "mc_bandwidth_gbps": 11.0,
    "mc_latency_cycles": 181.0,
    "n_cores": 5,
    "n_l2_banks": 9,
    "policy": first_fit,
    "platform_static_mw": 44_000.0,
    "distribution": "clustered",
    "faults": FaultSpec(abb_failure_fraction=0.25),
    "fault_seed": 7,
}


class TestSystemConfigFingerprint:
    def test_stable_across_instances(self):
        assert SystemConfig().fingerprint() == SystemConfig().fingerprint()

    def test_covers_every_field(self):
        """Changing any single field must change the fingerprint."""
        base = SystemConfig()
        base_fp = base.fingerprint()
        fields = {f.name for f in dataclasses.fields(SystemConfig)}
        # The alternate table must track the dataclass: a new field
        # without an alternate here should fail loudly.
        assert fields == set(FIELD_ALTERNATES), (
            "FIELD_ALTERNATES out of sync with SystemConfig"
        )
        for name, alternate in FIELD_ALTERNATES.items():
            changed = dataclasses.replace(base, **{name: alternate})
            assert changed.fingerprint() != base_fp, (
                f"fingerprint ignores field {name!r}"
            )

    def test_old_key_collision_now_distinguished(self):
        """The stale-cache bug: fields the old tuple key omitted."""
        base = SystemConfig()
        for name in (
            "abb_mix",
            "distribution",
            "noc_link_bytes_per_cycle",
            "mesh_link_bytes_per_cycle",
            "n_memory_controllers",
            "mc_bandwidth_gbps",
            "mc_latency_cycles",
            "n_cores",
            "n_l2_banks",
            "policy",
        ):
            changed = dataclasses.replace(
                base, **{name: FIELD_ALTERNATES[name]}
            )
            assert changed.fingerprint() != base.fingerprint()


class TestPointFingerprint:
    def test_workload_identity_matters(self):
        config = SystemConfig()
        denoise = get_workload("Denoise", tiles=4)
        slam = get_workload("EKF-SLAM", tiles=4)
        assert point_fingerprint(config, denoise) != point_fingerprint(
            config, slam
        )

    def test_tiles_matter(self):
        config = SystemConfig()
        assert point_fingerprint(
            config, get_workload("Denoise", tiles=4)
        ) != point_fingerprint(config, get_workload("Denoise", tiles=8))

    def test_kernel_scaling_matters(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(config, workload) != point_fingerprint(
            config, scale_workload(workload, 2.0)
        )

    def test_tile_window_matters(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(
            config, workload, tile_window=8
        ) != point_fingerprint(config, workload, tile_window=4)

    def test_explicit_library_differs_from_default(self):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=4)
        assert point_fingerprint(
            config, workload, library=standard_library()
        ) != point_fingerprint(config, workload)

    def test_library_fingerprint_is_canonical(self):
        assert library_fingerprint(None) == "standard_library"
        a = library_fingerprint(standard_library())
        b = library_fingerprint(standard_library())
        assert a == b


    def test_keys_match_the_double_walk_formula(self):
        """Canonicalizing a point's parts before digest walks them again
        and changes nothing: the one-walk keys equal the keys written by
        the double-walk formula, so existing cache entries stay valid."""
        for n_islands in (3, 24):
            for name in PAPER_BENCHMARKS:
                for network in ("Crossbar", *RING_LABELS):
                    config, workload = _point(name, n_islands, network, 16)
                    assert point_fingerprint(config, workload) == digest(
                        {
                            "config": canonical_value(config),
                            "workload": canonical_value(workload),
                            "library": library_fingerprint(None),
                            "tile_window": DEFAULT_TILE_WINDOW,
                            "model": model_digest(),
                        }
                    )
        config = SystemConfig(n_islands=6)
        serve = ServeConfig(
            tenants=make_tenants(
                2, [get_workload("Denoise", tiles=4)], ArrivalConfig()
            )
        )
        assert serve_point_fingerprint(config, serve) == digest(
            {
                "config": canonical_value(config),
                "serve": canonical_value(serve),
                "library": library_fingerprint(None),
                "model": model_digest(),
            }
        )


class TestModelDigest:
    def test_is_a_sha256_hex_digest(self):
        assert len(model_digest()) == 64
        int(model_digest(), 16)

    def test_changed_model_changes_both_fingerprints(self, monkeypatch):
        config = SystemConfig()
        workload = get_workload("Denoise", tiles=2)
        serve = ServeConfig(tenants=make_tenants(1, [workload], ArrivalConfig()))
        before = (
            point_fingerprint(config, workload),
            serve_point_fingerprint(config, serve),
        )
        monkeypatch.setattr(cache_module, "model_digest", lambda: "0" * 64)
        after = (
            point_fingerprint(config, workload),
            serve_point_fingerprint(config, serve),
        )
        assert before[0] != after[0]
        assert before[1] != after[1]

    def test_entry_from_another_model_is_a_miss(self, tmp_path, monkeypatch):
        config = SystemConfig(n_islands=3)
        workload = get_workload("Denoise", tiles=2)
        cache = ResultCache(str(tmp_path))
        monkeypatch.setattr(cache_module, "model_digest", lambda: "a" * 64)
        cache.put(
            point_fingerprint(config, workload), run_workload(config, workload)
        )
        assert cache.get(point_fingerprint(config, workload)) is not None
        monkeypatch.setattr(cache_module, "model_digest", lambda: "b" * 64)
        assert cache.get(point_fingerprint(config, workload)) is None


class TestCanonicalValue:
    def test_scalars_pass_through(self):
        assert canonical_value(3) == 3
        assert canonical_value("x") == "x"
        assert canonical_value(None) is None

    def test_dicts_sorted(self):
        assert list(canonical_value({"b": 1, "a": 2})) == ["a", "b"]

    def test_enum_and_callable(self):
        assert canonical_value(SpmPorting.DOUBLE) == ["SpmPorting", "DOUBLE"]
        assert canonical_value(first_fit).endswith("first_fit")

    def test_local_lambda_rejected(self):
        with pytest.raises(ConfigError):
            canonical_value(lambda: None)

    def test_arbitrary_object_rejected(self):
        with pytest.raises(ConfigError):
            digest(object())


class TestResultCache:
    @pytest.fixture()
    def result(self):
        return run_workload(
            SystemConfig(n_islands=3), get_workload("Denoise", tiles=2)
        )

    def test_round_trip(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "ab" + "0" * 62
        assert cache.get(fingerprint) is None
        cache.put(fingerprint, result)
        loaded = cache.get(fingerprint)
        assert loaded == result
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "cd" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "cd", f"{fingerprint}.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(fingerprint) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "ef" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "ef", f"{fingerprint}.json")
        with open(path) as handle:
            document = json.load(handle)
        document["schema_version"] = 999
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(fingerprint) is None

    def test_entry_missing_a_field_is_a_miss(self, tmp_path, result):
        cache = ResultCache(str(tmp_path))
        fingerprint = "0a" + "0" * 62
        cache.put(fingerprint, result)
        path = os.path.join(str(tmp_path), "0a", f"{fingerprint}.json")
        with open(path) as handle:
            document = json.load(handle)
        del document["result"]["total_cycles"]
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get(fingerprint) is None

    def test_len_on_missing_dir(self, tmp_path):
        assert len(ResultCache(str(tmp_path / "nope"))) == 0
