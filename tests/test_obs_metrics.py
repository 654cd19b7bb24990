"""Tests for the observability metrics registry."""

import pytest

from repro.engine.stats import Histogram, UtilizationTracker
from repro.errors import ConfigError
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    serve_metrics,
    system_metrics,
)
from repro.sim import SystemConfig, run_workload
from repro.sim.system import SystemModel
from repro.workloads import denoise


class TestNaming:
    def test_hierarchical_names_accepted(self):
        registry = MetricsRegistry()
        registry.counter("island0.dma.bytes", 1.0)
        registry.gauge("abc.alloc.wait_cycles-p99", 2.0)
        assert "island0.dma.bytes" in registry

    @pytest.mark.parametrize(
        "name", ["", "a..b", "a b", "a.b!", ".leading", "trailing."]
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter(name, 0.0)

    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.b", 1.0)
        with pytest.raises(ConfigError):
            registry.gauge("a.b", 2.0)


class TestViews:
    def test_gauge_over_callable_samples_live(self):
        level = [0.0]
        registry = MetricsRegistry()
        metric = registry.gauge("queue.depth", lambda: level[0])
        level[0] = 5.0
        assert metric.values() == {"value": 5.0}

    def test_time_weighted_gauge(self):
        tracker = UtilizationTracker(capacity=4, name="abbs")
        tracker.adjust(+2, 0.0)
        tracker.adjust(-2, 10.0)
        registry = MetricsRegistry()
        metric = registry.time_weighted_gauge("abbs.busy", tracker, 20.0)
        values = metric.values()
        assert values["average"] == pytest.approx(1.0)  # 2 busy for half
        assert values["peak"] == 2.0

    def test_histogram_view_percentiles(self):
        hist = Histogram("lat")
        for value in range(1, 101):
            hist.record(float(value))
        registry = MetricsRegistry()
        values = registry.histogram("lat", hist).values()
        assert values["count"] == 100.0
        assert values["min"] == 1.0
        assert values["max"] == 100.0
        assert values["p50"] <= values["p95"] <= values["p99"]

    def test_empty_histogram_is_zeros(self):
        values = MetricsRegistry().histogram("lat", Histogram("lat")).values()
        assert set(values.values()) == {0.0}

    def test_collect_flattens(self):
        registry = MetricsRegistry()
        registry.counter("a.b", 1.0)
        hist = Histogram("h")
        hist.record(2.0)
        registry.histogram("c.d", hist)
        flat = registry.collect()
        assert flat["a.b"] == 1.0
        assert flat["c.d.count"] == 1.0
        assert "c.d.p99" in flat


class TestExport:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("island0.dma.bytes", 4096.0, help="dma traffic")
        registry.gauge("mem.mc0.utilization", 0.25)
        hist = Histogram("w")
        for value in (1.0, 2.0, 3.0):
            hist.record(value)
        registry.histogram("abc.alloc.wait_cycles", hist)
        tracker = UtilizationTracker(capacity=2, name="t")
        tracker.adjust(+1, 0.0)
        tracker.adjust(-1, 5.0)
        registry.time_weighted_gauge("island0.abb.busy", tracker, 10.0)
        return registry

    def test_json_round_trip(self):
        registry = self.make_registry()
        data = registry.to_json_dict()
        assert data["schema_version"] == METRICS_SCHEMA_VERSION
        rebuilt = MetricsRegistry.from_json_dict(data)
        assert rebuilt.names() == registry.names()
        assert rebuilt.collect() == registry.collect()
        # Kinds survive the round trip.
        assert rebuilt.get("island0.dma.bytes").kind == "counter"

    def test_save_load_round_trip(self, tmp_path):
        registry = self.make_registry()
        path = str(tmp_path / "metrics.json")
        registry.save(path)
        assert MetricsRegistry.load(path).collect() == registry.collect()

    def test_version_mismatch_rejected(self):
        data = self.make_registry().to_json_dict()
        data["schema_version"] = 999
        with pytest.raises(ConfigError):
            MetricsRegistry.from_json_dict(data)

    def test_prometheus_format(self):
        text = self.make_registry().to_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_island0_dma_bytes counter" in lines
        assert "repro_island0_dma_bytes 4096" in lines
        assert "# TYPE repro_abc_alloc_wait_cycles summary" in lines
        assert 'repro_abc_alloc_wait_cycles{quantile="0.5"} 2' in lines
        assert "repro_abc_alloc_wait_cycles_count 3" in lines
        assert "repro_island0_abb_busy_peak 1" in lines
        # Every metric line is name<space>value with a sanitized name.
        for line in lines:
            if not line.startswith("#"):
                name = line.split()[0].split("{")[0]
                assert name.startswith("repro_")
                assert "." not in name


class TestBuilders:
    def test_system_metrics_names_and_values(self):
        system = SystemModel(SystemConfig(n_islands=3))
        from repro.core import TileScheduler

        graph = denoise().build_graph(system.library)
        TileScheduler(system, graph, 0).run()
        system.sim.run()
        registry = system_metrics(system, system.sim.now)
        names = registry.names()
        assert "island0.dma.bytes" in names
        assert "abc.alloc.wait_cycles" in names
        assert "mesh.byte_hops" in names
        assert "mem.mc0.bytes" in names
        assert "energy.total_nj" in names
        flat = registry.collect()
        assert flat["island0.dma.bytes"] > 0
        assert flat["abc.alloc.grants"] == len(graph.tasks)
        total_mc = sum(
            flat[f"mem.mc{i}.bytes"]
            for i in range(system.config.n_memory_controllers)
        )
        assert total_mc == pytest.approx(system.memory.total_bytes())

    def test_serve_metrics_per_tenant(self):
        from repro.serve import ArrivalConfig, ServeConfig, make_tenants, run_serve

        tenants = make_tenants(
            2, [denoise()], ArrivalConfig(rate_per_mcycle=20.0)
        )
        result = run_serve(
            SystemConfig(n_islands=3),
            ServeConfig(tenants=tenants, duration_cycles=200_000.0),
        )
        registry = serve_metrics(result)
        flat = registry.collect()
        assert flat["serve.t0.offered"] == result.tenants[0].offered
        assert flat["serve.t1.goodput"] == result.tenants[1].goodput
        assert flat["serve.offered"] == result.offered
        assert flat["serve.jain_fairness"] == result.jain_fairness
        # Round-trips like any registry (the --metrics-out contract).
        rebuilt = MetricsRegistry.from_json_dict(registry.to_json_dict())
        assert rebuilt.collect() == flat
