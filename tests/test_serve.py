"""Tests for the multi-tenant open-loop serving subsystem."""

import dataclasses

import pytest

from repro.dse import ResultCache, serve_point_fingerprint
from repro.errors import ConfigError
from repro.serve import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    AdmissionFrontend,
    ArrivalConfig,
    Decision,
    ServeConfig,
    TenantSpec,
    arrival_times,
    estimate_saturation,
    jain_index,
    latency_summary,
    load_serve_results,
    make_tenants,
    mean_rate,
    run_serve,
    save_serve_results,
    serve_result_from_dict,
    serve_result_to_dict,
    trace_from_file,
)
from repro.sim import SystemConfig
from repro.sim.system import SystemModel
from repro.workloads import get_workload, synthetic_workload

#: Small-granularity request workload: 4 tasks, ~10k-cycle software path.
RPC = synthetic_workload(name="rpc", depth=2, width=2, invocations=32, tiles=16)

#: Single-island platform where ABB slots are the serving bottleneck.
TINY_MIX = {"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}


def tiny_system() -> SystemConfig:
    return SystemConfig(n_islands=1, abb_mix=dict(TINY_MIX))


# ----------------------------------------------------------------- arrivals
class TestArrivals:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(kind="uniform")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(rate_per_mcycle=0.0)

    def test_bad_dwell_rejected(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(kind="onoff", mean_on_cycles=-1.0)

    def test_trace_must_be_sorted(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(kind="trace", trace=(5.0, 2.0))
        with pytest.raises(ConfigError):
            ArrivalConfig(kind="trace", trace=(-1.0,))
        with pytest.raises(ConfigError):
            ArrivalConfig(kind="trace", trace=())

    @pytest.mark.parametrize("kind", ["poisson", "onoff"])
    def test_deterministic_for_fixed_seed(self, kind):
        config = ArrivalConfig(kind=kind, rate_per_mcycle=100.0, seed=7)
        first = arrival_times(config, 500_000, stream="3:t3")
        second = arrival_times(config, 500_000, stream="3:t3")
        assert first == second

    def test_streams_decorrelated(self):
        config = ArrivalConfig(rate_per_mcycle=100.0, seed=7)
        assert arrival_times(config, 500_000, "a") != arrival_times(
            config, 500_000, "b"
        )

    @pytest.mark.parametrize("kind", ["poisson", "onoff"])
    def test_long_run_rate_near_configured(self, kind):
        config = ArrivalConfig(kind=kind, rate_per_mcycle=200.0, seed=1)
        times = arrival_times(config, 20_000_000, stream="0")
        assert mean_rate(times, 20_000_000) == pytest.approx(200.0, rel=0.15)
        assert all(0 <= t < 20_000_000 for t in times)
        assert times == sorted(times)

    def test_trace_filtered_to_duration(self):
        config = ArrivalConfig(kind="trace", trace=(1.0, 10.0, 99.0, 500.0))
        assert arrival_times(config, 100.0) == [1.0, 10.0, 99.0]

    def test_trace_from_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("[10, 20.5, 30]")
        config = trace_from_file(str(path))
        assert config.kind == "trace"
        assert config.trace == (10.0, 20.5, 30.0)

    def test_trace_from_text_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("10  # first\n\n20.5\n30 # last\n")
        assert trace_from_file(str(path)).trace == (10.0, 20.5, 30.0)

    def test_unreadable_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("not a number\n")
        with pytest.raises(ConfigError):
            trace_from_file(str(path))


# ---------------------------------------------------------------- admission
class TestAdmission:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionConfig(policy="coin_flip")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionConfig(policy="wait_threshold", wait_bound_cycles=-1.0)
        with pytest.raises(ConfigError):
            AdmissionConfig(policy="shed", queue_bound=0)

    def _contended_frontend(self, admission):
        """A frontend over a system whose only poly slots are all busy."""
        system = SystemModel(
            SystemConfig(n_islands=1, abb_mix=dict(TINY_MIX))
        )
        graph = RPC.build_graph(system.library)
        for _ in range(TINY_MIX["poly"]):
            system.abc.request("poly")
        for _ in range(4):  # queue depth behind the busy slots
            system.abc.request("poly")
        system.sim.run()
        assert system.abc.free_count("poly") == 0
        return AdmissionFrontend(system, admission), graph

    def test_always_hw_admits_under_contention(self):
        frontend, graph = self._contended_frontend(AdmissionConfig("always_hw"))
        decision, estimate = frontend.decide(graph, software_cycles=1.0)
        assert decision is Decision.HARDWARE
        assert estimate > 0.0

    def test_wait_threshold_diverts_above_bound(self):
        frontend, graph = self._contended_frontend(
            AdmissionConfig("wait_threshold", wait_bound_cycles=0.5)
        )
        decision, estimate = frontend.decide(graph, software_cycles=1e12)
        assert estimate > 0.5
        assert decision is Decision.SOFTWARE

    def test_wait_threshold_never_admits_above_bound(self):
        # The policy invariant: HARDWARE implies estimate <= bound.
        for bound in (0.5, 10.0, 1e3, 1e6, 1e9):
            frontend, graph = self._contended_frontend(
                AdmissionConfig("wait_threshold", wait_bound_cycles=bound)
            )
            decision, estimate = frontend.decide(graph, software_cycles=1e12)
            if decision is Decision.HARDWARE:
                assert estimate <= bound
            else:
                assert estimate > bound

    def test_wait_threshold_defaults_bound_to_software_cost(self):
        frontend, graph = self._contended_frontend(
            AdmissionConfig("wait_threshold")
        )
        _, estimate = frontend.decide(graph, software_cycles=1e12)
        decision, _ = frontend.decide(graph, software_cycles=estimate / 2)
        assert decision is Decision.SOFTWARE

    def test_shed_drops_at_queue_bound(self):
        frontend, graph = self._contended_frontend(
            AdmissionConfig("shed", queue_bound=2)
        )
        decision, _ = frontend.decide(graph, software_cycles=1.0)
        assert decision is Decision.SHED

    def test_decision_counts_tracked(self):
        frontend, graph = self._contended_frontend(AdmissionConfig("always_hw"))
        frontend.decide(graph, software_cycles=1.0)
        frontend.decide(graph, software_cycles=1.0)
        assert frontend.decisions[Decision.HARDWARE] == 2


# ------------------------------------------------------------------ metrics
class TestSLOMetrics:
    def test_jain_index_extremes(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        with pytest.raises(ConfigError):
            jain_index([1.0, -1.0])

    def test_latency_summary_empty_and_filled(self):
        assert latency_summary([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0
        }
        summary = latency_summary(list(range(1, 101)))
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["max"] == 100.0


# ------------------------------------------------------------------ configs
class TestServeConfig:
    def test_needs_tenants(self):
        with pytest.raises(ConfigError):
            ServeConfig(tenants=())

    def test_duplicate_tenant_names_rejected(self):
        spec = TenantSpec(name="t0", workload=RPC)
        with pytest.raises(ConfigError):
            ServeConfig(tenants=(spec, spec))

    def test_empty_tenant_name_rejected(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="", workload=RPC)

    def test_make_tenants_cycles_workloads(self):
        other = get_workload("Denoise", tiles=4)
        tenants = make_tenants(3, [RPC, other], ArrivalConfig())
        assert [t.workload.name for t in tenants] == ["rpc", "Denoise", "rpc"]
        with pytest.raises(ConfigError):
            make_tenants(0, [RPC], ArrivalConfig())
        with pytest.raises(ConfigError):
            make_tenants(2, [], ArrivalConfig())

    def test_fingerprint_sensitive_to_every_axis(self):
        base = ServeConfig(tenants=make_tenants(2, [RPC], ArrivalConfig()))
        variants = [
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, duration_cycles=1.0),
            base.with_policy(AdmissionConfig("shed")),
            ServeConfig(
                tenants=make_tenants(
                    2, [RPC], ArrivalConfig(rate_per_mcycle=51.0)
                )
            ),
        ]
        prints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(prints) == len(variants) + 1
        assert base.fingerprint() == ServeConfig(
            tenants=make_tenants(2, [RPC], ArrivalConfig())
        ).fingerprint()

    def test_serve_point_fingerprint_covers_system(self):
        serve = ServeConfig(tenants=make_tenants(1, [RPC], ArrivalConfig()))
        assert serve_point_fingerprint(
            SystemConfig(), serve
        ) != serve_point_fingerprint(SystemConfig(n_islands=6), serve)


# ----------------------------------------------------------------- sessions
def small_session(policy="always_hw", seed=3, rate=400.0, **admission_kwargs):
    tenants = make_tenants(
        4, [RPC], ArrivalConfig(kind="poisson", rate_per_mcycle=rate)
    )
    return ServeConfig(
        tenants=tenants,
        admission=AdmissionConfig(policy, **admission_kwargs),
        duration_cycles=300_000.0,
        seed=seed,
    )


class TestServeSession:
    def test_four_tenant_session_bit_reproducible(self):
        # The ISSUE acceptance point: a 4-tenant Poisson session over the
        # shared 120-ABB paper system is a pure function of the seed.
        config = SystemConfig()  # 3 islands, 120-ABB paper mix
        serve = small_session(seed=11)
        first = run_serve(config, serve)
        second = run_serve(config, serve)
        assert first == second
        assert first.offered > 0
        assert first.completed == first.offered
        assert serve_result_to_dict(first) == serve_result_to_dict(second)

    def test_different_seed_changes_arrivals(self):
        config = tiny_system()
        a = run_serve(config, small_session(seed=1))
        b = run_serve(config, small_session(seed=2))
        assert a.offered != b.offered or a.latency_p50 != b.latency_p50

    def test_all_admitted_requests_complete(self):
        result = run_serve(tiny_system(), small_session(seed=5))
        for tenant in result.tenants:
            assert tenant.completed == tenant.offered - tenant.shed
            assert tenant.offered > 0

    def test_goodput_excludes_post_window_completions(self):
        result = run_serve(tiny_system(), small_session(seed=5))
        assert result.drained_cycles >= result.duration_cycles
        for tenant in result.tenants:
            assert tenant.goodput <= tenant.offered_load + 1e-9 or (
                tenant.goodput > 0
            )

    def test_shed_policy_drops_under_overload(self):
        result = run_serve(
            tiny_system(),
            small_session("shed", rate=1200.0, queue_bound=4),
        )
        assert result.shed > 0
        assert result.shed_rate > 0
        assert result.completed == result.offered - result.shed

    def test_saturation_estimate_positive_and_harmonic(self):
        config = tiny_system()
        single = estimate_saturation(config, [RPC])
        assert single > 0
        pair = estimate_saturation(config, [RPC, get_workload("Denoise", tiles=4)])
        assert 0 < pair < single

    def test_saturation_probe_tells_same_named_workloads_apart(self):
        # Two different workloads under one name each get their own
        # closed-loop probe, so tenant order cannot change the answer.
        config = tiny_system()
        small = synthetic_workload(
            name="rpc", depth=1, width=1, invocations=16, tiles=8
        )
        big = synthetic_workload(name="rpc", depth=4, width=3, invocations=64)
        alone = [estimate_saturation(config, [w]) for w in (small, big)]
        harmonic = 2.0 / (1.0 / alone[0] + 1.0 / alone[1])
        assert estimate_saturation(config, [small, big]) == pytest.approx(harmonic)
        assert estimate_saturation(config, [big, small]) == pytest.approx(harmonic)


class TestAdmissionImpact:
    def test_wait_threshold_beats_always_hw_on_bursty_tail(self):
        # The ISSUE acceptance point: at 0.8x measured saturation with
        # bursty arrivals, wait-time-feedback admission strictly lowers
        # p99 latency versus always-hardware, by diverting burst excess
        # to the software path (nonzero fallbacks).
        config = tiny_system()
        saturation = estimate_saturation(config, [RPC] * 4)
        rate = 0.8 * saturation / 4
        arrival = ArrivalConfig(
            kind="onoff",
            rate_per_mcycle=rate,
            mean_on_cycles=150_000,
            mean_off_cycles=150_000,
        )
        tenants = make_tenants(4, [RPC], arrival)
        serve = ServeConfig(
            tenants=tenants,
            admission=AdmissionConfig("always_hw"),
            duration_cycles=1_000_000.0,
            seed=1,
        )
        baseline = run_serve(config, serve)
        feedback = run_serve(
            config, serve.with_policy(AdmissionConfig("wait_threshold"))
        )
        assert baseline.sw_fallbacks == 0
        assert feedback.sw_fallbacks > 0
        assert feedback.latency_p99 < baseline.latency_p99
        assert feedback.offered == baseline.offered  # same arrival sample


# ------------------------------------------------------------ serialization
class TestServeSerialization:
    def test_round_trip_through_dict_and_file(self, tmp_path):
        result = run_serve(tiny_system(), small_session(seed=9))
        assert serve_result_from_dict(serve_result_to_dict(result)) == result
        path = str(tmp_path / "serve.json")
        save_serve_results([result], path, note="round trip")
        assert load_serve_results(path) == [result]

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            serve_result_from_dict({"policy": "always_hw"})

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.sim.serialize import write_document
        from repro.serve.slo import SERVE_SCHEMA_VERSION

        path = str(tmp_path / "bad.json")
        write_document(
            path,
            {
                "schema_version": SERVE_SCHEMA_VERSION,
                "kind": "sweep",
                "results": [],
            },
        )
        with pytest.raises(ConfigError):
            load_serve_results(path)

    def test_result_cache_serve_round_trip(self, tmp_path):
        config = tiny_system()
        serve = small_session(seed=13)
        result = run_serve(config, serve)
        cache = ResultCache(str(tmp_path / "cache"))
        fingerprint = serve_point_fingerprint(config, serve)
        assert cache.get_serve(fingerprint) is None
        cache.put_serve(fingerprint, result)
        assert cache.get_serve(fingerprint) == result
        # A serve entry must never surface as a closed-loop SimResult.
        assert cache.get(fingerprint) is None
        assert cache.stats()["entries"] == 1
