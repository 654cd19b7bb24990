"""Tests for system assembly, distribution and data paths."""

import pytest

from repro.abb import PAPER_ABB_MIX
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, SystemModel, distribute_mix


class TestDistributeMix:
    @pytest.mark.parametrize("n_islands", [3, 6, 12, 24])
    def test_paper_mix_distributes_evenly(self, n_islands):
        per_island = distribute_mix(PAPER_ABB_MIX, n_islands)
        assert len(per_island) == n_islands
        # Totals preserved per type.
        for type_name, count in PAPER_ABB_MIX.items():
            assert sum(m.get(type_name, 0) for m in per_island) == count
        # Uniform: island sizes differ by at most a few ABBs.
        sizes = [sum(m.values()) for m in per_island]
        assert max(sizes) - min(sizes) <= len(PAPER_ABB_MIX)

    def test_three_islands_have_40_abbs_each(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 3)
        assert [sum(m.values()) for m in per_island] == [40, 40, 40]

    def test_24_islands_have_5_abbs_each(self):
        per_island = distribute_mix(PAPER_ABB_MIX, 24)
        assert all(sum(m.values()) == 5 for m in per_island)

    def test_empty_island_rejected(self):
        with pytest.raises(ConfigError):
            distribute_mix({"poly": 2}, 5)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            distribute_mix({"poly": -1}, 1)


class TestSystemConfig:
    def test_defaults_match_paper(self):
        cfg = SystemConfig()
        assert sum(cfg.abb_mix.values()) == 120
        assert cfg.n_memory_controllers == 4
        assert cfg.mc_bandwidth_gbps == 10.0
        assert cfg.mc_latency_cycles == 180.0

    def test_with_helpers(self):
        cfg = SystemConfig()
        ring = SpmDmaNetworkConfig(NetworkKind.RING, 32, 2)
        assert cfg.with_islands(24).n_islands == 24
        assert cfg.with_network(ring).network.rings == 2
        # Original untouched (frozen).
        assert cfg.n_islands == 3

    def test_label(self):
        cfg = SystemConfig(n_islands=24, network=SpmDmaNetworkConfig(NetworkKind.RING, 32, 2))
        assert cfg.label() == "24 Islands / 2-Ring, 32-Byte"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_islands=0)
        with pytest.raises(ConfigError):
            SystemConfig(n_islands=200)  # fewer ABBs than islands


NAN, INF = float("nan"), float("inf")


class TestSystemConfigBoundary:
    """Bad rates, latencies, powers and counts fail when the config is
    made, with a ConfigError naming the field, not mid-run."""

    def test_nan_platform_power_rejected(self):
        # It used to run and return energy_nj NaN.
        with pytest.raises(ConfigError, match="platform_static_mw must be finite"):
            SystemConfig(platform_static_mw=NAN)

    def test_nan_mesh_link_rate_rejected(self):
        # It used to fail mid-run: "cannot schedule at 5.0 (now=1818.4)".
        with pytest.raises(ConfigError, match="mesh_link_bytes_per_cycle"):
            SystemConfig(mesh_link_bytes_per_cycle=NAN)

    @pytest.mark.parametrize(
        "name", ["noc_link_bytes_per_cycle", "mc_bandwidth_gbps", "mc_latency_cycles"]
    )
    def test_nan_interface_and_memory_rejected(self, name):
        # They used to fail mid-run: "cannot schedule at nan".
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SystemConfig(**{name: NAN})

    def test_infinite_mesh_link_rate_rejected(self):
        # It used to run, every crossing free of occupancy.
        with pytest.raises(ConfigError, match="mesh_link_bytes_per_cycle"):
            SystemConfig(mesh_link_bytes_per_cycle=INF)

    def test_bool_island_count_rejected(self):
        # It used to run as one island.
        with pytest.raises(ConfigError, match="n_islands must be an int >= 1, got True"):
            SystemConfig(n_islands=True)

    def test_fractional_island_count_rejected(self):
        # It used to raise a TypeError from range().
        with pytest.raises(ConfigError, match="n_islands must be an int >= 1, got 2.5"):
            SystemConfig(n_islands=2.5)

    @pytest.mark.parametrize(
        "changes",
        [
            {"mesh_link_bytes_per_cycle": 0.0},
            {"mc_bandwidth_gbps": -1.0},
            {"mc_latency_cycles": -INF},
            {"platform_static_mw": "43000"},
            {"noc_link_bytes_per_cycle": True},
            {"n_cores": 0},
            {"n_memory_controllers": 0},
            {"n_l2_banks": -1},
            {"fault_seed": False},
            {"abb_mix": {"poly": True, "sum": 8}},
            {"abb_mix": {"poly": 2.0, "sum": 8}},
        ],
    )
    def test_other_bad_values_rejected(self, changes):
        with pytest.raises(ConfigError):
            SystemConfig(**changes)

    def test_zero_latency_and_power_accepted(self):
        config = SystemConfig(mc_latency_cycles=0, platform_static_mw=0.0)
        assert SystemModel(config).energy.static_power_mw > 0

    def test_fingerprints_of_valid_configs_unchanged(self):
        # Validation adds no field: these are the digests from before it.
        from repro.faults import parse_fault_spec
        from tests.test_dse_cache import FIELD_ALTERNATES

        ring = SpmDmaNetworkConfig(NetworkKind.RING, 32, 2)
        faulted = SystemConfig(
            n_islands=24,
            network=ring,
            faults=parse_fault_spec("abb:0.25,dma:0.1,noc:0.2"),
            fault_seed=3,
            mc_latency_cycles=0.0,
        )
        assert [
            SystemConfig().fingerprint()[:16],
            SystemConfig(**FIELD_ALTERNATES).fingerprint()[:16],
            faulted.fingerprint()[:16],
        ] == ["ed87b0c044bc02c4", "134630ea83cbde1e", "fff410fb0d3d016a"]


class TestSystemModel:
    def test_builds_all_islands(self):
        system = SystemModel(SystemConfig(n_islands=6))
        assert len(system.islands) == 6
        assert sum(i.n_slots for i in system.islands) == 120

    def test_data_paths_complete(self):
        system = SystemModel(SystemConfig(n_islands=3))
        done = []
        system.memory_to_island(
            0, 0, 640, stream_id=0, then=lambda: done.append(("in", system.sim.now))
        )
        system.sim.run()
        system.island_to_memory(
            0, 0, 640, stream_id=1, then=lambda: done.append(("out", system.sim.now))
        )
        system.sim.run()
        assert [tag for tag, _ in done] == ["in", "out"]
        # Memory path must include the 180-cycle controller latency.
        assert done[0][1] > 180

    def test_island_to_island_same_island_is_local_chain(self):
        system = SystemModel(SystemConfig(n_islands=3))
        before = system.noc.total_transfers
        done = []
        system.island_to_island(0, 0, 0, 1, 640, lambda: done.append(system.sim.now))
        system.sim.run()
        assert done
        assert system.noc.total_transfers == before  # no mesh crossing

    def test_cross_island_chain_uses_noc(self):
        system = SystemModel(SystemConfig(n_islands=3))
        before = system.noc.total_transfers
        system.island_to_island(0, 0, 1, 0, 640, lambda: None)
        system.sim.run()
        assert system.noc.total_transfers > before

    def test_area_scales_with_network_choice(self):
        crossbar = SystemModel(SystemConfig(n_islands=3))
        ring = SystemModel(
            SystemConfig(
                n_islands=3,
                network=SpmDmaNetworkConfig(NetworkKind.RING, 32, 1),
            )
        )
        assert crossbar.accelerator_area_mm2 > ring.accelerator_area_mm2

    def test_area_breakdown_keys(self):
        system = SystemModel(SystemConfig(n_islands=3))
        breakdown = system.area_breakdown_mm2()
        assert "spm_dma_network" in breakdown
        assert breakdown["abbs"] > 0

    def test_platform_static_power_registered(self):
        system = SystemModel(SystemConfig(n_islands=3))
        assert system.energy.static_power_mw > SystemConfig().platform_static_mw


BAD_TRANSFERS = [
    # (call, args, a pattern naming the bad input in the error)
    ("memory_to_island", (3, 0, 64, 0), "island 3"),
    ("memory_to_island", (-1, 0, 64, 0), "island -1"),
    ("island_to_memory", (3, 0, 64, 0), "island 3"),
    ("island_to_island", (0, 0, 3, 0, 64), "island 3"),
    ("island_to_island", (-1, 0, 0, 0, 64), "island -1"),
    ("memory_to_island", (0, 99, 64, 0), "slot 99"),
    ("island_to_memory", (1, -1, 64, 0), "slot -1"),
    ("island_to_island", (0, 0, 0, 99, 64), "slot 99"),
    ("island_to_island", (0, 99, 1, 0, 64), "slot 99"),
    ("memory_to_island", (0, 0, float("nan"), 0), "size.*nan"),
    ("memory_to_island", (0, 0, float("inf"), 0), "size.*inf"),
    ("island_to_memory", (0, 0, -1.0, 0), r"size.*-1\.0"),
    ("island_to_island", (0, 0, 1, 0, float("nan")), "size.*nan"),
    ("island_to_island", (0, 0, 0, 1, -64.0), r"size.*-64\.0"),
]


class TestTransferInputs:
    """A bad island, slot or size fails when the transfer is issued,
    naming the bad input, before any leg runs."""

    @pytest.mark.parametrize("call,args,named", BAD_TRANSFERS)
    def test_bad_transfer_rejected_at_issue(self, call, args, named):
        system = SystemModel(SystemConfig(n_islands=3))
        with pytest.raises(ConfigError, match=named):
            getattr(system, call)(*args, lambda: None)
        # Nothing moved: no heap entry, no DRAM bytes, no energy.
        assert system.sim._seq == 0
        assert system.memory.total_bytes() == 0.0
        assert system.energy.dynamic_nj == {}
        system.sim.run()
        assert system.sim.now == 0.0

    def test_good_transfer_after_rejected_one(self):
        """A rejected endpoint leaves nothing behind for the next call."""
        system = SystemModel(SystemConfig(n_islands=3))
        with pytest.raises(ConfigError):
            system.memory_to_island(0, 99, 64, 0, lambda: None)
        done = []
        system.memory_to_island(
            0, 0, 64, 0, lambda: done.append(system.memory.total_bytes())
        )
        system.sim.run()
        assert done == [64]


class TestTracedTransfer:
    def test_spans_follow_the_path_back_to_back(self):
        """A traced memory-to-island transfer records one span per
        stretch of its path, each starting where the previous ended.
        Island spans are labelled with the bytes, the mesh span with the
        bytes and hops."""
        tracer = Tracer()
        system = SystemModel(SystemConfig(n_islands=3), tracer=tracer)
        system.memory_to_island(1, 2, 600, stream_id=0, then=lambda: None, ref="t0.a")
        system.sim.run()
        src = system.topology.memory_controller(0)
        dst = system.topology.island(1)
        hops = len(system.noc.route(src, dst))
        spans = tracer.records
        assert [(r.actor, r.kind, r.label) for r in spans] == [
            ("mem.mc0", "mem", "600B"),
            (f"mesh.{src.x},{src.y}->{dst.x},{dst.y}", "noc", f"600B/{hops}h"),
            ("island1.noc_in", "noc_if", "600B"),
            ("island1.dma", "dma", "600B"),
            ("island1.net", "spm_net", "600B"),
        ]
        assert all(r.ref == "t0.a" for r in spans)
        assert spans[0].start == 0.0
        for before, after in zip(spans, spans[1:]):
            assert after.start == before.end
        assert spans[-1].end == system.sim.now
