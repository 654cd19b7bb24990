"""Differential check: per-shape build memos against plain references.

A system build reuses what its shape fixes: island physicals and slot
layout, shared SPM bank models, mesh placement, XY link paths and NoC
link-degradation draws.  The references below are the code those memos
replaced, run fresh on every call.  Hypothesis draws island configs,
meshes and fault seeds; each memoized answer must equal its reference.
Libraries that share type names but not numbers must never share an
entry, and no run may see state left in a memo by another run.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import repro.island.island as island_module
from repro.abb import standard_library
from repro.abb.library import ABBLibrary
from repro.engine import Simulator
from repro.errors import ConfigError
from repro.faults import (
    FaultInjector,
    FaultSpec,
    _link_degraded,
    _stable_fraction,
    parse_fault_spec,
)
from repro.island import (
    Island,
    IslandConfig,
    NetworkKind,
    SpmDmaNetworkConfig,
    SpmPorting,
)
from repro.island.island import DMA_ENGINE_AREA_MM2, NOC_INTERFACE_AREA_MM2
from repro.island.spm import SPMGroup, _shared_model
from repro.noc import MeshNoC, MeshTopology
from repro.noc.mesh import _xy_path
from repro.noc.topology import Node, NodeKind, _placement
from repro.power.orion import STATIC_MW_PER_MM2, crossbar_area_mm2
from repro.power.spm_model import SPMModel
from repro.sim import SystemConfig, run_workload
from repro.workloads import get_workload


# ----------------------------------------------------------- references
def reference_area_breakdown(island):
    """Section 5.7 accounting, summed over the island's parts."""
    abb_area = sum(abb_type.area_mm2 for abb_type in island.abbs)
    spm_area = sum(group.area_mm2 for group in island.spm_groups)
    sharing_factor = 3 if island.config.spm_sharing else 1
    abb_spm_xbar = sum(
        crossbar_area_mm2(
            1, sharing_factor * group.banks, island.config.abb_spm_width_bytes
        )
        for group in island.spm_groups
    )
    return {
        "abbs": abb_area,
        "spm": spm_area,
        "abb_spm_crossbar": abb_spm_xbar,
        "spm_dma_network": island.network.area_mm2,
        "dma": DMA_ENGINE_AREA_MM2,
        "noc_interface": NOC_INTERFACE_AREA_MM2,
    }


def reference_static_power(island):
    abb_static = sum(abb_type.static_power_mw for abb_type in island.abbs)
    spm_static = sum(group.static_power_mw for group in island.spm_groups)
    breakdown = reference_area_breakdown(island)
    fixed_area = (
        breakdown["abb_spm_crossbar"] + breakdown["dma"] + breakdown["noc_interface"]
    )
    return (
        abb_static
        + spm_static
        + island.network.static_power_mw
        + STATIC_MW_PER_MM2 * fixed_area
    )


def reference_slots(config, library):
    """The slot layout: types interleaved in sorted-name order."""
    return [
        library.get(name)
        for name in sorted(config.abb_mix)
        for _ in range(config.abb_mix[name])
    ]


def reference_placement(n_islands, n_cores, n_l2_banks, n_memory_controllers):
    """Figure 4 placement on the smallest square-ish grid."""
    total = n_islands + n_cores + n_l2_banks + n_memory_controllers
    width = max(2, math.ceil(math.sqrt(total)))
    height = max(2, math.ceil(total / width))
    coords = [(x, y) for y in range(height) for x in range(width)]
    available = list(coords)
    nodes = []

    def add(kind, index, coord):
        available.remove(coord)
        nodes.append(Node(kind, index, coord[0], coord[1]))

    corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
    edges = [c for c in coords if c[0] in (0, width - 1) or c[1] in (0, height - 1)]
    mc_spots = corners + [c for c in edges if c not in corners]
    for i in range(n_memory_controllers):
        add(NodeKind.MEMORY_CONTROLLER, i, mc_spots[i])
    center = ((width - 1) / 2.0, (height - 1) / 2.0)
    central = sorted(
        available, key=lambda c: (abs(c[0] - center[0]) + abs(c[1] - center[1]), c)
    )
    for i in range(n_cores):
        add(NodeKind.CORE, i, central.pop(0))
    for i in range(n_l2_banks):
        add(NodeKind.L2_BANK, i, central.pop(0))
    for i in range(n_islands):
        add(NodeKind.ISLAND, i, available[0])
    return width, height, nodes


def reference_route(src, dst):
    """XY route: walk X first, then Y."""
    path = []
    x, y = src.x, src.y
    while x != dst.x:
        nxt = x + (1 if dst.x > x else -1)
        path.append(((x, y), (nxt, y)))
        x = nxt
    while y != dst.y:
        nxt = y + (1 if dst.y > y else -1)
        path.append(((x, y), (x, nxt)))
        y = nxt
    return path


def reference_degraded(seed, fraction, src, dst):
    return fraction > 0.0 and _stable_fraction(seed, "noc", src, dst) < fraction


def scaled_library(area_scale=1.0, power_scale=1.0):
    """The standard types under their own names, with scaled physicals."""
    library = ABBLibrary()
    for abb_type in standard_library():
        library.register(
            replace(
                abb_type,
                area_mm2=abb_type.area_mm2 * area_scale,
                static_power_mw=abb_type.static_power_mw * power_scale,
            )
        )
    return library


# ----------------------------------------------------------- strategies
TYPE_NAMES = ["div", "poly", "pow", "sqrt", "sum"]


@st.composite
def network_configs(draw):
    kind = draw(st.sampled_from(list(NetworkKind)))
    rings = draw(st.integers(1, 3)) if kind is NetworkKind.RING else 1
    return SpmDmaNetworkConfig(kind, draw(st.sampled_from([16, 32])), rings)


@st.composite
def island_configs(draw):
    names = draw(st.lists(st.sampled_from(TYPE_NAMES), min_size=1, unique=True))
    mix = {name: draw(st.integers(1, 6)) for name in draw(st.permutations(names))}
    return IslandConfig(
        abb_mix=mix,
        network=draw(network_configs()),
        spm_porting=draw(st.sampled_from(list(SpmPorting))),
        spm_sharing=draw(st.booleans()),
        noc_link_bytes_per_cycle=draw(st.sampled_from([4.0, 6.0])),
        abb_spm_width_bytes=draw(st.sampled_from([8, 16])),
    )


def assert_matches_reference(island, library):
    assert island.abbs == reference_slots(island.config, library)
    assert island.area_breakdown_mm2() == reference_area_breakdown(island)
    assert island.area_mm2 == sum(reference_area_breakdown(island).values())
    assert island.static_power_mw == reference_static_power(island)
    for name in set(island.config.abb_mix):
        slots = [i for i, t in enumerate(island.abbs) if t.name == name]
        assert island.slots_of_type(name) == slots
        assert island.usable_counts[name] == len(slots)


# ---------------------------------------------------------------- islands
@given(island_configs(), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_island_physicals_match_reference(config, area_scale, power_scale):
    # The second island of a shape reads the memo the first one filled.
    for library in (standard_library(), standard_library()):
        assert_matches_reference(Island(Simulator(), 0, config, library), library)
    scaled = scaled_library(area_scale, power_scale)
    assert_matches_reference(Island(Simulator(), 1, config, scaled), scaled)


def test_libraries_sharing_type_names_never_share_an_entry():
    config = IslandConfig(abb_mix={"poly": 3, "div": 2})
    base = Island(Simulator(), 0, config, standard_library())
    bigger = Island(Simulator(), 0, config, scaled_library(area_scale=2.0))
    leakier = Island(Simulator(), 0, config, scaled_library(power_scale=2.0))
    assert bigger.area_breakdown_mm2()["abbs"] == 2 * base.area_breakdown_mm2()["abbs"]
    assert bigger.static_power_mw == base.static_power_mw
    assert leakier.area_mm2 == base.area_mm2
    assert leakier.static_power_mw > base.static_power_mw
    for island in (base, bigger, leakier):
        assert island.static_power_mw == reference_static_power(island)


def test_area_breakdown_is_a_copy():
    config = IslandConfig(abb_mix={"sum": 2})
    island = Island(Simulator(), 0, config, standard_library())
    island.area_breakdown_mm2()["abbs"] = -1.0
    again = Island(Simulator(), 1, config, standard_library())
    assert again.area_breakdown_mm2() == reference_area_breakdown(again)


def test_spm_groups_share_one_model_per_bank_shape():
    poly = standard_library().get("poly")
    a, b = SPMGroup(poly, SpmPorting.EXACT), SPMGroup(poly, SpmPorting.EXACT)
    assert a._model is b._model
    assert a._model == SPMModel(poly.spm_bank_bytes, 1)
    assert SPMGroup(poly, SpmPorting.DOUBLE)._model.ports == 2
    # Each group keeps its own byte counters.
    a.record_read(64)
    assert (a.bytes_read, b.bytes_read) == (64, 0.0)


@given(st.integers(1, 1 << 16), st.integers(1, 3), st.floats(0.0, 1e6))
def test_spm_energy_coefficient_matches_per_access_formula(bank_bytes, ports, nbytes):
    kib = bank_bytes / 1024
    per_byte_pj = 0.35 * (max(kib, 1.0) ** 0.25)
    expected = per_byte_pj * nbytes * 1e-3
    assert SPMModel(bank_bytes, ports).access_energy_nj(nbytes) == expected


# ------------------------------------------------------------------- mesh
MESH_SHAPES = st.tuples(
    st.integers(1, 30), st.integers(0, 6), st.integers(0, 10), st.integers(1, 4)
)


@given(MESH_SHAPES, st.data())
def test_mesh_placement_and_routes_match_reference(shape, data):
    width, height, nodes = reference_placement(*shape)
    for _ in range(2):  # the second topology of a shape reads the memo
        topology = MeshTopology(*shape)
        assert (topology.width, topology.height) == (width, height)
        assert topology.nodes == nodes
        for node in nodes:
            assert topology.node(node.kind, node.index) is not None
            assert topology.node(node.kind, node.index) == node
    src, dst = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    expected = reference_route(src, dst)
    assert MeshNoC.route(src, dst) == expected
    path = _xy_path(src.x, src.y, dst.x, dst.y)
    assert [link for link, _ in path] == expected
    assert [name for _, name in path] == [f"link{a}->{b}" for a, b in expected]


def test_topology_node_rejects_missing_nodes():
    topology = MeshTopology(3)
    with pytest.raises(ConfigError, match="no such node 'island3'"):
        topology.island(3)
    with pytest.raises(ConfigError, match="no such node 'mc4'"):
        topology.memory_controller(4)


def test_mesh_nodes_list_is_per_topology():
    a = MeshTopology(4)
    a.nodes.clear()
    assert MeshTopology(4).nodes


# ----------------------------------------------------------------- faults
@given(
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
)
def test_link_degradation_matches_reference(seed, fraction, src, dst):
    injector = FaultInjector(FaultSpec(noc_degrade_fraction=fraction), seed)
    expected = reference_degraded(seed, fraction, src, dst)
    assert injector.link_degraded(src, dst) is expected
    assert injector.link_degraded(src, dst) is expected  # a memo hit


def test_memos_are_bounded():
    limit = island_module._SHAPES_MAX
    for rate in range(1, limit + 10):
        config = IslandConfig(abb_mix={"sum": 1}, noc_link_bytes_per_cycle=float(rate))
        Island(Simulator(), 0, config, standard_library())
        assert len(island_module._SHAPES) <= limit
    for memo in (_placement, _xy_path, _link_degraded, _shared_model):
        assert memo.cache_info().maxsize is not None


# ---------------------------------------------------------- no leaked state
CONFIG_A = SystemConfig(
    n_islands=6, faults=parse_fault_spec("abb:0.25,dma:0.1,noc:0.2"), fault_seed=3
)
CONFIG_B = SystemConfig(
    n_islands=4,
    network=SpmDmaNetworkConfig(NetworkKind.RING, 16, 2),
    faults=parse_fault_spec("noc:0.5"),
    fault_seed=7,
)


def test_runs_in_any_order_are_identical(work_counts):
    # Start cold, so the first run fills every memo and the others read.
    island_module._SHAPES.clear()
    for memo in (_placement, _xy_path, _link_degraded, _shared_model):
        memo.cache_clear()
    workload = get_workload("EKF-SLAM", tiles=4)
    outcomes = []
    for config in (CONFIG_A, CONFIG_B, CONFIG_A, CONFIG_B):
        result = run_workload(config, workload)
        outcomes.append((result, work_counts.take()))
    assert outcomes[0] == outcomes[2]
    assert outcomes[1] == outcomes[3]
    assert outcomes[0][0] != outcomes[1][0]
