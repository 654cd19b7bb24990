"""Differential check: a warm platform against a cold build.

A system build takes what its config fixes from a cached
:class:`~repro.sim.platform.Platform`: island slot layouts, SPM banks
and physicals, mesh placement, each crossing's links and
link-degradation draws, and the ABB failure plan.  The references below
are plain code run fresh on every call, and every run on a warm
platform must match a run on a platform built cold: the same result,
heap entries, energy charges in order and spans.  Libraries that share
type names but not numbers must never share a platform, and the key
must change with every config field.
"""

import contextlib
import dataclasses
import gc
import math
import types
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import repro.sim.platform as platform_module
from repro.abb import standard_library
from repro.abb.library import ABBLibrary
from repro.compiler.pf_mapping import PF_ABB_TYPE_NAME, register_fabric
from repro.engine import BandwidthServer, Simulator
from repro.engine.trace import Tracer
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultSpec, _stable_fraction, parse_fault_spec
from repro.island import (
    Island,
    IslandConfig,
    NetworkKind,
    SpmDmaNetworkConfig,
    SpmPorting,
)
from repro.island.island import (
    DMA_ENGINE_AREA_MM2,
    NOC_INTERFACE_AREA_MM2,
    IslandShape,
)
from repro.island.spm import SPMGroup
from repro.noc import MeshNoC, MeshTopology
from repro.noc.mesh import xy_path
from repro.noc.topology import Node, NodeKind
from repro.power import EnergyAccount
from repro.island.networks import FLOORPLAN_MM2_PER_SLOT
from repro.power.orion import (
    STATIC_MW_PER_MM2,
    LinkModel,
    RouterModel,
    crossbar_area_mm2,
    crossbar_static_power_mw,
)
from repro.power.spm_model import SPMModel
from repro.sim import SystemConfig, SystemModel, run_workload
from repro.sim.platform import (
    MESH_ROUTER_STATIC_MW,
    clear_platforms,
    platform_for,
    platform_key,
)
from repro.sim.run import simulate
from repro.workloads import get_workload, synthetic_workload
from tests.test_dse_cache import FIELD_ALTERNATES
from tests.test_island_island import move


# ----------------------------------------------------------- references
def reference_spm(island):
    """Each slot's SPM banks: bank count and bank model."""
    ports = island.config.spm_porting.value
    return [
        (abb_type.spm_banks_min, SPMModel(abb_type.spm_bank_bytes, ports))
        for abb_type in island.abbs
    ]


def reference_network(island):
    """The SPM<->DMA network's area and leakage, from the Orion formulas."""
    network = island.config.network
    banks = [count for count, _ in reference_spm(island)]
    total, width, rings = sum(banks), network.link_width_bytes, network.rings
    if network.kind is NetworkKind.RING:
        nodes = len(banks) + 1
        router = RouterModel(width, rings)
        perimeter = 4.0 * math.sqrt(FLOORPLAN_MM2_PER_SLOT * len(banks))
        link = LinkModel(width, perimeter / nodes)
        return (
            nodes * router.area_mm2 + nodes * rings * link.area_mm2,
            nodes * router.static_power_mw + nodes * rings * link.static_power_mw,
        )
    if network.kind is NetworkKind.PROXY_CROSSBAR:
        ports = (1, total)
    else:
        ports = (total, total + 1)
    return crossbar_area_mm2(*ports, width), crossbar_static_power_mw(*ports, width)


def reference_area_breakdown(island):
    """Section 5.7 accounting, summed over the island's parts."""
    abb_area = sum(abb_type.area_mm2 for abb_type in island.abbs)
    spm = reference_spm(island)
    spm_area = sum(banks * model.area_mm2 for banks, model in spm)
    sharing_factor = 3 if island.config.spm_sharing else 1
    abb_spm_xbar = sum(
        crossbar_area_mm2(1, sharing_factor * banks, island.config.abb_spm_width_bytes)
        for banks, _ in spm
    )
    return {
        "abbs": abb_area,
        "spm": spm_area,
        "abb_spm_crossbar": abb_spm_xbar,
        "spm_dma_network": reference_network(island)[0],
        "dma": DMA_ENGINE_AREA_MM2,
        "noc_interface": NOC_INTERFACE_AREA_MM2,
    }


def reference_static_power(island):
    abb_static = sum(abb_type.static_power_mw for abb_type in island.abbs)
    spm_static = sum(
        banks * model.static_power_mw for banks, model in reference_spm(island)
    )
    breakdown = reference_area_breakdown(island)
    fixed_area = (
        breakdown["abb_spm_crossbar"] + breakdown["dma"] + breakdown["noc_interface"]
    )
    return (
        abb_static
        + spm_static
        + reference_network(island)[1]
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


def scaled_library(area_scale=1.0, power_scale=1.0, energy_scale=1.0):
    """The standard types under their own names, with scaled physicals."""
    library = ABBLibrary()
    for abb_type in standard_library():
        library.register(
            replace(
                abb_type,
                area_mm2=abb_type.area_mm2 * area_scale,
                static_power_mw=abb_type.static_power_mw * power_scale,
                energy_per_invocation_nj=abb_type.energy_per_invocation_nj
                * energy_scale,
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


#: Small mixes, every type present so any synthetic graph composes.
MIXES = (
    {"poly": 6, "div": 3, "sqrt": 2, "pow": 2, "sum": 2},
    {"sum": 2, "pow": 1, "sqrt": 1, "div": 2, "poly": 4},
)
FAULT_SPECS = ("", "abb:0.25", "dma:0.15,dmadrop:0.05", "abb:0.25,dma:0.1,noc:0.3")


@st.composite
def system_configs(draw):
    return SystemConfig(
        n_islands=draw(st.integers(1, 5)),
        abb_mix=dict(draw(st.sampled_from(MIXES))),
        network=draw(network_configs()),
        spm_porting=draw(st.sampled_from(list(SpmPorting))),
        spm_sharing=draw(st.booleans()),
        noc_link_bytes_per_cycle=draw(st.sampled_from([4.0, 6.0])),
        mesh_link_bytes_per_cycle=draw(st.sampled_from([8.0, 16.0])),
        n_memory_controllers=draw(st.integers(1, 4)),
        distribution=draw(st.sampled_from(["uniform", "clustered"])),
        faults=parse_fault_spec(draw(st.sampled_from(FAULT_SPECS))),
        fault_seed=draw(st.integers(0, 3)),
    )


#: Libraries sharing the standard type names, told apart by numbers.
LIBRARIES = (
    lambda: None,
    standard_library,
    lambda: scaled_library(area_scale=2.0),
    lambda: scaled_library(power_scale=3.0, energy_scale=0.5),
)
libraries = st.sampled_from(LIBRARIES).map(lambda make: make())


def make_island(config, library, island_id=0):
    return Island(Simulator(), island_id, IslandShape(config, library))


def assert_matches_reference(island, library):
    assert island.abbs == reference_slots(island.config, library)
    assert island.area_breakdown_mm2() == reference_area_breakdown(island)
    assert island.area_mm2 == sum(reference_area_breakdown(island).values())
    assert island.static_power_mw == reference_static_power(island)
    for name in set(island.config.abb_mix):
        slots = [i for i, t in enumerate(island.abbs) if t.name == name]
        assert island.slots_of_type(name) == slots
        assert island.usable_counts[name] == len(slots)


def observe(config, library, workload):
    """Everything a run shows: its result, heap entries, energy charges
    in order and spans."""
    sims, charges = [], []
    run, charge = Simulator.run, EnergyAccount.charge

    def counted_run(sim, *args, **kwargs):
        sims.append(sim)
        return run(sim, *args, **kwargs)

    def recorded_charge(account, category, energy_nj):
        charges.append((category, energy_nj))
        return charge(account, category, energy_nj)

    tracer = Tracer()
    with mock.patch.object(Simulator, "run", counted_run), mock.patch.object(
        EnergyAccount, "charge", recorded_charge
    ):
        result, _report = simulate(config, [workload], library=library, tracer=tracer)
    return repr(result), [sim._seq for sim in sims], charges, list(tracer.records)


# ------------------------------------------------------- cold against warm
@given(
    system_configs(),
    system_configs(),
    libraries,
    libraries,
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 4),
)
def test_warm_platform_runs_like_a_cold_build(
    config, other_config, library, other, depth, width, tiles
):
    workload = synthetic_workload(
        depth=depth, width=width, invocations=16, tiles=tiles
    )
    points = [(config, library), (config, other), (other_config, other)]
    cold = []
    for point in points:
        clear_platforms()
        cold.append(observe(*point, workload))
    # Every point again on a warm cache, each run after the others: a
    # library sharing the type names, or another config, must never
    # answer for this one.
    for _ in range(2):
        assert [observe(*point, workload) for point in points] == cold


@given(system_configs())
def test_static_power_is_summed_in_charge_order(config):
    # One leakage charge per island, then the mesh routers, then the
    # platform: the order each run once charged them, so the float.
    system = SystemModel(config)
    reference = EnergyAccount()
    for island in system.islands:
        reference.add_static_power(island.static_power_mw)
    reference.add_static_power(MESH_ROUTER_STATIC_MW * len(system.topology.nodes))
    reference.add_static_power(config.platform_static_mw)
    assert system.energy.static_power_mw == reference.static_power_mw


def test_every_config_field_changes_the_platform_key():
    base = SystemConfig()
    fields = {f.name for f in dataclasses.fields(SystemConfig)}
    assert fields == set(FIELD_ALTERNATES)
    keys = {platform_key(base)}
    for name, alternate in FIELD_ALTERNATES.items():
        keys.add(platform_key(dataclasses.replace(base, **{name: alternate})))
    assert len(keys) == len(fields) + 1
    # The library's content is part of the key; its identity is not.
    assert platform_key(base, standard_library()) == platform_key(
        base, standard_library()
    )
    assert platform_key(base, standard_library()) != platform_key(
        base, scaled_library(power_scale=2.0)
    )


def test_platform_holds_no_per_run_object():
    config = SystemConfig(
        n_islands=6, faults=parse_fault_spec("abb:0.25,dma:0.1,noc:0.3"), fault_seed=1
    )
    clear_platforms()
    run_workload(config, get_workload("EKF-SLAM", tiles=4), tracer=Tracer())
    platform = platform_for(config)
    assert platform.crossings  # the run filled in its crossings
    per_run = (Simulator, BandwidthServer, EnergyAccount, Tracer, SystemModel, Island)
    seen, stack = set(), [platform]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, per_run), f"platform reaches a {type(obj)}"
        if not callable(obj):  # a function reaches its module's globals
            stack.extend(gc.get_referents(obj))


# ---------------------------------------------------------------- islands
@given(island_configs(), st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_island_physicals_match_reference(config, area_scale, power_scale):
    for library in (standard_library(), standard_library()):
        assert_matches_reference(make_island(config, library), library)
    scaled = scaled_library(area_scale, power_scale)
    assert_matches_reference(make_island(config, scaled, 1), scaled)


def test_libraries_sharing_type_names_never_share_an_entry():
    config = IslandConfig(abb_mix={"poly": 3, "div": 2})
    base = make_island(config, standard_library())
    bigger = make_island(config, scaled_library(area_scale=2.0))
    leakier = make_island(config, scaled_library(power_scale=2.0))
    assert bigger.area_breakdown_mm2()["abbs"] == 2 * base.area_breakdown_mm2()["abbs"]
    assert bigger.static_power_mw == base.static_power_mw
    assert leakier.area_mm2 == base.area_mm2
    assert leakier.static_power_mw > base.static_power_mw
    for island in (base, bigger, leakier):
        assert island.static_power_mw == reference_static_power(island)
    # Nor do their platforms.
    system = SystemConfig(n_islands=2)
    standard = platform_for(system, standard_library())
    scaled = platform_for(system, scaled_library(area_scale=2.0))
    assert scaled is not standard
    assert scaled.islands[0].area_mm2 > standard.islands[0].area_mm2


def test_area_breakdown_is_a_copy():
    config = IslandConfig(abb_mix={"sum": 2})
    island = make_island(config, standard_library())
    island.area_breakdown_mm2()["abbs"] = -1.0
    assert island.area_breakdown_mm2() == reference_area_breakdown(island)
    system = SystemModel(SystemConfig(n_islands=3))
    system.area_breakdown_mm2()["abbs"] = -1.0
    again = SystemModel(SystemConfig(n_islands=3))
    assert again.islands[0].area_breakdown_mm2() == reference_area_breakdown(
        again.islands[0]
    )


def test_spm_groups_share_one_model_per_bank_shape():
    poly = standard_library().get("poly")
    a, b = SPMGroup(poly, SpmPorting.EXACT), SPMGroup(poly, SpmPorting.EXACT)
    assert a.model == b.model == SPMModel(poly.spm_bank_bytes, 1)
    assert SPMGroup(poly, SpmPorting.DOUBLE).model.ports == 2
    # An island's slots of one type share one group, model included.
    config = IslandConfig(abb_mix={"poly": 3})
    shape = IslandShape(config, standard_library())
    first, *rest = shape.spm
    assert all(group is first for group in rest)
    # Each island of the shape keeps its own byte counters.
    one, other = Island(Simulator(), 0, shape), Island(Simulator(), 1, shape)
    move(one, 0, None, 64)
    one.sim.run()
    assert (one.spm.bytes_read, other.spm.bytes_read) == ([64, 0.0, 0.0], [0.0] * 3)


@pytest.mark.parametrize("kind", list(NetworkKind))
def test_island_shape_builds_no_run_object(kind):
    """A shape's physicals are closed-form: building one makes no
    simulator, energy account or server."""
    rings = 2 if kind is NetworkKind.RING else 1
    config = IslandConfig(
        abb_mix={"poly": 3, "div": 2}, network=SpmDmaNetworkConfig(kind, 32, rings)
    )
    library = standard_library()
    run_objects = (Simulator, EnergyAccount, BandwidthServer)
    with contextlib.ExitStack() as stack:
        for cls in run_objects:
            stack.enter_context(
                mock.patch.object(cls, "__init__", side_effect=AssertionError(cls))
            )
        shape = IslandShape(config, library)
    assert shape.network.area_mm2 == reference_network(make_island(config, library))[0]


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
    topology = MeshTopology(*shape)
    assert (topology.width, topology.height) == (width, height)
    assert topology.nodes == nodes
    for node in nodes:
        assert topology.node(node.kind, node.index) == node
    src, dst = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    expected = reference_route(src, dst)
    assert MeshNoC.route(src, dst) == expected
    assert xy_path(src.x, src.y, dst.x, dst.y) == expected
    crossings = {}
    MeshNoC(Simulator(), topology, crossings).transfer(src, dst, 64.0)
    assert list(crossings.values()) == [
        (0, *(f"link{a}->{b}" for a, b in expected))
    ]


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
    assert injector.link_degraded(src, dst) is expected


@given(
    MESH_SHAPES,
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=8),
)
def test_crossings_match_reference(shape, seed, fraction, picks):
    topology = MeshTopology(*shape)
    nodes = topology.nodes
    injector = FaultInjector(FaultSpec(noc_degrade_fraction=fraction), seed)
    crossings, expected = {}, {}
    for _ in range(2):  # the second run reads the crossings the first made
        noc = MeshNoC(Simulator(), topology, crossings, fault_injector=injector)
        for i, j in picks:
            src, dst = nodes[i % len(nodes)], nodes[j % len(nodes)]
            noc.transfer(src, dst, 64.0)
            links = reference_route(src, dst)
            expected[src, dst] = (
                sum(reference_degraded(seed, fraction, a, b) for a, b in links),
                *(f"link{a}->{b}" for a, b in links),
            )
        assert len(crossings) == len(expected)
        assert set(crossings.values()) == set(expected.values())


# ---------------------------------------------------------------- library
def test_a_run_extends_only_its_own_library():
    config = SystemConfig(n_islands=2)
    clear_platforms()
    system = SystemModel(config)
    platform = platform_for(config)
    register_fabric(system.library)  # what CAMEL does to a run's library
    assert PF_ABB_TYPE_NAME in system.library
    assert PF_ABB_TYPE_NAME not in platform.library
    again = SystemModel(config)
    assert again.platform is platform
    assert PF_ABB_TYPE_NAME not in again.library
    # The types themselves are the platform's: no run rebuilds them.
    assert list(again.library) == list(platform.library)
    assert all(a is b for a, b in zip(again.library, platform.library))
    # A library the caller passes is used as it is.
    library = standard_library()
    assert SystemModel(config, library=library).library is library


# ------------------------------------------------------------ cache bound
def test_memos_are_bounded():
    clear_platforms()
    limit = platform_module.PLATFORM_CACHE_SIZE
    configs = [
        SystemConfig(n_islands=1, abb_mix={"sum": 1}, platform_static_mw=float(power))
        for power in range(limit + 10)
    ]
    first = platform_for(configs[0])
    for config in configs[1:limit]:
        platform_for(config)
    assert platform_for(configs[0]) is first  # a hit; now the most recent
    for config in configs[limit:]:
        platform_for(config)
        assert len(platform_module._PLATFORMS) <= limit
    assert platform_for(configs[0]) is first  # used last, so kept
    assert platform_key(configs[1]) not in platform_module._PLATFORMS  # evicted
    clear_platforms()
    assert not platform_module._PLATFORMS


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
    # Start cold, so the first run of each config builds its platform
    # and the second reads it.
    clear_platforms()
    workload = get_workload("EKF-SLAM", tiles=4)
    outcomes = []
    for config in (CONFIG_A, CONFIG_B, CONFIG_A, CONFIG_B):
        result = run_workload(config, workload)
        outcomes.append((result, work_counts.take()))
    assert outcomes[0] == outcomes[2]
    assert outcomes[1] == outcomes[3]
    assert outcomes[0][0] != outcomes[1][0]
