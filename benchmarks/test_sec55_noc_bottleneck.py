"""Section 5.5: the island-to-NoC interface is the primary bottleneck.

Paper: "In almost all island configurations, the link connecting the ABB
island to the rest of the system has been fully utilized", and there is
"little justification for enlarging the SPM<->DMA network capacity very
much beyond the bandwidth cap instituted by the NoC".

This bench measures the NoC-interface utilization directly and shows
that widening the island's NoC link lifts performance while widening the
internal network beyond the NoC cap does not.
"""

import dataclasses

from conftest import BENCH_TILES, run_once

from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim import SystemConfig, SystemModel
from repro.abb import TilePlan
from repro.core.scheduler import TileScheduler
from repro.sim.run import run_workload
from repro.workloads import get_workload


def noc_interface_utilization(config, workload):
    system = SystemModel(config)
    graph = workload.build_graph(system.library)
    for tile in range(workload.tiles):
        TileScheduler(system, TilePlan(graph, system.library), tile).run()
    system.sim.run()
    elapsed = system.sim.now
    ins = [island.noc_in.utilization(elapsed) for island in system.islands]
    return max(ins), sum(ins) / len(ins), elapsed


def generate():
    workload = get_workload("Denoise", tiles=BENCH_TILES)
    base = SystemConfig(n_islands=3)
    max_util, mean_util, _ = noc_interface_utilization(base, workload)

    perf_base = run_workload(base, workload).performance
    wider_noc = dataclasses.replace(base, noc_link_bytes_per_cycle=12.0)
    perf_wide_noc = run_workload(wider_noc, workload).performance
    wider_internal = base.with_network(
        SpmDmaNetworkConfig(NetworkKind.RING, 32, 3)
    )
    perf_wide_internal = run_workload(wider_internal, workload).performance

    return {
        "max_noc_if_utilization": max_util,
        "mean_noc_if_utilization": mean_util,
        "gain_from_2x_noc_if": perf_wide_noc / perf_base,
        "gain_from_3x_internal": perf_wide_internal / perf_base,
    }


def test_sec55_noc_bottleneck(benchmark):
    d = run_once(benchmark, generate)
    print("\n=== Section 5.5: NoC-interface bottleneck (Denoise, 3 islands) ===")
    print(
        f"    island NoC-in utilization: max={d['max_noc_if_utilization']:.1%} "
        f"mean={d['mean_noc_if_utilization']:.1%} (paper: 'fully utilized')"
    )
    print(
        f"    perf gain from 2x NoC interface: {d['gain_from_2x_noc_if']:.2f}X; "
        f"from 3x internal network: {d['gain_from_3x_internal']:.2f}X"
    )
    # The interface link saturates.
    assert d["max_noc_if_utilization"] > 0.85
    # Widening the NoC interface pays; widening the internal network
    # beyond the NoC cap pays almost nothing.
    assert d["gain_from_2x_noc_if"] > 1.3
    assert d["gain_from_3x_internal"] < 1.1
    assert d["gain_from_2x_noc_if"] > d["gain_from_3x_internal"]
