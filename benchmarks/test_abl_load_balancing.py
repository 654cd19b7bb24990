"""Ablation: the ABC's load-balancing allocation policy.

The paper's ABC "is also capable of providing load balancing among
available compute resources to increase accelerator utilization".  This
ablation swaps the locality+load-balance policy for naive first-fit and
measures the utilization-balance and performance cost.
"""

from conftest import BENCH_TILES, run_once

from repro.core import first_fit, locality_then_load_balance
from repro.sim import SystemConfig, run_workload
from repro.sim.system import SystemModel
from repro.abb import TilePlan
from repro.core.scheduler import TileScheduler
from repro.workloads import get_workload
import dataclasses


def run_policy(policy, workload_name="Denoise", n_islands=6):
    config = dataclasses.replace(SystemConfig(n_islands=n_islands), policy=policy)
    workload = get_workload(workload_name, tiles=BENCH_TILES)
    return run_workload(config, workload)


def island_utilization_spread(policy, workload_name="Denoise", n_islands=6):
    """Max-min spread of per-island ABB utilization."""
    config = dataclasses.replace(SystemConfig(n_islands=n_islands), policy=policy)
    workload = get_workload(workload_name, tiles=BENCH_TILES)
    system = SystemModel(config)
    graph = workload.build_graph(system.library)
    for tile in range(workload.tiles):
        TileScheduler(system, TilePlan(graph, system.library), tile).run()
    system.sim.run()
    elapsed = system.sim.now
    utils = [i.average_abb_utilization(elapsed) for i in system.islands]
    return max(utils) - min(utils), utils


def generate():
    balanced = run_policy(locality_then_load_balance)
    naive = run_policy(first_fit)
    spread_balanced, _ = island_utilization_spread(locality_then_load_balance)
    spread_naive, _ = island_utilization_spread(first_fit)
    return balanced, naive, spread_balanced, spread_naive


def test_abl_load_balancing(benchmark):
    balanced, naive, spread_balanced, spread_naive = run_once(benchmark, generate)
    print("\n=== Ablation: ABC load balancing (Denoise, 6 islands) ===")
    print(
        f"    performance: balanced={balanced.performance:.2f} "
        f"first-fit={naive.performance:.2f} "
        f"({balanced.performance / naive.performance:.2f}X)"
    )
    print(
        f"    per-island utilization spread: balanced={spread_balanced:.3f} "
        f"first-fit={spread_naive:.3f}"
    )
    # Load balancing spreads work more evenly across islands...
    assert spread_balanced < spread_naive
    # ...and does not cost performance.
    assert balanced.performance >= naive.performance * 0.95
