"""repro — accelerator-rich architecture simulator.

A from-scratch reproduction of "Accelerator-Rich Architectures:
Opportunities and Progresses" (Cong et al., DAC 2014): the ARC / CHARM /
CAMEL architecture generations, the ABB-island microarchitecture design
space (SPM<->DMA networks, SPM porting and sharing), the compiler that
lowers kernels to ABB flow graphs, the ABC runtime composer, and the
full evaluation harness behind the paper's Figures 1-10.

Quick start::

    from repro import best_paper_config, get_workload, run_workload

    result = run_workload(best_paper_config(), get_workload("Denoise"))
    print(result.performance, result.energy_per_tile_nj)
"""

from repro.abb import (
    ABBFlowGraph,
    ABBLibrary,
    ABBType,
    PAPER_ABB_MIX,
    standard_library,
)
from repro.arch import (
    best_paper_config,
    run_arc,
    run_camel,
    run_charm,
)
from repro.cmp import compare_to_cmp, xeon_e5405, xeon_e5_2420
from repro.compiler import Kernel, decompose, minimum_abb_set
from repro.core import (
    AcceleratorBlockComposer,
    GlobalAcceleratorManager,
    TileScheduler,
    VirtualAccelerator,
)
from repro.errors import (
    AllocationError,
    ConfigError,
    DecompositionError,
    ReproError,
    SimulationError,
)
from repro.faults import FaultInjector, FaultSpec, FaultStats, parse_fault_spec
from repro.island import (
    Island,
    IslandConfig,
    NetworkKind,
    SpmDmaNetworkConfig,
    SpmPorting,
)
from repro.sim import SimResult, SystemConfig, SystemModel, run_workload
from repro.workloads import Workload, get_workload, paper_suite, synthetic_workload

__version__ = "1.0.0"

__all__ = [
    "ABBFlowGraph",
    "ABBLibrary",
    "ABBType",
    "AcceleratorBlockComposer",
    "AllocationError",
    "ConfigError",
    "DecompositionError",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "GlobalAcceleratorManager",
    "Island",
    "IslandConfig",
    "Kernel",
    "NetworkKind",
    "PAPER_ABB_MIX",
    "ReproError",
    "SimResult",
    "SimulationError",
    "SpmDmaNetworkConfig",
    "SpmPorting",
    "SystemConfig",
    "SystemModel",
    "TileScheduler",
    "VirtualAccelerator",
    "Workload",
    "best_paper_config",
    "compare_to_cmp",
    "decompose",
    "get_workload",
    "minimum_abb_set",
    "paper_suite",
    "parse_fault_spec",
    "run_arc",
    "run_camel",
    "run_charm",
    "run_workload",
    "standard_library",
    "synthetic_workload",
    "xeon_e5405",
    "xeon_e5_2420",
]
