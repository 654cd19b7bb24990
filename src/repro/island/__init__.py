"""ABB island microarchitecture.

An island (paper Section 3.1) bundles a set of ABBs, per-ABB SPM bank
groups, a DMA engine, a pair of internal networks (ABB<->SPM and
SPM<->DMA) and one NoC interface.  This package provides the three
SPM<->DMA network designs evaluated in the paper (proxy crossbar,
chaining-optimized crossbar, k-ring), the SPM porting/sharing options, and
the island assembly with its area/energy breakdown.  Each part is split
once into what its shape fixes, shared read-only by every island built
from it (``IslandShape``, ``NetworkShape``, ``SPMGroup``), and what a
run changes (``Island``, ``SpmDmaNetwork``, the island's ``SpmEnd``).
"""

from repro.island.config import (
    IslandConfig,
    NetworkKind,
    SpmDmaNetworkConfig,
    SpmPorting,
)
from repro.island.spm import SPMGroup
from repro.island.networks import NetworkShape, SpmDmaNetwork
from repro.island.island import Island

__all__ = [
    "Island",
    "IslandConfig",
    "NetworkKind",
    "NetworkShape",
    "SpmDmaNetwork",
    "SpmDmaNetworkConfig",
    "SpmPorting",
]
