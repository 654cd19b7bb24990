"""The paper's evaluated configurations.

Section 3.2/4: 120 ABBs spread over 3-24 islands; SPM<->DMA networks from
{proxy crossbar, 1-ring 16 B, 1/2/3-ring 32 B}; 4 memory controllers.
Section 5.8 singles out the best design: 24 islands, 2-ring 32-byte
links, no SPM sharing, exact SPM porting.
"""

from __future__ import annotations

from repro.island import NetworkKind, SpmDmaNetworkConfig, SpmPorting
from repro.sim.system import SystemConfig

#: Island counts explored in the paper (Section 3.2).
BASELINE_ISLAND_COUNTS = [3, 6, 12, 24]

#: SPM<->DMA networks shown in Figures 6-9, in figure order.
PAPER_NETWORKS: dict[str, SpmDmaNetworkConfig] = {
    "Crossbar": SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR),
    "1-Ring, 16-Byte": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=16, rings=1
    ),
    "1-Ring, 32-Byte": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=32, rings=1
    ),
    "2-Ring, 32-Byte": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=32, rings=2
    ),
    "3-Ring, 32-Byte": SpmDmaNetworkConfig(
        kind=NetworkKind.RING, link_width_bytes=32, rings=3
    ),
}


def best_paper_config() -> SystemConfig:
    """Section 5.8's best design point: 24 islands, 2-ring 32-byte."""
    return SystemConfig(
        n_islands=24,
        network=PAPER_NETWORKS["2-Ring, 32-Byte"],
        spm_porting=SpmPorting.EXACT,
        spm_sharing=False,
    )
