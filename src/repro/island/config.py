"""Island configuration: the paper's design-space axes.

Section 3.2 defines the explored parameters: SPM<->DMA network topology
(proxy crossbar / chaining-optimized crossbar / unidirectional rings),
ring link width (16 or 32 bytes) and ring count (1-3), SPM porting (exact
vs doubled), and ABB<->SPM sharing (private vs neighbour-shared).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError, check_bound


class NetworkKind(enum.Enum):
    """SPM<->DMA network topology (Section 3.2)."""

    PROXY_CROSSBAR = "proxy_crossbar"
    CHAINING_CROSSBAR = "chaining_crossbar"
    RING = "ring"


class SpmPorting(enum.Enum):
    """SPM port provisioning (Section 5.4)."""

    EXACT = 1  # exactly enough ports for peak throughput
    DOUBLE = 2  # 2x over-provisioned


@dataclass(frozen=True)
class SpmDmaNetworkConfig:
    """Topology + sizing of the SPM<->DMA network.

    Attributes:
        kind: Topology choice.
        link_width_bytes: Channel width (paper evaluates 16 and 32 B).
        rings: Number of physical rings (ring topology only, 1-3).
    """

    kind: NetworkKind = NetworkKind.PROXY_CROSSBAR
    link_width_bytes: int = 32
    rings: int = 1

    def __post_init__(self) -> None:
        if self.link_width_bytes not in (16, 32):
            raise ConfigError(
                f"link width must be 16 or 32 bytes (paper design space), "
                f"got {self.link_width_bytes}"
            )
        if self.rings < 1 or self.rings > 3:
            raise ConfigError(f"ring count must be 1-3, got {self.rings}")
        if self.kind is not NetworkKind.RING and self.rings != 1:
            raise ConfigError("ring count only applies to ring networks")

    def label(self) -> str:
        """Short label used in paper-style result tables."""
        if self.kind is NetworkKind.RING:
            return f"{self.rings}-Ring, {self.link_width_bytes}-Byte"
        if self.kind is NetworkKind.PROXY_CROSSBAR:
            return "Crossbar"
        return "Chaining-Crossbar"


#: Numeric fields: ``(name, whether an int, least value, whether the
#: least is excluded)`` (see :func:`~repro.errors.check_bound`).
_BOUNDS = (
    ("noc_link_bytes_per_cycle", False, 0.0, True),
    ("dma_bytes_per_cycle", False, 0.0, True),
    ("abb_spm_width_bytes", True, 1, False),
)


@dataclass(frozen=True)
class IslandConfig:
    """Full configuration of one ABB island.

    Attributes:
        abb_mix: Type name -> count of ABBs placed on this island.
        network: SPM<->DMA network configuration.
        spm_porting: Exact or doubled SPM port provisioning.
        spm_sharing: Whether an ABB may use its immediate neighbours' SPM
            banks (Section 5.1; allocating an ABB then locks out its
            neighbours).
        noc_link_bytes_per_cycle: Bandwidth of the island's NoC interface,
            per direction.
        dma_bytes_per_cycle: DMA engine streaming rate.
        abb_spm_width_bytes: Width of the ABB<->SPM crossbar channels.
    """

    abb_mix: dict[str, int] = field(default_factory=dict)
    network: SpmDmaNetworkConfig = SpmDmaNetworkConfig()
    spm_porting: SpmPorting = SpmPorting.EXACT
    spm_sharing: bool = False
    noc_link_bytes_per_cycle: float = 6.0
    dma_bytes_per_cycle: float = 32.0
    abb_spm_width_bytes: int = 16

    def __post_init__(self) -> None:
        for name, count in self.abb_mix.items():
            check_bound(f"ABB count {name!r}", count, True, 0)
        if self.total_abbs() < 1:
            raise ConfigError("island must have at least one ABB")
        for name, *bound in _BOUNDS:
            check_bound(name, getattr(self, name), *bound)

    def total_abbs(self) -> int:
        """Number of ABBs on the island."""
        return sum(self.abb_mix.values())
