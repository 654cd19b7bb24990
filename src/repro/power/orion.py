"""Orion-style interconnect energy and area models.

The paper models ring routers and links with Orion [24].  We use simple
analytic forms whose constants are calibrated so the *relative* area
numbers published in Sections 5.1, 5.2 and 5.7 hold:

* an ABB sharing the SPMs of its immediate neighbours grows its ABB<->SPM
  crossbar ~3X (follows structurally: 3X the banks are reachable);
* the SPM banks of an ABB are ~20 % of its private crossbar's area;
* a chaining-optimized SPM<->DMA crossbar is >99 % of a 40-ABB island;
* the proxy crossbar is ~44-50 % of a large island;
* ring networks span ~16-40 % of island area across 1-ring/16 B .. 3-ring/32 B.

Crossbar area scales with requestors x targets x width (wire dominated);
ring-router area has a per-ring fixed part plus a width-proportional part.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Crossbar area per (requestor-port x target-port x byte-of-width), mm^2.
XBAR_AREA_PER_PORT2_BYTE = 0.00114

#: Fixed area of one ring router, per ring, mm^2.
RING_ROUTER_FIXED_AREA = 0.022

#: Width-dependent ring-router area, per byte of link width per ring, mm^2.
RING_ROUTER_AREA_PER_BYTE = 0.000275

#: Ring link area per byte of width per mm of length, mm^2 (wiring tracks).
LINK_AREA_PER_BYTE_MM = 0.00002

#: Dynamic energy of one ring-router traversal, pJ per byte.
RING_HOP_ENERGY_PJ_PER_BYTE = 0.80

#: Link dynamic energy, pJ per byte per mm.
LINK_ENERGY_PJ_PER_BYTE_MM = 0.20

#: Crossbar traversal energy: base pJ/byte scaled by sqrt(target count)
#: (wire length across the array grows with port count).
XBAR_ENERGY_BASE_PJ_PER_BYTE = 0.30

#: Leakage per mm^2 of interconnect area, mW (45 nm).
STATIC_MW_PER_MM2 = 0.50


@dataclass(frozen=True)
class RouterModel:
    """A ring-stop router: per-ring buffers, arbitration and a small switch.

    Attributes:
        width_bytes: Link (flit) width in bytes.
        rings: Number of physical rings passing through this router.
    """

    width_bytes: int
    rings: int = 1

    def __post_init__(self) -> None:
        if self.width_bytes < 1:
            raise ConfigError(f"link width must be >= 1 byte, got {self.width_bytes}")
        if self.rings < 1:
            raise ConfigError(f"ring count must be >= 1, got {self.rings}")

    @property
    def area_mm2(self) -> float:
        """Router silicon area."""
        per_ring = RING_ROUTER_FIXED_AREA + RING_ROUTER_AREA_PER_BYTE * self.width_bytes
        return self.rings * per_ring

    def hop_energy_nj(self, nbytes: float) -> float:
        """Dynamic energy to move ``nbytes`` through one router, nJ."""
        return RING_HOP_ENERGY_PJ_PER_BYTE * nbytes * 1e-3

    @property
    def static_power_mw(self) -> float:
        """Leakage power of the router."""
        return STATIC_MW_PER_MM2 * self.area_mm2


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point wire bundle.

    Attributes:
        width_bytes: Width in bytes.
        length_mm: Physical length in mm (the paper estimates link lengths
            from island size).
    """

    width_bytes: int
    length_mm: float

    def __post_init__(self) -> None:
        if self.width_bytes < 1:
            raise ConfigError(f"link width must be >= 1 byte, got {self.width_bytes}")
        if self.length_mm <= 0:
            raise ConfigError(f"link length must be positive, got {self.length_mm}")

    @property
    def area_mm2(self) -> float:
        """Wiring-track area of the link."""
        return LINK_AREA_PER_BYTE_MM * self.width_bytes * self.length_mm

    def transfer_energy_nj(self, nbytes: float) -> float:
        """Dynamic energy to move ``nbytes`` across the link, nJ."""
        return LINK_ENERGY_PJ_PER_BYTE_MM * nbytes * self.length_mm * 1e-3

    @property
    def static_power_mw(self) -> float:
        """Leakage power of the link drivers."""
        return STATIC_MW_PER_MM2 * self.area_mm2


def crossbar_area_mm2(requestors: int, targets: int, width_bytes: int) -> float:
    """Area of a requestors x targets crossbar of the given byte width.

    Wire-dominated: proportional to the port product and the width.
    """
    if requestors < 1 or targets < 1:
        raise ConfigError("crossbar needs at least one requestor and one target")
    if width_bytes < 1:
        raise ConfigError(f"crossbar width must be >= 1 byte, got {width_bytes}")
    return XBAR_AREA_PER_PORT2_BYTE * requestors * targets * width_bytes


def crossbar_pj_per_byte(targets: int) -> float:
    """Traversal energy per byte of a crossbar, pJ.

    Wire length across the array grows with the number of target ports,
    so per-byte energy scales with sqrt(targets).  A crossbar's port
    count is fixed, so its owner computes this once.
    """
    if targets < 1:
        raise ConfigError("crossbar needs at least one target")
    return XBAR_ENERGY_BASE_PJ_PER_BYTE * (targets ** 0.5)


def crossbar_static_power_mw(requestors: int, targets: int, width_bytes: int) -> float:
    """Leakage power of a crossbar, mW."""
    return STATIC_MW_PER_MM2 * crossbar_area_mm2(requestors, targets, width_bytes)
