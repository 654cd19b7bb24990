"""Scratch-pad memory (SPM) bank energy and area model.

CACTI-style analytic scaling: area grows linearly with capacity and with
port count (each extra port adds wordlines/bitlines); access energy grows
with capacity (longer bitlines) and is charged per byte.

Constants are calibrated jointly with :mod:`repro.power.orion` so the
paper's Section 5.1 ratio holds: the SPM banks allocated to an ABB are
~20 % of the area of that ABB's private ABB<->SPM crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import KIB

#: SPM area per KiB at one port, mm^2.
SPM_AREA_PER_KIB = 0.00092

#: Relative area added by each port beyond the first.
SPM_PORT_AREA_OVERHEAD = 0.6

#: Access energy, pJ per byte, for a 1 KiB bank (grows with capacity).
SPM_ACCESS_PJ_PER_BYTE_1KIB = 0.35

#: Capacity exponent for access energy (longer bitlines cost more).
SPM_ENERGY_CAPACITY_EXPONENT = 0.25

#: Leakage per mm^2 of SRAM, mW.
SPM_STATIC_MW_PER_MM2 = 0.8


@dataclass(frozen=True)
class SPMModel:
    """Physical model of one SPM bank.

    Attributes:
        bank_bytes: Bank capacity in bytes.
        ports: Number of read/write ports.
    """

    bank_bytes: int
    ports: int = 1

    def __post_init__(self) -> None:
        if self.bank_bytes <= 0:
            raise ConfigError(f"bank size must be positive, got {self.bank_bytes}")
        if self.ports < 1:
            raise ConfigError(f"bank needs >= 1 port, got {self.ports}")
        # Access energy per byte, pJ: a function of the frozen fields, so
        # it is computed once per model, not once per access.
        kib = self.bank_bytes / KIB
        object.__setattr__(
            self,
            "_per_byte_pj",
            SPM_ACCESS_PJ_PER_BYTE_1KIB
            * (max(kib, 1.0) ** SPM_ENERGY_CAPACITY_EXPONENT),
        )

    @property
    def area_mm2(self) -> float:
        """Bank area including port overhead."""
        kib = self.bank_bytes / KIB
        port_factor = 1.0 + SPM_PORT_AREA_OVERHEAD * (self.ports - 1)
        return SPM_AREA_PER_KIB * kib * port_factor

    def access_energy_nj(self, nbytes: float) -> float:
        """Dynamic energy to read or write ``nbytes``, nJ."""
        if nbytes < 0:
            raise ConfigError(f"access size must be non-negative, got {nbytes}")
        return self._per_byte_pj * nbytes * 1e-3

    @property
    def static_power_mw(self) -> float:
        """Bank leakage power."""
        return SPM_STATIC_MW_PER_MM2 * self.area_mm2
