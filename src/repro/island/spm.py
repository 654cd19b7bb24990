"""Per-ABB SPM bank groups.

Each ABB slot has a group of SPM banks sized by its type (``spm_banks_min``
banks at peak throughput).  Section 5.4's porting study is modeled as a
small residual bank-conflict penalty on compute time: with exact porting a
software-managed layout removes *almost* all conflicts (a ~2 % residue
remains); doubling the ports removes the residue entirely but pays area
and leakage for every extra port.
"""

from __future__ import annotations

import functools

from repro.abb.types import ABBType
from repro.island.config import SpmPorting
from repro.power.spm_model import SPMModel

#: Fraction of compute time lost to residual bank conflicts with exact
#: porting (software data layout removes almost all conflicts, Sec. 5.4).
EXACT_PORTING_CONFLICT_PENALTY = 0.02

#: One immutable bank model per ``(bank_bytes, ports)``, shared by every
#: group with banks of that shape.
_shared_model = functools.lru_cache(maxsize=64)(SPMModel)


class SPMGroup:
    """The SPM banks dedicated to one ABB slot."""

    def __init__(self, abb_type: ABBType, porting: SpmPorting) -> None:
        self.abb_type = abb_type
        self.porting = porting
        self.banks = abb_type.spm_banks_min
        self.ports_per_bank = porting.value
        self._model = _shared_model(abb_type.spm_bank_bytes, self.ports_per_bank)
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    # --------------------------------------------------------------- timing
    def conflict_penalty(self) -> float:
        """Multiplicative compute-time penalty from bank conflicts."""
        if self.porting is SpmPorting.EXACT:
            return EXACT_PORTING_CONFLICT_PENALTY
        return 0.0

    # --------------------------------------------------------------- energy
    def record_write(self, nbytes: float) -> float:
        """Account a write of ``nbytes``; returns dynamic energy in nJ."""
        self.bytes_written += nbytes
        return self._model.access_energy_nj(nbytes)

    def record_read(self, nbytes: float) -> float:
        """Account a read of ``nbytes``; returns dynamic energy in nJ."""
        self.bytes_read += nbytes
        return self._model.access_energy_nj(nbytes)

    # ----------------------------------------------------------- physicals
    @property
    def area_mm2(self) -> float:
        """Total silicon area of the group's banks."""
        return self.banks * self._model.area_mm2

    @property
    def static_power_mw(self) -> float:
        """Total leakage of the group's banks."""
        return self.banks * self._model.static_power_mw
