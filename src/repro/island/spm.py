"""Per-ABB SPM bank groups.

Each ABB slot has a group of SPM banks sized by its type (``spm_banks_min``
banks at peak throughput).  Section 5.4's porting study is modeled as a
small residual bank-conflict penalty on compute time: with exact porting a
software-managed layout removes *almost* all conflicts (a ~2 % residue
remains); doubling the ports removes the residue entirely but pays area
and leakage for every extra port.
"""

from __future__ import annotations

from repro.abb.types import ABBType
from repro.island.config import SpmPorting
from repro.power.spm_model import SPMModel

#: Fraction of compute time lost to residual bank conflicts with exact
#: porting (software data layout removes almost all conflicts, Sec. 5.4).
EXACT_PORTING_CONFLICT_PENALTY = 0.02


class SPMGroup:
    """The SPM banks dedicated to one ABB slot of ``abb_type`` under
    ``porting``: bank count, bank model (its ports per bank), conflict
    penalty and physicals.

    Read-only: an island shape holds one group per ABB type, shared by
    every slot of that type on every island built from the shape; the
    island's SPM end keeps each slot's byte counters.
    """

    __slots__ = ("banks", "model", "conflict_penalty", "area_mm2", "static_power_mw")

    def __init__(self, abb_type: ABBType, porting: SpmPorting) -> None:
        self.banks = abb_type.spm_banks_min
        self.model = model = SPMModel(abb_type.spm_bank_bytes, porting.value)
        #: Multiplicative compute-time penalty from bank conflicts.
        self.conflict_penalty = (
            EXACT_PORTING_CONFLICT_PENALTY if porting is SpmPorting.EXACT else 0.0
        )
        #: Total silicon area, mm^2, and leakage, mW, of the banks.
        self.area_mm2 = self.banks * model.area_mm2
        self.static_power_mw = self.banks * model.static_power_mw
