"""Per-ABB SPM bank groups.

Each ABB slot has a group of SPM banks sized by its type (``spm_banks_min``
banks at peak throughput).  Section 5.4's porting study is modeled as a
small residual bank-conflict penalty on compute time: with exact porting a
software-managed layout removes *almost* all conflicts (a ~2 % residue
remains); doubling the ports removes the residue entirely but pays area
and leakage for every extra port.
"""

from __future__ import annotations

import typing
from operator import attrgetter

from repro.abb.types import ABBType
from repro.island.config import SpmPorting
from repro.power.spm_model import SPMModel

#: Fraction of compute time lost to residual bank conflicts with exact
#: porting (software data layout removes almost all conflicts, Sec. 5.4).
EXACT_PORTING_CONFLICT_PENALTY = 0.02


class SpmBanks(typing.NamedTuple):
    """What one slot kind's SPM banks are, shared by every group of that
    kind: the ABB type and porting, bank count, ports per bank, bank
    model and conflict penalty."""

    abb_type: ABBType
    porting: SpmPorting
    banks: int
    ports_per_bank: int
    model: SPMModel
    conflict_penalty: float

    @classmethod
    def of(cls, abb_type: ABBType, porting: SpmPorting) -> "SpmBanks":
        """The banks of an ``abb_type`` slot under ``porting``."""
        ports = porting.value
        return cls(
            abb_type,
            porting,
            abb_type.spm_banks_min,
            ports,
            SPMModel(abb_type.spm_bank_bytes, ports),
            EXACT_PORTING_CONFLICT_PENALTY if porting is SpmPorting.EXACT else 0.0,
        )

    @property
    def area_mm2(self) -> float:
        """Total silicon area of the banks."""
        return self.banks * self.model.area_mm2

    @property
    def static_power_mw(self) -> float:
        """Total leakage of the banks."""
        return self.banks * self.model.static_power_mw


class SPMGroup:
    """The SPM banks dedicated to one ABB slot.

    The banks are a shared :class:`SpmBanks`; a group adds only its byte
    counters.  An island takes its slots' banks from its shape
    (:meth:`of`), so a build makes no enum or model lookups.
    """

    __slots__ = ("spec", "bytes_read", "bytes_written")

    def __init__(self, abb_type: ABBType, porting: SpmPorting) -> None:
        self.spec = SpmBanks.of(abb_type, porting)
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    @classmethod
    def of(cls, spec: SpmBanks) -> "SPMGroup":
        """A group of ``spec``'s banks, its counters at zero."""
        group = object.__new__(cls)
        group.spec = spec
        group.bytes_read = 0.0
        group.bytes_written = 0.0
        return group

    # The banks' fixed fields and physicals, read through from the
    # shared spec.
    abb_type = property(attrgetter("spec.abb_type"))
    porting = property(attrgetter("spec.porting"))
    banks = property(attrgetter("spec.banks"))
    ports_per_bank = property(attrgetter("spec.ports_per_bank"))
    _model = property(attrgetter("spec.model"))
    area_mm2 = property(attrgetter("spec.area_mm2"))
    static_power_mw = property(attrgetter("spec.static_power_mw"))

    # --------------------------------------------------------------- timing
    def conflict_penalty(self) -> float:
        """Multiplicative compute-time penalty from bank conflicts."""
        return self.spec.conflict_penalty

    # --------------------------------------------------------------- energy
    def record_write(self, nbytes: float) -> float:
        """Account a write of ``nbytes``; returns dynamic energy in nJ."""
        self.bytes_written += nbytes
        return self.spec.model.access_energy_nj(nbytes)

    def record_read(self, nbytes: float) -> float:
        """Account a read of ``nbytes``; returns dynamic energy in nJ."""
        self.bytes_read += nbytes
        return self.spec.model.access_energy_nj(nbytes)
