"""Per-category energy accounting for a simulated run.

Every timing model charges dynamic energy into an :class:`EnergyAccount`
under a named category (``abb``, ``spm``, ``island_net``, ``noc``,
``dram``, ...).  At the end of a run, static (leakage) energy is added as
``power x elapsed-time`` for the powered-on area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import Clock, ACCEL_CLOCK


@dataclass
class EnergyAccount:
    """Accumulates dynamic energy by category plus a static-power total.

    All dynamic entries are in nanojoules; static power in milliwatts.
    """

    clock: Clock = ACCEL_CLOCK
    dynamic_nj: dict[str, float] = field(default_factory=dict)
    static_power_mw: float = 0.0

    def charge(self, category: str, energy_nj: float) -> None:
        """Add ``energy_nj`` of dynamic energy under ``category``."""
        if energy_nj < 0:
            raise ConfigError(f"energy must be non-negative, got {energy_nj}")
        self.dynamic_nj[category] = self.dynamic_nj.get(category, 0.0) + energy_nj

    def add_static_power(self, power_mw: float) -> None:
        """Register always-on leakage power for the run."""
        if power_mw < 0:
            raise ConfigError(f"power must be non-negative, got {power_mw}")
        self.static_power_mw += power_mw

    def static_energy_nj(self, elapsed_cycles: float) -> float:
        """Leakage energy over ``elapsed_cycles`` of the account's clock.

        mW x seconds = mJ; converted to nJ.
        """
        seconds = self.clock.cycles_to_seconds(elapsed_cycles)
        return self.static_power_mw * seconds * 1e6  # mW*s = mJ -> nJ

    def total_dynamic_nj(self) -> float:
        """Sum of all dynamic categories."""
        return sum(self.dynamic_nj.values())

    def total_nj(self, elapsed_cycles: float) -> float:
        """Dynamic plus static energy for a run of ``elapsed_cycles``."""
        return self.total_dynamic_nj() + self.static_energy_nj(elapsed_cycles)

    def breakdown(self, elapsed_cycles: float) -> dict[str, float]:
        """Energy per category (nJ), including a ``static`` entry."""
        out = dict(self.dynamic_nj)
        out["static"] = self.static_energy_nj(elapsed_cycles)
        return out
