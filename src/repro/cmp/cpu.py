"""General-purpose core model.

Matches the paper's Figure 1 out-of-order core; power derives from the
McPAT-style breakdown in :mod:`repro.power.mcpat` (the core spends only
~26 % of its energy on actual compute).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CoreModel:
    """One out-of-order superscalar core.

    Attributes:
        name: Core model name.
        freq_ghz: Clock frequency.
        active_power_w: Average power of one core under load (derived
            from socket TDP / core count).
        issue_width: Front-end width (Figure 1: 4).
        rob_entries: Reorder-buffer capacity (Figure 1: 96).
    """

    name: str
    freq_ghz: float
    active_power_w: float
    issue_width: int = 4
    rob_entries: int = 96

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ConfigError(f"{self.name}: frequency must be positive")
        if self.active_power_w <= 0:
            raise ConfigError(f"{self.name}: power must be positive")
        if self.issue_width < 1 or self.rob_entries < 1:
            raise ConfigError(f"{self.name}: invalid pipeline parameters")

    @property
    def freq_hz(self) -> float:
        """Clock in hertz."""
        return self.freq_ghz * 1e9

    def execution_time_s(self, cycles: float) -> float:
        """Seconds to retire ``cycles`` of work on this core."""
        if cycles < 0:
            raise ConfigError("cycles must be non-negative")
        return cycles / self.freq_hz

    def energy_j(self, cycles: float) -> float:
        """Energy one core burns over ``cycles`` of active execution."""
        return self.active_power_w * self.execution_time_s(cycles)
