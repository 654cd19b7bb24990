"""Unit helpers: time, frequency, bandwidth and energy conversions.

The simulator's native time unit is the *cycle* of the uncore/accelerator
clock.  These helpers convert between wall-clock quantities quoted in the
paper (GHz clocks, GB/s links, nJ per operation) and cycle-denominated
quantities used by the discrete-event models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Number of bytes in one kibibyte / mebibyte (binary).
KIB = 1024
MIB = 1024 * 1024

#: SI prefixes used for bandwidth quoted in GB/s (decimal, as in the paper).
GIGA = 1_000_000_000
MEGA = 1_000_000

#: One nanojoule expressed in joules.
NANOJOULE = 1e-9
#: One picojoule expressed in joules.
PICOJOULE = 1e-12


@dataclass(frozen=True)
class Clock:
    """A clock domain with a frequency in hertz.

    Converts between seconds and cycles.  The accelerator fabric in the
    paper runs at 1 GHz; the general-purpose cores at 2 GHz.
    """

    freq_hz: float

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ConfigError(f"clock frequency must be positive, got {self.freq_hz}")

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count in this domain to seconds."""
        return cycles / self.freq_hz

    def bandwidth_bytes_per_cycle(self, bytes_per_second: float) -> float:
        """Convert a bandwidth in bytes/s into bytes per cycle of this clock."""
        if bytes_per_second < 0:
            raise ConfigError("bandwidth must be non-negative")
        return bytes_per_second / self.freq_hz


#: Default accelerator/uncore clock used throughout the paper models (1 GHz).
ACCEL_CLOCK = Clock(1e9)

#: General-purpose core clock in the pipeline-energy study (2 GHz).
CORE_CLOCK = Clock(2e9)


def gbps_to_bytes_per_cycle(gb_per_s: float, clock: Clock = ACCEL_CLOCK) -> float:
    """Convert a link bandwidth quoted in GB/s to bytes/cycle at ``clock``."""
    return clock.bandwidth_bytes_per_cycle(gb_per_s * GIGA)
