"""Software-fallback execution model for degraded platforms.

ARC's GAM feeds wait-time estimates back to the cores so a core can
decide to run a kernel in software instead of queueing (Section 2); the
same decision applies when fault injection takes the last operational
ABB of a type out of service.  This module prices that fallback: a task
that cannot be composed in hardware runs its invocations on a host core
using the calibrated per-invocation software costs, at host-core power.

The simulation clock is the accelerator/uncore clock; the host cores are
treated as running at the same rate, which keeps the model simple and
errs conservatively (a faster core clock would only shrink the reported
degradation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cmp.cpu import CoreModel


@dataclass(frozen=True)
class SoftwareFallbackModel:
    """Prices fallback work on a host core: its cycles come from
    :func:`~repro.workloads.base.software_task_cycles` (one task) or
    :func:`~repro.workloads.base.software_cycles_estimate` (serve's
    whole-graph software path), its energy from the core's power.

    Attributes:
        core: The host core executing fallback work.
    """

    core: CoreModel

    def energy_nj(self, cycles: float) -> float:
        """Energy one core burns over ``cycles`` of fallback execution."""
        return self.core.energy_j(cycles) * 1e9
