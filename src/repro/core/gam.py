"""The ARC Global Accelerator Manager (GAM).

ARC [6] introduces hardware support for sharing a common set of
accelerators among multiple cores: a hardware arbitration queue,
wait-time feedback to requesting cores, and a lightweight interrupt
scheme that avoids the OS interrupt path for the frequent
accelerator-completion events.

This model keeps the arbitration queue and the interrupts.  Wait-time
feedback is modelled once, by CHARM's ABC (an extension of the GAM):
:meth:`repro.core.composer.AcceleratorBlockComposer.estimate_wait`,
read by the serving frontend's ``wait_threshold`` admission rule.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from repro.engine import Event, Simulator
from repro.errors import AllocationError, ConfigError

#: Cycles for the ARC lightweight (user-level) interrupt path.
LIGHTWEIGHT_INTERRUPT_CYCLES = 40.0

#: Cycles for a conventional OS-handled interrupt.
OS_INTERRUPT_CYCLES = 4000.0


@dataclass
class InterruptModel:
    """Accounts interrupt-handling overhead for accelerator completions.

    The GAM's lightweight interrupts bypass the OS, cutting per-event
    overhead by two orders of magnitude — significant because completion
    events are frequent on an accelerator-rich platform.
    """

    lightweight: bool = True
    count: int = 0

    @property
    def cycles_per_interrupt(self) -> float:
        """Handler cost of one completion interrupt."""
        return (
            LIGHTWEIGHT_INTERRUPT_CYCLES
            if self.lightweight
            else OS_INTERRUPT_CYCLES
        )

    def record(self) -> float:
        """Account one interrupt; returns its handler cost in cycles."""
        self.count += 1
        return self.cycles_per_interrupt

    @property
    def total_overhead_cycles(self) -> float:
        """Cumulative handler cycles spent on interrupts."""
        return self.count * self.cycles_per_interrupt


class GlobalAcceleratorManager:
    """Hardware arbitration for a pool of identical monolithic units.

    Cores request a unit and receive either an immediate grant or queue
    FIFO; a released unit goes straight to the oldest waiter.  Every
    release fires a completion interrupt through :attr:`interrupts`.
    """

    def __init__(
        self, sim: Simulator, n_units: int, lightweight_interrupts: bool = True
    ) -> None:
        if n_units < 1:
            raise ConfigError("GAM needs at least one accelerator unit")
        self.sim = sim
        # Reversed so pop() grants the lowest free unit first.
        self._free = list(range(n_units - 1, -1, -1))
        self._held: set[int] = set()
        self._waiters: collections.deque[Event] = collections.deque()
        self.interrupts = InterruptModel(lightweight=lightweight_interrupts)

    def request(self) -> Event:
        """Request a unit; the event fires with the granted unit index."""
        event = Event(self.sim)
        if self._free:
            unit = self._free.pop()
            self._held.add(unit)
            event.succeed(unit)
        else:
            self._waiters.append(event)
        return event

    def release(self, unit: int) -> float:
        """Return ``unit``; fires the completion interrupt.

        Returns the interrupt handler cost in cycles (the caller's core
        model should charge it).
        """
        if unit not in self._held:
            raise AllocationError(f"release of unheld accelerator unit {unit}")
        if self._waiters:
            # Hand the unit straight to the oldest waiter.
            self._waiters.popleft().succeed(unit)
        else:
            self._held.remove(unit)
            self._free.append(unit)
        return self.interrupts.record()
