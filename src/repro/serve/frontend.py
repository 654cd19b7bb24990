"""Admission frontend: per-request hardware/software/shed decisions.

ARC's Global Accelerator Manager returns wait-time estimates to
requesting cores exactly so the core can decide *not* to queue — run the
kernel in software, or drop the request outright when the platform is
saturated.  The frontend reproduces that decision point for every
incoming request of a multi-tenant session.

Three pluggable policies:

* ``"always_hw"`` — every request queues for hardware composition (the
  no-feedback baseline; under load its tail latency is unbounded by
  anything except the queue);
* ``"wait_threshold"`` — queries the ABC's GAM-style
  :meth:`~repro.core.composer.AcceleratorBlockComposer.estimate_wait`
  for the request's bottleneck ABB type and falls back to software when
  the estimate exceeds a bound.  The bound defaults to the request's own
  software cost: queue only while the predicted wait still beats doing
  the work on a core, which is ARC's wait-time-feedback loop verbatim;
* ``"shed"`` — rejects (counts a drop) when the ABC's wait queue is
  deeper than ``queue_bound``; the load-shedding answer for when
  degraded service is worse than no service.
"""

from __future__ import annotations

import enum
import math
import typing
from dataclasses import dataclass

from repro.abb.flowgraph import TilePlan
from repro.errors import ConfigError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import SystemModel

#: Supported admission policies.
ADMISSION_POLICIES = ("always_hw", "wait_threshold", "shed")


class Decision(enum.Enum):
    """Outcome of one admission decision."""

    HARDWARE = "hardware"
    SOFTWARE = "software"
    SHED = "shed"


@dataclass(frozen=True)
class AdmissionConfig:
    """Serving-side admission policy configuration.

    Attributes:
        policy: One of :data:`ADMISSION_POLICIES`.
        wait_bound_cycles: Estimated-wait bound for ``wait_threshold``;
            ``None`` means "the request's own software cost" (ARC's
            rational fallback point).
        queue_bound: ABC queue depth beyond which ``shed`` drops
            requests.
    """

    policy: str = "always_hw"
    wait_bound_cycles: typing.Optional[float] = None
    queue_bound: int = 32

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy {self.policy!r}; choose from "
                f"{sorted(ADMISSION_POLICIES)}"
            )
        if self.wait_bound_cycles is not None and not (
            0 < self.wait_bound_cycles < math.inf
        ):
            raise ConfigError(
                f"wait bound must be positive and finite, got "
                f"{self.wait_bound_cycles}"
            )
        if self.queue_bound < 1:
            raise ConfigError(
                f"queue bound must be >= 1, got {self.queue_bound}"
            )


class AdmissionFrontend:
    """Applies one admission policy to a stream of requests.

    The frontend inspects the ABC at the request's arrival instant —
    estimated wait for the request's ABB types, global queue depth — and
    returns a :class:`Decision`.  It never mutates the system, so a
    decision is a pure function of (policy, system state).
    """

    def __init__(self, system: "SystemModel", config: AdmissionConfig) -> None:
        self.system = system
        self.config = config
        self.decisions = {decision: 0 for decision in Decision}

    def wait_estimate(self, plan: TilePlan) -> float:
        """Worst-case GAM wait estimate over the plan's ABB types.

        The request cannot finish before its most-contended type clears,
        so the bottleneck type's estimate is the binding one.  Each
        type's service hint is its mean per-task invocation count
        (:attr:`TilePlan.type_hints`), so the very first requests
        (before any release has been observed) still see a sensible
        scale.
        """
        abc = self.system.abc
        estimate = 0.0
        for type_name, hint in plan.type_hints:
            estimate = max(estimate, abc.estimate_wait(type_name, hint))
        return estimate

    def decide(
        self, plan: TilePlan, software_cycles: float
    ) -> tuple[Decision, float]:
        """Admission decision for one request arriving now.

        Returns ``(decision, wait_estimate)``; the estimate is reported
        even for policies that ignore it, so SLO reports can show what
        feedback the request saw.
        """
        config = self.config
        estimate = self.wait_estimate(plan)
        if config.policy == "always_hw":
            decision = Decision.HARDWARE
        elif config.policy == "wait_threshold":
            bound = (
                config.wait_bound_cycles
                if config.wait_bound_cycles is not None
                else software_cycles
            )
            decision = (
                Decision.SOFTWARE if estimate > bound else Decision.HARDWARE
            )
        else:  # shed
            decision = (
                Decision.SHED
                if self.system.abc.queue_length() >= config.queue_bound
                else Decision.HARDWARE
            )
        self.decisions[decision] += 1
        return decision, estimate
