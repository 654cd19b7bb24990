"""Deterministic, seed-driven fault injection.

The paper's composability story is usually told as a *flexibility*
property — the ABC assembles virtual accelerators from whatever ABBs a
flow graph needs.  This module exercises the same mechanism as a
*resilience* property: when ABBs die, DMA engines stall or NoC links
degrade, the ABC re-composes virtual accelerators from the surviving
blocks, retries timed-out transfers with bounded exponential backoff,
and — mirroring ARC's GAM wait-time-feedback decision — falls back to
software execution on the host cores when no hardware composition
exists.

Three fault models are provided:

* **ABB hard failure** — a slot goes permanently out of service at a
  drawn cycle; an in-flight task drains first (fail-stop for *new*
  allocations), then the slot never serves again.
* **Island DMA stall/drop** — a DMA transfer is delayed by a stall, or
  dropped entirely and recovered by timeout + exponential-backoff retry
  (bounded attempts; the final attempt always succeeds, modeling a DMA
  engine reset, so runs complete even under sustained faults).
* **NoC link degradation** — a deterministic subset of mesh links pays a
  multiplied per-hop router latency.

Everything is driven by one integer seed: the same
(:class:`FaultSpec`, seed) pair reproduces bit-identical simulations,
because the simulator's event ordering is deterministic and every random
draw comes from streams derived solely from the seed.
"""

from __future__ import annotations

import hashlib
import random
import typing
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigError

_INF = float("inf")

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.route import Route

__all__ = [
    "FaultSpec",
    "FaultStats",
    "FaultInjector",
    "parse_fault_spec",
]

#: Outcome labels drawn for each DMA transfer under fault injection.
DMA_OK = "ok"
DMA_STALL = "stall"
DMA_DROP = "drop"

#: Shorthand keys accepted by :func:`parse_fault_spec`.
_SPEC_SHORTHAND = {
    "abb": "abb_failure_fraction",
    "dma": "dma_stall_prob",
    "dmadrop": "dma_drop_prob",
    "noc": "noc_degrade_fraction",
}


@dataclass(frozen=True)
class FaultSpec:
    """What to break, how badly, and how the recovery knobs are set.

    A frozen dataclass so it embeds directly in
    :class:`~repro.sim.system.SystemConfig` and is covered by
    ``fingerprint()`` (the DSE cache key) automatically.

    Attributes:
        abb_failure_fraction: Fraction of all ABB slots that hard-fail,
            drawn without replacement over the whole platform.
        abb_failure_window: Failure times are drawn uniformly in
            ``[0, window)`` cycles.
        dma_stall_prob: Per-DMA-transfer probability of a stall.
        dma_stall_cycles: Extra delay a stalled transfer pays before it
            moves.
        dma_drop_prob: Per-DMA-transfer probability the transfer is
            dropped and must be retried after a timeout.
        dma_timeout_cycles: Cycles a dropped transfer waits before the
            requester notices and retries.
        dma_max_retries: Bound on retry attempts; the attempt after the
            last retry always succeeds (DMA engine reset), guaranteeing
            forward progress.
        dma_backoff_base: First retry backoff; doubles per attempt
            (exponential backoff).
        noc_degrade_fraction: Fraction of directed mesh links that are
            degraded (chosen by a stable per-link hash of the seed).
        noc_degrade_factor: Multiplier on per-hop router latency over a
            degraded link.
    """

    abb_failure_fraction: float = 0.0
    abb_failure_window: float = 20_000.0
    dma_stall_prob: float = 0.0
    dma_stall_cycles: float = 2_000.0
    dma_drop_prob: float = 0.0
    dma_timeout_cycles: float = 4_000.0
    dma_max_retries: int = 5
    dma_backoff_base: float = 64.0
    noc_degrade_fraction: float = 0.0
    noc_degrade_factor: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "abb_failure_fraction",
            "dma_stall_prob",
            "dma_drop_prob",
            "noc_degrade_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.dma_stall_prob + self.dma_drop_prob > 1.0:
            raise ConfigError(
                "dma_stall_prob + dma_drop_prob must not exceed 1"
            )
        # Chained comparisons reject NaN and infinities with the rest.
        if not 0 < self.abb_failure_window < _INF:
            raise ConfigError("abb_failure_window must be positive and finite")
        for name in ("dma_stall_cycles", "dma_timeout_cycles", "dma_backoff_base"):
            if not 0 <= getattr(self, name) < _INF:
                raise ConfigError(f"{name} must be non-negative and finite")
        if self.dma_max_retries < 0:
            raise ConfigError("dma_max_retries must be non-negative")
        if not 1.0 <= self.noc_degrade_factor < _INF:
            raise ConfigError("noc_degrade_factor must be >= 1 and finite")

    # -------------------------------------------------------------- queries
    @property
    def enabled(self) -> bool:
        """Whether any fault model is active."""
        return (
            self.abb_failure_fraction > 0.0
            or self.dma_faults_enabled
            or self.noc_degrade_fraction > 0.0
        )

    @property
    def dma_faults_enabled(self) -> bool:
        """Whether the DMA stall/drop model is active."""
        return self.dma_stall_prob > 0.0 or self.dma_drop_prob > 0.0

    def label(self) -> str:
        """Compact human label, e.g. ``"abb:0.25,dma:0.1"``."""
        parts = []
        if self.abb_failure_fraction:
            parts.append(f"abb:{self.abb_failure_fraction:g}")
        if self.dma_stall_prob:
            parts.append(f"dma:{self.dma_stall_prob:g}")
        if self.dma_drop_prob:
            parts.append(f"dmadrop:{self.dma_drop_prob:g}")
        if self.noc_degrade_fraction:
            parts.append(f"noc:{self.noc_degrade_fraction:g}")
        return ",".join(parts) if parts else "none"


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI fault spec string into a :class:`FaultSpec`.

    The spec is a comma-separated list of ``key:value`` (or
    ``key=value``) pairs.  Keys are either the shorthand aliases
    ``abb``/``dma``/``dmadrop``/``noc`` or any full
    :class:`FaultSpec` field name::

        abb:0.25                      25% of ABB slots hard-fail
        dma:0.1,noc:0.2               10% DMA stalls, 20% degraded links
        abb:0.2,abb_failure_window=5000
    """
    spec = FaultSpec()
    text = text.strip()
    if not text or text == "none":
        return spec
    field_names = {f.name for f in fields(FaultSpec)}
    updates: dict[str, typing.Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        separator = ":" if ":" in part else "="
        if separator not in part:
            raise ConfigError(
                f"bad fault spec item {part!r}; expected key:value"
            )
        key, _, raw = part.partition(separator)
        key = key.strip().lower()
        name = _SPEC_SHORTHAND.get(key, key)
        if name not in field_names:
            raise ConfigError(
                f"unknown fault spec key {key!r}; known: "
                f"{sorted(_SPEC_SHORTHAND) + sorted(field_names)}"
            )
        try:
            value: typing.Any = (
                int(raw) if name == "dma_max_retries" else float(raw)
            )
        except ValueError:
            raise ConfigError(
                f"bad value {raw!r} for fault spec key {key!r}"
            ) from None
        updates[name] = value
    return replace(spec, **updates)


@dataclass
class FaultStats:
    """Degradation counters accumulated over one simulation run."""

    failed_abbs: int = 0
    dma_stalls: int = 0
    dma_retries: int = 0
    dma_forced_recoveries: int = 0
    noc_degraded_transfers: int = 0
    fallback_tasks: int = 0
    fallback_tiles: int = 0

    @property
    def degraded(self) -> bool:
        """Whether any fault actually manifested during the run."""
        return any(
            getattr(self, f.name) for f in fields(self)
        )


def _stable_fraction(*parts: object) -> float:
    """Map arbitrary parts to a stable fraction in ``[0, 1)``.

    Uses SHA-256 rather than ``hash()`` so the value is independent of
    ``PYTHONHASHSEED``, process and platform — required for the
    bit-identical reproducibility guarantee.
    """
    payload = ":".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Draws all fault decisions for one simulation run.

    Construction is cheap; the per-island DMA outcome streams and the
    ABB failure plan are derived purely from ``(spec, seed)`` so two
    injectors with equal inputs behave identically.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.stats = FaultStats()
        self._dma_streams: dict[int, random.Random] = {}

    # ------------------------------------------------------------ ABB plan
    def plan_abb_failures(
        self, island_slot_counts: typing.Sequence[int]
    ) -> list[tuple[int, int, float]]:
        """Plan hard failures as ``(island_index, slot, cycle)`` triples.

        Selects ``floor(fraction * total_slots)`` distinct slots across
        the whole platform (so a 25% fraction fails 25% of the ABB pool,
        wherever those blocks happen to live) with failure times drawn
        uniformly in ``[0, abb_failure_window)``.  Sorted by failure
        time for deterministic arming order.
        """
        if self.spec.abb_failure_fraction <= 0.0:
            return []
        universe = [
            (island, slot)
            for island, n_slots in enumerate(island_slot_counts)
            for slot in range(n_slots)
        ]
        n_failures = int(self.spec.abb_failure_fraction * len(universe))
        if n_failures == 0:
            return []
        rng = random.Random(f"{self.seed}:abb")
        victims = rng.sample(universe, n_failures)
        plan = [
            (island, slot, rng.uniform(0.0, self.spec.abb_failure_window))
            for island, slot in victims
        ]
        plan.sort(key=lambda item: (item[2], item[0], item[1]))
        return plan

    # ------------------------------------------------------------ DMA draws
    def dma_outcome(self, island_id: int) -> str:
        """Draw the fate of one DMA transfer on one island.

        Returns :data:`DMA_OK`, :data:`DMA_STALL` or :data:`DMA_DROP`.
        Each island has its own stream so transfer interleaving on one
        island never perturbs draws on another.
        """
        stream = self._dma_streams.get(island_id)
        if stream is None:
            stream = random.Random(f"{self.seed}:dma:{island_id}")
            self._dma_streams[island_id] = stream
        draw = stream.random()
        if draw < self.spec.dma_drop_prob:
            return DMA_DROP
        if draw < self.spec.dma_drop_prob + self.spec.dma_stall_prob:
            return DMA_STALL
        return DMA_OK

    def dma_fault(self, island_id: int, route: "Route") -> typing.Optional[float]:
        """Fault hook of an island's DMA leg: cycles to wait before
        (re)trying, or ``None`` to proceed.

        Each attempt draws an outcome: a *stall* delays the transfer
        once; a *drop* costs a timeout plus exponential backoff and is
        retried up to ``dma_max_retries`` times, after which the
        transfer is forced through (DMA engine reset) so the simulation
        always makes forward progress.  ``route.attempt`` counts the
        retries; -1 marks a served stall.  It is 0 again when the leg
        proceeds: an island-to-island route crosses two DMA legs.
        """
        attempt = route.attempt
        if attempt >= 0:
            outcome = self.dma_outcome(island_id)
            if outcome == DMA_STALL:
                self.stats.dma_stalls += 1
                route.attempt = -1
                return self.spec.dma_stall_cycles
            if outcome == DMA_DROP:
                if attempt < self.spec.dma_max_retries:
                    self.stats.dma_retries += 1
                    route.attempt = attempt + 1
                    return self.dma_retry_delay(attempt)
                self.stats.dma_forced_recoveries += 1
        route.attempt = 0
        return None

    def dma_retry_delay(self, attempt: int) -> float:
        """Timeout plus exponential backoff for retry ``attempt`` (0-based)."""
        return (
            self.spec.dma_timeout_cycles
            + self.spec.dma_backoff_base * (2.0**attempt)
        )

    # ----------------------------------------------------------- NoC draws
    def link_degraded(
        self, src: typing.Tuple[int, int], dst: typing.Tuple[int, int]
    ) -> bool:
        """Whether a directed mesh link is degraded.

        Decided by a stable per-link hash of the seed so the answer does
        not depend on the (lazy) order in which links are first used.
        """
        fraction = self.spec.noc_degrade_fraction
        if fraction <= 0.0:
            return False
        return _stable_fraction(self.seed, "noc", src, dst) < fraction

