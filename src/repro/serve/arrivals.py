"""Arrival processes for open-loop request serving.

Closed-loop runs (:func:`repro.sim.run.run_workload`) only issue the
next tile when a window slot frees up, so the system is never offered
more work than it can sustain.  An accelerator-rich platform shared by
many cores sees the opposite regime: requests arrive whether or not the
hardware is keeping up, and the ARC/GAM arbitration + wait-time feedback
exists precisely to handle that.  This module generates those request
streams.

Three arrival models, all fully deterministic for a fixed seed:

* ``"poisson"`` — memoryless arrivals at a constant mean rate, the
  standard open-loop traffic model;
* ``"onoff"`` — a Markov-modulated on/off process: exponentially
  distributed ON and OFF dwell times, with Poisson arrivals during ON
  bursts at a rate scaled so the *long-run* mean rate equals ``rate``
  (bursty traffic at the same offered load, for apples-to-apples policy
  comparisons);
* ``"trace"`` — replay of an explicit list of arrival times, either
  inline (``trace=(...)``) or loaded from a file with
  :func:`trace_from_file`.

Rates are expressed in requests per megacycle, the natural magnitude for
requests whose service times are tens of thousands of cycles.
"""

from __future__ import annotations

import json
import math
import random
import typing
from dataclasses import dataclass

from repro.errors import ConfigError

#: Supported arrival-process kinds.
ARRIVAL_KINDS = ("poisson", "onoff", "trace")

#: Cycles per megacycle (rate unit conversion).
MEGACYCLE = 1e6


@dataclass(frozen=True)
class ArrivalConfig:
    """One tenant's arrival process.

    Attributes:
        kind: ``"poisson"``, ``"onoff"`` or ``"trace"``.
        rate_per_mcycle: Long-run mean arrival rate, requests per
            megacycle (ignored for ``"trace"``).
        seed: Base seed for this stream's pseudo-random draws.  The
            session runner combines it with the session seed and tenant
            index, so tenants sharing one config still get decorrelated
            streams.
        mean_on_cycles: Mean ON-burst duration for ``"onoff"``.
        mean_off_cycles: Mean OFF-gap duration for ``"onoff"``.
        trace: Explicit arrival times (cycles, sorted ascending) for
            ``"trace"``.
    """

    kind: str = "poisson"
    rate_per_mcycle: float = 50.0
    seed: int = 0
    mean_on_cycles: float = 200_000.0
    mean_off_cycles: float = 200_000.0
    trace: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival kind {self.kind!r}; choose from "
                f"{sorted(ARRIVAL_KINDS)}"
            )
        if self.kind != "trace" and self.rate_per_mcycle <= 0:
            raise ConfigError(
                f"arrival rate must be positive, got {self.rate_per_mcycle}"
            )
        if self.kind == "onoff" and (
            self.mean_on_cycles <= 0 or self.mean_off_cycles <= 0
        ):
            raise ConfigError("on/off dwell times must be positive")
        if self.kind == "trace":
            if not self.trace:
                raise ConfigError("trace arrivals need at least one time")
            previous = -math.inf
            for time in self.trace:
                if time < 0:
                    raise ConfigError(f"negative trace arrival time {time}")
                if time < previous:
                    raise ConfigError("trace arrival times must be sorted")
                previous = time


def _stream_rng(config: ArrivalConfig, stream: str) -> random.Random:
    """Deterministic per-stream RNG.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    the draw sequence is stable across processes and platforms
    (unlike ``hash()``-based seeding).
    """
    return random.Random(f"{config.kind}:{config.seed}:{stream}")


def arrival_times(
    config: ArrivalConfig, duration_cycles: float, stream: str = "0"
) -> list[float]:
    """All arrival times in ``[0, duration_cycles)`` for one stream.

    Deterministic: the same (config, duration, stream) triple always
    yields the identical list.  ``stream`` names the tenant's slot in
    the session so tenants sharing a config stay decorrelated.
    """
    if duration_cycles <= 0:
        raise ConfigError(f"duration must be positive, got {duration_cycles}")
    if config.kind == "trace":
        return [t for t in config.trace if t < duration_cycles]
    rng = _stream_rng(config, stream)
    rate = config.rate_per_mcycle / MEGACYCLE
    if config.kind == "poisson":
        times = []
        now = rng.expovariate(rate)
        while now < duration_cycles:
            times.append(now)
            now += rng.expovariate(rate)
        return times
    # Markov-modulated on/off: arrivals only during ON bursts, at a rate
    # scaled so the long-run mean over ON+OFF equals the configured rate.
    duty = config.mean_on_cycles / (
        config.mean_on_cycles + config.mean_off_cycles
    )
    on_rate = rate / duty
    times = []
    now = 0.0
    # Start in the stationary state mix so short sessions are not biased
    # toward one state.
    state_on = rng.random() < duty
    while now < duration_cycles:
        if state_on:
            burst_end = now + rng.expovariate(1.0 / config.mean_on_cycles)
            arrival = now + rng.expovariate(on_rate)
            while arrival < min(burst_end, duration_cycles):
                times.append(arrival)
                arrival += rng.expovariate(on_rate)
            now = burst_end
        else:
            now += rng.expovariate(1.0 / config.mean_off_cycles)
        state_on = not state_on
    return times


def trace_from_file(path: str, seed: int = 0) -> ArrivalConfig:
    """Load a replayable arrival trace.

    Accepts either a JSON array of times or plain text with one time per
    line (blank lines and ``#`` comments ignored).  The times are
    embedded in the returned config, so fingerprints cover the trace
    *content* rather than a path that could silently change.
    """
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            values = json.loads(text)
        else:
            values = [
                float(line.split("#", 1)[0])
                for line in text.splitlines()
                if line.split("#", 1)[0].strip()
            ]
    except (json.JSONDecodeError, ValueError) as err:
        raise ConfigError(f"unreadable arrival trace {path!r}: {err}") from None
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) for v in values
    ):
        raise ConfigError(f"arrival trace {path!r} must be a list of times")
    return ArrivalConfig(
        kind="trace", seed=seed, trace=tuple(float(v) for v in values)
    )


def mean_rate(times: typing.Sequence[float], duration_cycles: float) -> float:
    """Observed arrival rate of a stream, requests per megacycle."""
    if duration_cycles <= 0:
        return 0.0
    return len(times) / duration_cycles * MEGACYCLE
