"""Lightweight statistics gathered during simulation runs."""

from __future__ import annotations

import math
import typing

from repro.errors import ConfigError


class Histogram:
    """Streaming summary statistics (count/mean/min/max) plus
    exact percentiles.

    Every observation is retained (a run records at most a few hundred
    thousand floats), so :meth:`percentile` is computed on the true
    sample set rather than interpolated from bucket midpoints — tail
    quantiles (p99 of a wait-time distribution) are exactly the order
    statistics SLO reporting needs, with no bucket-resolution error.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._sorted_cache: typing.Optional[list[float]] = None

    def record(self, value: float) -> None:
        """Add one observation (running-mean update)."""
        self.count += 1
        self._mean += (value - self._mean) / self.count
        # What min() and max() keep: the old bound unless strictly passed.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._samples.append(value)
        self._sorted_cache = None

    def percentile(self, p: float) -> float:
        """Exact ``p``-th percentile (0 <= p <= 100) of the observations.

        Uses linear interpolation between closest order statistics (the
        same convention as ``numpy.percentile``'s default): for ``n``
        samples the rank is ``p/100 * (n - 1)``, interpolated between
        the surrounding sorted values.  Raises
        :class:`~repro.errors.ConfigError` on an empty histogram or an
        out-of-range ``p``.
        """
        if not 0.0 <= p <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            raise ConfigError(
                f"histogram {self.name!r} is empty; no percentile exists"
            )
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._samples)
        ordered = self._sorted_cache
        rank = p / 100.0 * (len(ordered) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = rank - lower
        # a + f*(b - a) rather than the convex-combination form: exact
        # when both neighbours are equal, so results never stray outside
        # [min, max] by a rounding ulp.
        return ordered[lower] + fraction * (ordered[upper] - ordered[lower])

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0 if empty)."""
        return self._mean if self.count else 0.0


class UtilizationTracker:
    """Time-weighted average of a level (e.g. busy ABBs) over a run.

    Call ``set_level`` whenever the level changes; query ``average`` at the
    end with the final time.
    """

    def __init__(self, capacity: float, name: str = "") -> None:
        self.name = name
        self.capacity = capacity
        self._level = 0.0
        self._last_time = 0.0
        self._area = 0.0  # integral of level over time
        self.peak = 0.0

    def set_level(self, level: float, now: float) -> None:
        """Record that the level changed to ``level`` at time ``now``."""
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now
        if level > self.peak:
            self.peak = level

    def adjust(self, delta: float, now: float) -> None:
        """Shift the level by ``delta`` at time ``now``."""
        self.set_level(self._level + delta, now)

    def average(self, end_time: float) -> float:
        """Time-weighted mean level from 0 to ``end_time``."""
        if end_time <= 0:
            return 0.0
        area = self._area + self._level * (end_time - self._last_time)
        return area / end_time

    def average_utilization(self, end_time: float) -> float:
        """Average level as a fraction of capacity."""
        if self.capacity <= 0:
            return 0.0
        return self.average(end_time) / self.capacity

    @property
    def peak_utilization(self) -> float:
        """Peak level as a fraction of capacity."""
        if self.capacity <= 0:
            return 0.0
        return self.peak / self.capacity

