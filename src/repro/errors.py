"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations

_INF = float("inf")


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An architecture or workload configuration is invalid."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state."""


class AllocationError(ReproError):
    """The ABC/GAM could not allocate a requested resource."""


class DecompositionError(ReproError):
    """A kernel could not be decomposed into the available ABB types."""


class CapacityError(ReproError):
    """A resource request exceeded a hard capacity limit."""


def check_bound(
    name: str, value: object, count: bool, least: float, strict: bool = False
) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is at
    least ``least`` (above it when ``strict``) and finite.  A count must
    be an int, never a bool; anything else a finite int or float."""
    if (
        value.__class__ is bool
        or not isinstance(value, int if count else (int, float))
        or not least <= value < _INF
        or (strict and value == least)
    ):
        kind = "an int" if count else "finite"
        bound = "" if least == -_INF else f" {'>' if strict else '>='} {least}"
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
