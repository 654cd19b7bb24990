"""Metric helpers: aggregation, paper-figure style."""

from __future__ import annotations

import typing

from repro.errors import ConfigError


def arithmetic_mean(values: typing.Iterable[float]) -> float:
    """Plain average (the paper quotes arithmetic averages)."""
    values = list(values)
    if not values:
        raise ConfigError("mean of empty sequence")
    return sum(values) / len(values)
