"""The standard ABB library and the paper's 120-ABB mix.

Section 4 of the paper configures the evaluated system with 120 ABBs:
78 polynomial, 18 divide, 9 sqrt, 6 power and 9 sum, distributed uniformly
across islands.  :func:`standard_library` builds the five type specs;
:data:`PAPER_ABB_MIX` is the published count per type.
"""

from __future__ import annotations

import typing

from repro.abb.types import ABBType
from repro.errors import ConfigError

#: Published per-type ABB counts for the evaluated 120-ABB system (Sec. 4).
PAPER_ABB_MIX: dict[str, int] = {
    "poly": 78,
    "div": 18,
    "sqrt": 9,
    "pow": 6,
    "sum": 9,
}

#: Total ABB count in the evaluated system.
PAPER_TOTAL_ABBS: int = sum(PAPER_ABB_MIX.values())


def standard_library() -> "ABBLibrary":
    """Build the five-type CHARM medical-imaging ABB library.

    Latency/II values follow typical 45 nm FP pipeline depths; data widths
    assume single-precision (4-byte) operands.  The 16-input polynomial
    block consumes 16 operands per invocation, the sum block reduces 16
    inputs, the rest are unary/binary.
    """
    lib = ABBLibrary()
    lib.register(
        ABBType(
            name="poly",
            latency=24,
            initiation_interval=1,
            input_bytes=64,  # 16 single-precision inputs
            output_bytes=4,
            spm_banks_min=4,
            spm_bank_bytes=4096,
            area_mm2=0.072,
            energy_per_invocation_nj=0.060,
            static_power_mw=0.9,
        )
    )
    lib.register(
        ABBType(
            name="div",
            latency=16,
            initiation_interval=1,
            input_bytes=8,  # dividend + divisor
            output_bytes=4,
            spm_banks_min=2,
            spm_bank_bytes=2048,
            area_mm2=0.024,
            energy_per_invocation_nj=0.014,
            static_power_mw=0.35,
        )
    )
    lib.register(
        ABBType(
            name="sqrt",
            latency=20,
            initiation_interval=1,
            input_bytes=4,
            output_bytes=4,
            spm_banks_min=2,
            spm_bank_bytes=2048,
            area_mm2=0.020,
            energy_per_invocation_nj=0.012,
            static_power_mw=0.30,
        )
    )
    lib.register(
        ABBType(
            name="pow",
            latency=28,
            initiation_interval=1,
            input_bytes=8,  # base + exponent
            output_bytes=4,
            spm_banks_min=2,
            spm_bank_bytes=2048,
            area_mm2=0.030,
            energy_per_invocation_nj=0.018,
            static_power_mw=0.40,
        )
    )
    lib.register(
        ABBType(
            name="sum",
            latency=8,
            initiation_interval=1,
            input_bytes=64,  # 16-input reduction
            output_bytes=4,
            spm_banks_min=4,
            spm_bank_bytes=4096,
            area_mm2=0.018,
            energy_per_invocation_nj=0.022,
            static_power_mw=0.25,
        )
    )
    return lib


class ABBLibrary:
    """A registry of ABB types, keyed by name."""

    def __init__(self) -> None:
        self._types: dict[str, ABBType] = {}

    def copy(self) -> "ABBLibrary":
        """A new library of the same (immutable) types, to extend alone."""
        library = ABBLibrary()
        library._types.update(self._types)
        return library

    def register(self, abb_type: ABBType) -> None:
        """Add a type; re-registering a name is an error."""
        if abb_type.name in self._types:
            raise ConfigError(f"ABB type {abb_type.name!r} already registered")
        self._types[abb_type.name] = abb_type

    def get(self, name: str) -> ABBType:
        """Look up a type by name."""
        try:
            return self._types[name]
        except KeyError:
            raise ConfigError(
                f"unknown ABB type {name!r}; known: {sorted(self._types)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> typing.Iterator[ABBType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    @property
    def names(self) -> list[str]:
        """Sorted list of registered type names."""
        return sorted(self._types)

    def validate_mix(self, mix: typing.Mapping[str, int]) -> None:
        """Check that a per-type count mapping refers only to known types."""
        for name, count in mix.items():
            if name not in self._types:
                raise ConfigError(f"mix references unknown ABB type {name!r}")
            if count < 0:
                raise ConfigError(f"mix count for {name!r} must be >= 0")
