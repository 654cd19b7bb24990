"""Accelerator building blocks (ABBs).

CHARM decomposes monolithic accelerators into a small set of fixed-function
blocks — 16-input polynomial, FP divide, square root, power, and sum — that
the ABC composes at runtime into virtual accelerators.  This package holds
the type specifications, the standard library with the paper's 120-ABB mix,
and the dataflow graphs that describe compositions.  Slot occupancy at run
time is kept by :class:`repro.island.Island`.
"""

from repro.abb.types import ABBType
from repro.abb.library import (
    ABBLibrary,
    PAPER_ABB_MIX,
    PAPER_TOTAL_ABBS,
    standard_library,
)
from repro.abb.flowgraph import ABBFlowGraph, ABBTask

__all__ = [
    "ABBFlowGraph",
    "ABBLibrary",
    "ABBTask",
    "ABBType",
    "PAPER_ABB_MIX",
    "PAPER_TOTAL_ABBS",
    "standard_library",
]
