"""Memory-system substrate: controllers and DRAM energy.

The paper's evaluated system has 4 memory controllers with an average
180-cycle latency at 10 GB/s each (Section 4).
"""

from repro.mem.controller import MemoryController, MemorySystem
from repro.mem.dram import DRAM_ENERGY_PJ_PER_BYTE

__all__ = [
    "DRAM_ENERGY_PJ_PER_BYTE",
    "MemoryController",
    "MemorySystem",
]
