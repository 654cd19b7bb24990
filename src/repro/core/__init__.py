"""Accelerator management: the paper's primary architectural contribution.

* :mod:`repro.core.gam` — the ARC Global Accelerator Manager: hardware
  arbitration of shared accelerators with wait-time feedback and a
  lightweight interrupt scheme.
* :mod:`repro.core.composer` — the CHARM Accelerator Block Composer
  (ABC): dynamic allocation and composition of ABBs from flow graphs,
  with load balancing across islands.
* :mod:`repro.core.allocation` — pluggable island-selection policies.
* :mod:`repro.core.scheduler` — executes a flow-graph instance (one
  "tile") on a simulated system, orchestrating transfers and compute.
* :mod:`repro.core.virtualization` — the virtual-accelerator handle that
  makes a composed set of ABBs look like one monolithic accelerator.
"""

from repro.core.gam import GlobalAcceleratorManager, InterruptModel
from repro.core.composer import SOFTWARE_FALLBACK, AcceleratorBlockComposer
from repro.core.allocation import (
    AllocationPolicy,
    first_fit,
    locality_then_load_balance,
)
from repro.core.scheduler import TileScheduler
from repro.core.virtualization import VirtualAccelerator

__all__ = [
    "SOFTWARE_FALLBACK",
    "AcceleratorBlockComposer",
    "AllocationPolicy",
    "GlobalAcceleratorManager",
    "InterruptModel",
    "TileScheduler",
    "VirtualAccelerator",
    "first_fit",
    "locality_then_load_balance",
]
