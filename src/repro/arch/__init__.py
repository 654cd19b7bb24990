"""The three CDSC architecture generations (paper Section 2).

* :mod:`repro.arch.arc` — ARC [6]: monolithic per-kernel accelerators
  managed by the GAM.
* :mod:`repro.arch.charm` — CHARM [8]: composable ABB islands managed by
  the ABC (a thin preset layer over :mod:`repro.sim`).
* :mod:`repro.arch.camel` — CAMEL [9]: CHARM plus programmable fabric
  for out-of-domain kernels.
* :mod:`repro.arch.presets` — the paper's evaluated configurations.
"""

from repro.arch.arc import ARCSystem, run_arc
from repro.arch.charm import charm_config, run_charm
from repro.arch.camel import camel_config, camel_library, run_camel
from repro.arch.presets import (
    BASELINE_ISLAND_COUNTS,
    PAPER_NETWORKS,
    best_paper_config,
)

__all__ = [
    "ARCSystem",
    "BASELINE_ISLAND_COUNTS",
    "PAPER_NETWORKS",
    "best_paper_config",
    "camel_config",
    "camel_library",
    "charm_config",
    "run_arc",
    "run_camel",
    "run_charm",
]
