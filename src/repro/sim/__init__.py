"""System-level simulation: assembly, runner, results and metrics."""

from repro.sim.system import SystemConfig, SystemModel, distribute_mix
from repro.sim.results import SimResult
from repro.sim.run import run_consolidated, run_workload
from repro.sim.fingerprint import canonical_value, digest

__all__ = [
    "SimResult",
    "canonical_value",
    "digest",
    "SystemConfig",
    "SystemModel",
    "distribute_mix",
    "run_consolidated",
    "run_workload",
]
