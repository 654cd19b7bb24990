#!/usr/bin/env python
"""Sharing one accelerator pool among applications (the ARC premise).

Two demonstrations of the management layer:

1. *Consolidation* — Denoise and EKF-SLAM run concurrently on one
   CHARM platform; the ABC arbitrates the shared ABB pool, and the
   combined run beats time slicing because one app's idle blocks serve
   the other.
2. *Wait-time feedback* — the ABC (CHARM's extension of ARC's GAM)
   estimates how long a request would queue for ABB slots; under the
   ``wait_threshold`` admission policy, bursty requests spill to the
   host cores when queueing would cost more than computing in software.
"""

from repro import SystemConfig, get_workload, run_workload
from repro.serve import (
    AdmissionConfig,
    ArrivalConfig,
    ServeConfig,
    estimate_saturation,
    make_tenants,
    run_serve,
)
from repro.sim.run import run_consolidated
from repro.workloads import synthetic_workload


def consolidation_demo() -> None:
    """Concurrent apps on a shared pool vs back-to-back time slicing."""
    config = SystemConfig(n_islands=6)
    apps = [get_workload("Denoise", tiles=12), get_workload("EKF-SLAM", tiles=12)]

    shared = run_consolidated(config, apps)
    serial = sum(run_workload(config, app).total_cycles for app in apps)

    print("-- consolidation --")
    print(f"time-sliced total: {serial:,.0f} cycles")
    print(f"shared platform:   {shared.total_cycles:,.0f} cycles "
          f"({serial / shared.total_cycles:.2f}X faster)")
    print(f"shared-pool ABB utilization: {shared.abb_utilization_avg:.1%}")


def feedback_demo() -> None:
    """ABC wait estimates steering bursty requests to the host cores."""
    # One island whose few ABB slots are the serving bottleneck.
    config = SystemConfig(
        n_islands=1, abb_mix={"poly": 2, "div": 2, "sqrt": 1, "pow": 1, "sum": 1}
    )
    rpc = synthetic_workload(
        name="rpc", depth=2, width=2, invocations=32, tiles=16
    )
    saturation = estimate_saturation(config, [rpc] * 4)
    arrival = ArrivalConfig(
        kind="onoff",
        rate_per_mcycle=0.8 * saturation / 4,
        mean_on_cycles=150_000,
        mean_off_cycles=150_000,
    )
    serve = ServeConfig(
        tenants=make_tenants(4, [rpc], arrival),
        admission=AdmissionConfig("always_hw"),
        duration_cycles=1_000_000.0,
        seed=1,
    )
    print("\n-- ABC wait-time feedback (4 bursty tenants, 0.8x saturation) --")
    for policy in ("always_hw", "wait_threshold"):
        result = run_serve(config, serve.with_policy(AdmissionConfig(policy)))
        print(
            f"{policy:<15} software fallback {result.fallback_rate:5.1%}, "
            f"p99 {result.latency_p99:,.0f} cycles"
        )
    print("(feedback spills burst excess to the cores, cutting the tail)")


def main() -> None:
    consolidation_demo()
    feedback_demo()


if __name__ == "__main__":
    main()
