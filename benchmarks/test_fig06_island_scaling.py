"""Figure 6: SPM<->DMA networks across island counts (3/6/12/24).

Paper: performance (normalized to the 3-island crossbar baseline)
improves as the 120 ABBs spread over more islands — aggregate NoC-
interface bandwidth grows — with Denoise (little chaining) improving
more (to ~2.2-2.6X) than EKF-SLAM (heavy chaining, whose inter-island
traffic grows with island count; ~1.3-1.6X).
"""

import pytest
from conftest import BENCH_TILES, run_once

from repro.dse import fig6_series


def test_fig06_island_scaling(benchmark, run_memo):
    series = run_once(benchmark, fig6_series, tiles=BENCH_TILES, memo=run_memo)
    print("\n=== Figure 6: performance vs island count (3/6/12/24) ===")
    print("    (normalized to each benchmark's 3-island crossbar baseline)")
    for label, values in sorted(series.items()):
        print("    {:<28} ".format(label) + "  ".join(f"{v:5.2f}" for v in values))

    denoise_xbar = series["Denoise, Crossbar"]
    ekf_xbar = series["EKF-SLAM, Crossbar"]

    # Baselines are 1.0 at 3 islands by construction.
    assert denoise_xbar[0] == pytest.approx(1.0)
    assert ekf_xbar[0] == pytest.approx(1.0)

    # More islands help both crossbar baselines and every Denoise
    # configuration.  (EKF-SLAM ring series may peak at mid island
    # counts: once chaining spills onto the NoC the internal network no
    # longer helps — exactly the Section 5.5 narrative.)
    assert denoise_xbar[-1] > denoise_xbar[0]
    assert ekf_xbar[-1] > ekf_xbar[0]
    for label, values in series.items():
        if label.startswith("Denoise"):
            assert values[-1] > values[0], label

    # Denoise scales into the paper's ~2.2-2.6X band at 24 islands.
    assert 1.8 < denoise_xbar[-1] < 3.0

    # EKF-SLAM (heavy chaining) improves much less than Denoise.
    assert ekf_xbar[-1] < denoise_xbar[-1]
    assert 1.1 < ekf_xbar[-1] < 2.0

    # Island scaling is monotone for the low-chaining benchmark.
    assert all(
        later >= earlier * 0.98
        for earlier, later in zip(denoise_xbar, denoise_xbar[1:])
    )

    # At 3 islands, rings help EKF-SLAM far more than Denoise (the
    # chaining bottleneck lives inside the island there).
    assert series["EKF-SLAM, 1-Ring, 32-Byte"][0] > 1.3
    assert series["Denoise, 1-Ring, 32-Byte"][0] < 1.15
