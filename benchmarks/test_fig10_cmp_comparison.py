"""Figure 10: the best accelerator-rich design vs the 12-core CMP.

Paper (24 islands, 2-ring 32-byte, no sharing, exact ports, vs the
12-core 1.9 GHz Xeon E5-2420):

    benchmark            speedup   energy gain
    Deblur                  3.7        10.2
    Denoise                 4.3        12.1
    Segmentation           28.6        78.4
    Registration            4.8        13.4
    Robot Localization      3.0         8.3
    EKF-SLAM                1.8         5.1
    Disparity Map           3.9        11.0
    average                 ~7          ~20

plus 25X / 76X vs the 4-core Xeon E5405, and ABB utilization averaging
18.5 % with a 43.5 % peak.
"""

import pytest
from conftest import BENCH_TILES, run_once

from repro import claims
from repro.dse import fig10_table

PAPER_SPEEDUP = {name: row.speedup for name, row in claims.FIG10.items()}
PAPER_ENERGY_GAIN = {name: row.energy_gain for name, row in claims.FIG10.items()}


def test_fig10_cmp_comparison(benchmark, run_memo):
    table = run_once(benchmark, fig10_table, tiles=BENCH_TILES, memo=run_memo)
    print("\n=== Figure 10: best design vs 12-core Xeon E5-2420 ===")
    print(f"    {'benchmark':<20} {'speedup':>16} {'energy gain':>20}")
    for name, paper_s in PAPER_SPEEDUP.items():
        row = table[name]
        print(
            f"    {name:<20} {row['speedup']:6.2f} (paper {paper_s:5.1f})"
            f"   {row['energy_gain']:6.2f} (paper {PAPER_ENERGY_GAIN[name]:5.1f})"
        )
    avg = table["Average"]
    print(
        f"    {'average':<20} {avg['speedup']:6.2f} (paper ~7.0)"
        f"   {avg['energy_gain']:6.2f} (paper ~20)"
    )
    print(
        f"    vs 4-core: speedup {avg['speedup_vs_4core']:.1f} (paper 25), "
        f"energy {avg['energy_gain_vs_4core']:.1f} (paper 76)"
    )
    print(
        f"    ABB utilization: avg {avg['abb_utilization_avg']:.1%} (paper 18.5%), "
        f"peak {max(table[n]['abb_utilization_peak'] for n in PAPER_SPEEDUP):.1%} "
        f"(paper 43.5%)"
    )

    # Per-benchmark speedups and energy gains land near the paper's bars.
    for name, paper_s in PAPER_SPEEDUP.items():
        assert table[name]["speedup"] == pytest.approx(paper_s, rel=0.20), name
        assert table[name]["energy_gain"] == pytest.approx(
            PAPER_ENERGY_GAIN[name], rel=0.20
        ), name

    # Headline averages: ~7X speedup, ~20X energy vs the 12-core CMP.
    assert avg["speedup"] == pytest.approx(claims.FIG10_AVERAGE_SPEEDUP, rel=0.15)
    assert avg["energy_gain"] == pytest.approx(
        claims.FIG10_AVERAGE_ENERGY_GAIN, rel=0.15
    )

    # And ~25X / ~76X vs the 4-core CMP.
    assert avg["speedup_vs_4core"] == pytest.approx(
        claims.FIG10_VS_4CORE_SPEEDUP, rel=0.15
    )
    assert avg["energy_gain_vs_4core"] == pytest.approx(
        claims.FIG10_VS_4CORE_ENERGY_GAIN, rel=0.15
    )

    # Segmentation dominates; EKF-SLAM gains least — the paper's ordering.
    speedups = {n: table[n]["speedup"] for n in PAPER_SPEEDUP}
    assert max(speedups, key=speedups.get) == "Segmentation"
    assert min(speedups, key=speedups.get) == "EKF-SLAM"

    # Utilization shape: low average, markedly higher peak.
    peak = max(table[n]["abb_utilization_peak"] for n in PAPER_SPEEDUP)
    assert 0.05 < avg["abb_utilization_avg"] < 0.30
    assert 0.30 < peak < 0.60
