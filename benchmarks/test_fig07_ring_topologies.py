"""Figure 7: SPM<->DMA ring networks vs the proxy crossbar.

Paper: the majority of ring configurations outperform the proxy
crossbar; the impact shrinks as island count grows; the crossbar is
particularly poor under heavy chaining (Segmentation, Robot
Localization, EKF-SLAM) — gains up to ~2.6X at 3 islands, shrinking to
the 0.9-1.3X band at 24 islands.
"""

from conftest import BENCH_TILES, run_once

from repro.dse import fig7_table
from repro.dse.report import RING_LABELS
from repro.sim.metrics import arithmetic_mean

HEAVY_CHAINING = ["Segmentation", "Robot Localization", "EKF-SLAM"]


def test_fig07_ring_topologies(benchmark, run_memo):
    table = run_once(benchmark, fig7_table, tiles=BENCH_TILES, memo=run_memo)
    print("\n=== Figure 7: ring networks normalized to proxy crossbar ===")
    for n_islands, rows in table.items():
        print(f"    -- {n_islands} islands --")
        for name, values in rows.items():
            print(
                f"    {name:<20} "
                + "  ".join(f"{values[r]:5.2f}" for r in RING_LABELS)
            )

    # The majority of ring configurations outperform the crossbar.
    all_values = [
        v for rows in table.values() for row in rows.values() for v in row.values()
    ]
    wins = sum(1 for v in all_values if v > 1.0)
    assert wins / len(all_values) > 0.6

    # Heavy-chaining benchmarks gain the most at 3 islands.
    for name in HEAVY_CHAINING:
        best = max(table[3][name].values())
        assert best > 1.25, name
    light_best = max(table[3]["Denoise"].values())
    heavy_best = max(max(table[3][n].values()) for n in HEAVY_CHAINING)
    assert heavy_best > light_best

    # The ring advantage shrinks as islands increase (per-benchmark
    # average across ring configs).
    def avg_gain(n_islands, name):
        return arithmetic_mean(table[n_islands][name].values())

    for name in HEAVY_CHAINING:
        assert avg_gain(24, name) < avg_gain(3, name) * 1.1, name

    # At 24 islands the gains sit in a compressed band (paper axis
    # 0.9-1.3, callouts to ~1.3-1.7).
    for name, row in table[24].items():
        for label, value in row.items():
            assert 0.85 < value < 1.8, (name, label)
