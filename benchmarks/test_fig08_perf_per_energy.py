"""Figure 8: performance per unit energy of selected designs.

Paper: over-provisioning the interconnect buys energy-efficient
operation — higher performance at similar power per bit, so the
performance-per-energy bars exceed the performance bars (callouts up to
~5-6.4X at 3 islands); gains shrink at 24 islands where the NoC
interface dominates.
"""

from conftest import BENCH_TILES, run_once

from repro.dse import fig7_table, fig8_table
from repro.dse.report import RING_LABELS
from repro.sim.metrics import arithmetic_mean

HEAVY_CHAINING = ["Segmentation", "Robot Localization", "EKF-SLAM"]


def generate(memo):
    return (
        fig8_table(tiles=BENCH_TILES, memo=memo),
        fig7_table(tiles=BENCH_TILES, memo=memo),
    )


def test_fig08_perf_per_energy(benchmark, run_memo):
    energy_table, perf_table = run_once(benchmark, generate, run_memo)
    print("\n=== Figure 8: performance per unit energy (normalized) ===")
    for n_islands, rows in energy_table.items():
        print(f"    -- {n_islands} islands --")
        for name, values in rows.items():
            print(
                f"    {name:<20} "
                + "  ".join(f"{values[r]:5.2f}" for r in RING_LABELS)
            )

    # Energy efficiency amplifies the performance gain: with static-
    # dominated platform energy, perf/energy ~ perf^2, so ring gains in
    # Fig. 8 exceed the same cell in Fig. 7 whenever rings win.
    for n_islands in (3, 24):
        for name, row in energy_table[n_islands].items():
            for label, value in row.items():
                perf = perf_table[n_islands][name][label]
                if perf > 1.05:
                    assert value > perf, (n_islands, name, label)

    # Heavy-chaining benchmarks reach the paper's 2.5-6.4X band at 3 islands.
    best = max(
        max(energy_table[3][name].values()) for name in HEAVY_CHAINING
    )
    assert 1.8 < best < 8.0

    # More islands -> smaller efficiency gains from interconnect strength.
    for name in HEAVY_CHAINING:
        gain3 = arithmetic_mean(energy_table[3][name].values())
        gain24 = arithmetic_mean(energy_table[24][name].values())
        assert gain24 < gain3, name
