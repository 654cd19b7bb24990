"""Figure 9: performance per unit area (compute density).

Paper: compute density drops as network resources are added — small
networks see high utilization, and because the NoC interface caps
performance there is little justification for enlarging the SPM<->DMA
network much beyond that cap.  Rings (small area) therefore post large
compute-density wins over the crossbar at 3 islands (bars up to ~2.5X),
with wider/more rings posting *lower* density than narrower ones.
"""

from conftest import BENCH_TILES, run_once

from repro.dse import fig9_table
from repro.dse.report import RING_LABELS


def test_fig09_perf_per_area(benchmark, run_memo):
    table = run_once(benchmark, fig9_table, tiles=BENCH_TILES, memo=run_memo)
    print("\n=== Figure 9: performance per unit area (normalized) ===")
    for n_islands, rows in table.items():
        print(f"    -- {n_islands} islands --")
        for name, values in rows.items():
            print(
                f"    {name:<20} "
                + "  ".join(f"{values[r]:5.2f}" for r in RING_LABELS)
            )

    # Rings beat the crossbar on compute density everywhere (smaller
    # area at equal-or-better performance).
    for n_islands, rows in table.items():
        for name, row in rows.items():
            assert max(row.values()) > 1.0, (n_islands, name)

    # Density falls as ring resources grow: adding rings beyond one
    # always lowers compute density, and the best cell is always one of
    # the single-ring designs.
    for n_islands, rows in table.items():
        for name, row in rows.items():
            assert (
                row["1-Ring, 32-Byte"]
                > row["2-Ring, 32-Byte"]
                > row["3-Ring, 32-Byte"]
            ), (n_islands, name)
            assert max(row, key=row.get) in (
                "1-Ring, 16-Byte",
                "1-Ring, 32-Byte",
            ), (n_islands, name)

    # Values land in the paper's plotted band (axis 0.5-2.5).
    for rows in table.values():
        for row in rows.values():
            for value in row.values():
                assert 0.4 < value < 3.5
