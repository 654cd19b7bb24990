"""Fast smoke tests for the figure report generators.

The full-fidelity validation lives in ``benchmarks/``; these tests run
the generators at tiny tile counts to pin their structure (keys,
normalization, averaging).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.dse import (
    fig6_series,
    fig7_table,
    fig8_table,
    fig9_table,
    fig10_table,
    format_table,
)
from repro.dse import report
from repro.dse.cache import point_fingerprint
from repro.dse.report import RING_LABELS
from repro.errors import ConfigError
from repro.workloads import PAPER_BENCHMARKS

TILES = 2

#: Records, in order, the points ``fig6_series`` simulates through
#: ``repro.dse.report.run_workload`` (the name the benchmark's fig. 6
#: pass replaces); the stub result keeps it free of simulation.
_RUN_ORDER_SCRIPT = """
import json, types
import repro.dse.report as report
from repro.dse.cache import point_fingerprint
calls = []
def fake_run(config, workload, **kwargs):
    fingerprint = point_fingerprint(config, workload, **kwargs)
    calls.append([workload.name, config.n_islands, fingerprint])
    return types.SimpleNamespace(performance=1.0)
report.run_workload = fake_run
report.fig6_series(tiles=1, island_counts=(3,))
print(json.dumps(calls))
"""


def counting_run_workload(monkeypatch):
    """Route ``repro.dse.report.run_workload`` through a recorder; returns
    the list of simulated point fingerprints."""
    real = report.run_workload
    fingerprints = []

    def counted(config, workload, **kwargs):
        fingerprints.append(point_fingerprint(config, workload, **kwargs))
        return real(config, workload, **kwargs)

    monkeypatch.setattr(report, "run_workload", counted)
    return fingerprints


@pytest.fixture(scope="module")
def fig7():
    return fig7_table(tiles=TILES, island_counts=(3,))


class TestFig6:
    def test_series_structure(self):
        series = fig6_series(tiles=TILES, island_counts=(3, 6))
        assert "Denoise, Crossbar" in series
        assert "EKF-SLAM, 1-Ring, 32-Byte" in series
        assert all(len(v) == 2 for v in series.values())

    def test_baseline_normalized_to_one(self):
        series = fig6_series(tiles=TILES, island_counts=(3, 6))
        assert series["Denoise, Crossbar"][0] == pytest.approx(1.0)
        assert series["EKF-SLAM, Crossbar"][0] == pytest.approx(1.0)

    def test_run_order_independent_of_hash_seed(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        orders = []
        for seed in ("0", "1", "2", "123"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _RUN_ORDER_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            orders.append(json.loads(out))
        assert all(order == orders[0] for order in orders)
        # Baselines run first, in the plan's first-appearance order.
        assert [call[0] for call in orders[0][:2]] == ["Denoise", "EKF-SLAM"]
        # Each distinct point is simulated exactly once: the two
        # baselines are also the plan's 3-island crossbar points.
        fingerprints = [call[-1] for call in orders[0]]
        assert len(fingerprints) == len(set(fingerprints)) == 8

    def test_calls_without_memo_share_nothing(self, monkeypatch):
        fingerprints = counting_run_workload(monkeypatch)
        fig6_series(tiles=1, island_counts=(3,))
        fig6_series(tiles=1, island_counts=(3,))
        assert len(fingerprints) == 16
        assert len(set(fingerprints)) == 8

    def test_rejects_no_island_counts(self):
        with pytest.raises(ConfigError, match="island count"):
            fig6_series(tiles=TILES, island_counts=())


class TestRingTables:
    def test_fig7_covers_all_benchmarks_and_rings(self, fig7):
        assert set(fig7) == {3}
        assert set(fig7[3]) == set(PAPER_BENCHMARKS)
        for row in fig7[3].values():
            assert list(row) == RING_LABELS

    def test_values_positive(self, fig7):
        for row in fig7[3].values():
            assert all(v > 0 for v in row.values())

    def test_fig8_and_fig9_share_structure(self):
        f8 = fig8_table(tiles=TILES, island_counts=(3,))
        f9 = fig9_table(tiles=TILES, island_counts=(3,))
        assert set(f8[3]) == set(f9[3]) == set(PAPER_BENCHMARKS)

    def test_shared_memo_simulates_each_point_once(self, monkeypatch):
        fingerprints = counting_run_workload(monkeypatch)
        memo = {}
        for table in (fig7_table, fig8_table, fig9_table):
            table(tiles=TILES, island_counts=(3,), memo=memo)
        # One crossbar and four rings per benchmark, all run by fig. 7.
        assert len(fingerprints) == len(memo) == 5 * len(PAPER_BENCHMARKS)

    @pytest.mark.parametrize("table", [fig7_table, fig8_table, fig9_table])
    def test_rejects_no_island_counts(self, table):
        with pytest.raises(ConfigError, match="island count"):
            table(tiles=TILES, island_counts=())


class TestFig10:
    def test_table_structure(self):
        table = fig10_table(tiles=TILES)
        assert set(table) == set(PAPER_BENCHMARKS) | {"Average"}
        for row in table.values():
            assert {"speedup", "energy_gain", "speedup_vs_4core"} <= set(row)

    def test_average_is_mean_of_benchmarks(self):
        table = fig10_table(tiles=TILES)
        speedups = [table[n]["speedup"] for n in PAPER_BENCHMARKS]
        assert table["Average"]["speedup"] == pytest.approx(
            sum(speedups) / len(speedups)
        )


class TestFormatTable:
    def test_renders_fig10(self):
        table = fig10_table(tiles=TILES)
        text = format_table(table, title="Fig 10")
        assert "Fig 10" in text
        assert "Segmentation" in text
