"""Tests for the point resolver's parallel runs and persistent-cache reuse."""

import json
import os
import subprocess
import sys

import pytest

from repro.dse import DesignSpace, Explorer, ResultCache
from repro.dse.report import run_points
from repro.errors import ConfigError
from repro.island import NetworkKind, SpmDmaNetworkConfig
from repro.sim.system import SystemConfig
from repro.workloads import get_workload

#: Resolves :func:`distinct_points` on a two-worker pool, forced even on
#: a one-CPU host, and prints the pool size and the result reprs.
_POOL_SCRIPT = """
import concurrent.futures
import json
import repro.dse.report as report
from tests.test_dse_parallel import distinct_points
pools = []
real_pool = concurrent.futures.ProcessPoolExecutor
def recording_pool(max_workers):
    pools.append(max_workers)
    return real_pool(max_workers=max_workers)
report.os.cpu_count = lambda: 2
concurrent.futures.ProcessPoolExecutor = recording_pool
results, _ = report.run_points(distinct_points(), jobs=2)
print(json.dumps({"pools": pools, "reprs": [repr(r) for r in results]}))
"""


def small_space():
    return DesignSpace(
        island_counts=(3, 6),
        networks=(
            SpmDmaNetworkConfig(kind=NetworkKind.PROXY_CROSSBAR),
            SpmDmaNetworkConfig(
                kind=NetworkKind.RING, link_width_bytes=32, rings=2
            ),
        ),
    )


def workloads():
    return [
        get_workload("Denoise", tiles=2),
        get_workload("EKF-SLAM", tiles=2),
    ]


def distinct_points():
    """Four distinct design points: two island counts x two workloads."""
    return [
        (SystemConfig(n_islands=n), workload)
        for n in (3, 6)
        for workload in workloads()
    ]


class TestParallelSweep:
    def test_parallel_equals_serial_row_for_row(self):
        space = small_space()
        serial = Explorer(workloads())
        serial.sweep(space)
        parallel = Explorer(workloads(), jobs=4)
        parallel.sweep(space)
        assert len(serial.rows) == len(parallel.rows) == space.size() * 2
        for expected, actual in zip(serial.rows, parallel.rows):
            assert expected.config == actual.config
            assert expected.workload == actual.workload
            # Bit-identical results: SimResult equality is exact float
            # equality over every field, including nested breakdowns.
            assert expected.result == actual.result

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        space = small_space()
        cold = Explorer(workloads(), cache=ResultCache(str(tmp_path)), jobs=4)
        cold.sweep(space)
        assert cold.simulations_run == space.size() * 2

        warm_cache = ResultCache(str(tmp_path))
        warm = Explorer(workloads(), cache=warm_cache, jobs=4)
        warm.sweep(space)
        assert warm.simulations_run == 0
        assert warm_cache.hits == space.size() * 2
        for expected, actual in zip(cold.rows, warm.rows):
            assert expected.result == actual.result

    def test_incremental_sweep_only_runs_new_points(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = Explorer(workloads(), cache=cache)
        first.sweep(DesignSpace(island_counts=(3,)))
        bigger = Explorer(workloads(), cache=ResultCache(str(tmp_path)))
        bigger.sweep(DesignSpace(island_counts=(3, 6)))
        # Only the 6-island points are new.
        assert bigger.simulations_run == 5 * 2

    def test_in_memory_memo_still_dedupes(self):
        explorer = Explorer(workloads())
        space = small_space()
        explorer.sweep(space)
        ran = explorer.simulations_run
        explorer.sweep(
            DesignSpace(island_counts=(3,), networks=space.networks[:1])
        )
        assert explorer.simulations_run == ran

    def test_jobs_validation(self):
        with pytest.raises(ConfigError):
            Explorer(workloads(), jobs=0)
        with pytest.raises(ConfigError):
            run_points([], jobs=0)


class TestRunPoints:
    def test_duplicate_points_simulated_once(self):
        workload = get_workload("Denoise", tiles=2)
        from repro.sim.system import SystemConfig

        config = SystemConfig(n_islands=3)
        results, simulated = run_points([(config, workload)] * 3)
        assert simulated == 1
        assert results[0] == results[1] == results[2]

    def test_memo_prevents_resimulation(self):
        workload = get_workload("Denoise", tiles=2)
        from repro.sim.system import SystemConfig

        config = SystemConfig(n_islands=3)
        memo = {}
        _, first = run_points([(config, workload)], memo=memo)
        _, second = run_points([(config, workload)], memo=memo)
        assert first == 1
        assert second == 0

    def test_empty_points(self):
        results, simulated = run_points([])
        assert results == [] and simulated == 0

    def test_single_cpu_runs_inline(self, monkeypatch):
        """On one CPU a multi-job sweep spawns no pool and returns the
        serial rows."""
        import repro.dse.report as report

        points = distinct_points()
        serial, _ = run_points(points, jobs=1)

        def no_pool(*_args, **_kwargs):
            raise AssertionError("process pool spawned on one CPU")

        monkeypatch.setattr(report.os, "cpu_count", lambda: 1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        inline, simulated = run_points(points, jobs=4)
        assert simulated == len(points)
        assert inline == serial

    def test_import_loads_no_pool_machinery(self):
        """Only a multi-worker sweep loads the process pool, so a fresh
        interpreter that imports the DSE layer does not pay for it."""
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        script = (
            "import sys, repro.dse\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_pool_workers_match_inline_across_hash_seeds(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        path = os.pathsep.join([os.path.join(root, "src"), root])
        inline, _ = run_points(distinct_points(), jobs=1)
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            out = subprocess.run(
                [sys.executable, "-c", _POOL_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            child = json.loads(out)
            assert child["pools"] == [2]
            assert child["reprs"] == [repr(result) for result in inline]
