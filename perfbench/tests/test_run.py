import json
import statistics

from perfbench import report, run


def test_summarize_uses_statistics_quartiles():
    values = [0.9, 0.5, 0.7, 0.6, 0.8, 1.4]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert report.summarize(values) == {"median": median, "q1": q1, "q3": q3, "n": 6}
    assert report.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def _document(wall, heap, digest="d1"):
    return {
        "schema": report.SCHEMA,
        "manifest": {
            "commit": "abc", "dirty": False, "python": "3.11", "cpu_count": 2,
            "calib_ops_per_s": 2e7, "seed": 0,
        },
        "workloads": {
            "fig6_sweep": {
                "sim_digest": digest,
                "end_to_end": {
                    "wall_s": {"median": wall, "q1": wall * 0.9, "q3": wall * 1.1,
                               "n": 12, "unit": "s"},
                },
                "per_layer": {
                    "engine.heap_entries": {"value": heap, "unit": "count"},
                    "island.heap_entries_per_dma": {"value": heap / 1000, "unit": "ratio"},
                },
            },
        },
    }


def test_compare_shows_medians_quartiles_and_exact_layer_deltas(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    report.write_document(str(a), _document(0.5, 123379))
    report.write_document(str(b), _document(0.4, 100000, digest="d2"))
    text = report.compare(report.read_document(str(a)), report.read_document(str(b)))
    assert "sim_digest d1 vs d2 (DIFFERENT)" in text
    wall = next(line for line in text.splitlines() if line.strip().startswith("wall_s"))
    assert "0.5 [0.45, 0.55]" in wall and "0.4 [0.36, 0.44]" in wall
    assert wall.rstrip().endswith("-20.0%")
    heap = next(line for line in text.splitlines() if "engine.heap_entries " in line)
    assert heap.split()[1:] == ["123379", "100000", "-23379"]
    assert "island.heap_entries_per_dma" in text


def test_one_run_prints_the_contract_line(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    argv = ["--workload", "serve_bursty", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = run.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.estimate_wait_calls"] > 0
    assert metrics["serve.offered"] > 0
    assert metrics["obs.self_s"] == 0.0
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    wall = float(next(l for l in lines if l.strip().startswith("wall_s")).split()[1])
    assert abs(self_times - wall) < 1e-5 * wall
