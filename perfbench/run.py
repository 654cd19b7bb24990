#!/usr/bin/env python3
"""Run the benchmark: end-to-end metrics, then the per-layer ledger.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig6_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out result.json
    python3 perfbench/run.py --compare before.json after.json

For each workload, serially and in this one process: the inputs are
built from ``--seed``; one warm-up pass lets lazy set-up finish; then
passes run for ``--seconds`` (at least ``MIN_PASSES``), each timed after
a run of the calibration kernel.  Times are reported in calibrated
seconds (``report.calibrated``; README.md, "Calibrated time").
``setup_s`` is measured in fresh interpreters, since imports are only
paid once per process.  With
``--trace 1`` one more, instrumented pass produces the per-layer ledger
(see ``ledger.py``).

Every pass's outputs are checked; failures are counted, not fatal.  The
last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh-interpreter set-up measurements per workload (median reported).
SETUP_PROBES = 11
#: Passes before timing starts, so lazy set-up is not timed.
WARMUP_PASSES = 1
#: Timed passes at least, however short ``--seconds`` is.
MIN_PASSES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two result documents and exit")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> int:
    """Time imports plus input construction in this fresh interpreter."""
    start = time.perf_counter()
    from perfbench import ledger, workloads

    ops = ledger.Ops()
    workloads.WORKLOADS[name].setup(seed, ops)
    elapsed = time.perf_counter() - start
    from perfbench import report

    print(json.dumps({
        "setup_s": elapsed, "calib": report.calibrate(), "failed": ops.failed,
    }))
    return 0


def measure_setup(name: str, seed: int, ops) -> tuple:
    """Set-up seconds and calibration speeds of fresh interpreters."""
    samples, speeds = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            ops.fail(f"setup probe failed: {proc.stderr.strip()[-300:]}")
            continue
        if probe["failed"]:
            ops.fail("setup probe: an operation failed")
        samples.append(probe["setup_s"])
        speeds.append(probe["calib"])
    return samples, speeds


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def guarded(step, inputs, ops):
    """Run one pass step; an exception is a counted failure, not fatal."""
    from perfbench.ledger import OpFailed

    try:
        return step(inputs, ops)
    except OpFailed:
        return None
    except Exception as exc:  # the pass is broken; count it and go on
        ops.fail(f"{type(exc).__name__}: {exc}")
        return None


def bench_workload(workload, args, spec: dict) -> dict:
    from perfbench import ledger, report
    from perfbench.workloads import sim_digest

    ops = ledger.Ops()
    inputs = workload.setup(args.seed, ops)
    setup, setup_speeds = measure_setup(workload.name, args.seed, ops)

    walls, cycles, speeds, overheads = [], [], [], []
    digest = None
    passes = 0
    deadline = None
    while True:
        reference = None
        if workload.reference_pass is not None:
            ref_ops = ledger.Ops()
            gc.collect()
            start = time.perf_counter()
            reference = guarded(workload.reference_pass, inputs, ref_ops)
            ref_wall = time.perf_counter() - start
            ops.add(ref_ops)
        pass_ops = ledger.Ops()
        gc.collect()
        speed = report.calibrate()
        start = time.perf_counter()
        outcome = guarded(workload.run_pass, inputs, pass_ops)
        wall = time.perf_counter() - start
        if outcome is not None:
            pass_digest = sim_digest(outcome.results)
            digest = digest or pass_digest
            if pass_digest != digest:
                pass_ops.fail("sim_digest changed between passes")
            if reference is not None:
                problem = workload.check_reference(outcome, reference)
                if problem:
                    pass_ops.fail(problem)
        ops.add(pass_ops)
        passes += 1
        if passes <= WARMUP_PASSES:
            deadline = time.perf_counter() + args.seconds
            continue
        walls.append(wall)
        speeds.append(speed)
        cycles.append(outcome.sim_cycles if outcome else 0.0)
        if reference is not None:
            overheads.append(pass_ops.seconds["run_workload"] / ref_wall - 1.0)
        if len(walls) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb()

    host_wall = report.summarize(walls)
    speed = report.summarize(speeds)["median"]
    wall = report.calibrated(host_wall, speed)
    factor = speed / report.REFERENCE_OPS_PER_S
    rates = [c / 1e6 / (w * factor) for c, w in zip(cycles, walls)]
    result = {
        "passes": len(walls),
        "warmup_passes": WARMUP_PASSES,
        "sim_digest": digest,
        "end_to_end": {
            "wall_s": {**wall, "unit": "s"},
            "sim_mcycles_per_s": {**report.summarize(rates), "unit": "Mcycles/s"},
            "setup_s": {
                **report.calibrated(
                    report.summarize(setup or [0.0]),
                    report.summarize(setup_speeds or [speed])["median"],
                ),
                "unit": "s",
            },
            "peak_rss_mb": {**report.summarize([rss]), "unit": "MB"},
            "host_wall_s": {**host_wall, "unit": "s"},
            "calib_ops_per_s": {**report.summarize(speeds), "unit": "1/s"},
        },
    }
    if args.trace:
        led = ledger.ledger_pass(
            workload, args.seed, wall["median"], host_wall["median"]
        )
        ops.add(led["ops"])
        if led["digest"] != digest:
            ops.fail("ledger pass changed the simulated results")
        metrics = led["metrics"]
        metrics["obs.trace_overhead"] = (
            report.summarize(overheads)["median"] if overheads else 0.0
        )
        result["per_layer"] = {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        result["spans"] = led["spans"]
    error_rate = min(ops.failed, ops.attempted) / max(ops.attempted, 1)
    result["end_to_end"]["error_rate"] = {
        **report.summarize([error_rate]), "unit": "ratio"
    }
    result.update(
        attempted=ops.attempted, failed=min(ops.failed, ops.attempted),
        errors=ops.errors[:20],
    )
    return result


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def print_workload(name: str, result: dict) -> None:
    print(f"== {name}: {result['passes']} timed passes after "
          f"{result['warmup_passes']} warm-up; {result['attempted']} operations, "
          f"{result['failed']} failed; sim_digest {result['sim_digest']}")
    for metric, s in result["end_to_end"].items():
        print(f"   {metric:<20} {s['median']:>14.6g} {s['unit']:<10} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    for error in result["errors"]:
        print(f"   error: {error}")
    if "per_layer" in result:
        print("   per-layer ledger (one instrumented pass; self_s rescaled to wall_s):")
        for metric, v in result["per_layer"].items():
            print(f"   {metric:<30} {v['value']:>16.6g} {v['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    if args.compare:
        from perfbench.report import compare, read_document

        print(compare(read_document(args.compare[0]), read_document(args.compare[1])))
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed)

    from perfbench import report
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = load_spec()
    document = {
        "schema": report.SCHEMA,
        "manifest": report.manifest(ROOT, args, report.calibrate()),
        "workloads": {},
    }
    for name in names:
        result = bench_workload(WORKLOADS[name], args, spec)
        document["workloads"][name] = result
        print_workload(name, result)
    if args.out:
        report.write_document(args.out, document)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in document["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in spec[section]:
            values = result[section][metric["name"]]
            value = values["value"] if args.trace else values["median"]
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    results = document["workloads"].values()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
