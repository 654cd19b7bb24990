"""Result documents: summaries, the run manifest, and compare mode.

Only the standard library is used here, so compare mode runs without
the program's sources.
"""

from __future__ import annotations

import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import typing

SCHEMA = "perfbench-result/1"

#: :func:`calibrate` speed of the reference host (this benchmark's
#: first host when idle).  Timings are reported as seconds on that host;
#: see README.md, "Calibrated time".
REFERENCE_OPS_PER_S = 800_000.0


def summarize(values: typing.Sequence[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def calibrate(ops: int = 30_000, repeats: int = 3) -> float:
    """Ops/s of a fixed event-queue kernel, best of ``repeats``.

    The kernel does what the simulator spends its time on -- heap pushes
    and pops of tuples, small-object allocation, dict stores -- with the
    standard library only, so it measures the host, not the program.
    On a shared host its speed follows the simulator's when neighbours
    slow both down, which a plain arithmetic loop does not.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        queue: list = []
        table: dict = {}
        head = None
        for i in range(ops):
            heapq.heappush(queue, ((i * 7919) % 10007, i))
            if i % 3 == 0:
                when, j = heapq.heappop(queue)
                head = _Node(j, when, head)
                table[(j & 4095, when)] = head
        while queue:
            heapq.heappop(queue)
        best = min(best, time.perf_counter() - start)
    return ops / best


def calibrated(summary: dict, ops_per_s: float) -> dict:
    """A :func:`summarize` of host seconds measured at calibration speed
    ``ops_per_s``, scaled to the reference host."""
    factor = ops_per_s / REFERENCE_OPS_PER_S
    return {
        **summary,
        **{key: summary[key] * factor for key in ("median", "q1", "q3")},
    }


def source_revision(root: str) -> dict:
    """Commit and dirty flag of ``root``, when it is a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return {"commit": "unknown", "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()

    try:
        return {
            "commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}


def manifest(root: str, args, calib_ops_per_s: float) -> dict:
    """Where and how a result was measured."""
    return {
        **source_revision(root),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calib_ops_per_s": calib_ops_per_s,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv[1:],
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_document(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_document(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    return document


def _fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:d}"
    return f"{value:.6g}"


def _quartiles(summary: dict) -> str:
    return f"{_fmt(summary['median'])} [{_fmt(summary['q1'])}, {_fmt(summary['q3'])}]"


def compare(a: dict, b: dict) -> str:
    """Diff two result documents, workload by workload.

    End-to-end metrics show each side's median and quartiles and the
    change of the median; per-layer metrics show both values and their
    exact difference, so a count delta such as
    ``island.heap_entries_per_dma`` can be quoted as is.
    """
    lines = []
    for side, doc in (("A", a), ("B", b)):
        m = doc["manifest"]
        lines.append(
            f"{side}: commit {m['commit']} dirty={m['dirty']} "
            f"python {m['python']} cpus {m['cpu_count']} "
            f"calib {m['calib_ops_per_s']:.4g} ops/s seed {m['seed']}"
        )
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(name)
        wb = b["workloads"].get(name)
        lines.append("")
        lines.append(f"== {name}")
        if wa is None or wb is None:
            lines.append(f"   only in {'A' if wb is None else 'B'}")
            continue
        digest = "same" if wa["sim_digest"] == wb["sim_digest"] else "DIFFERENT"
        lines.append(
            f"   sim_digest {wa['sim_digest']} vs {wb['sim_digest']} ({digest})"
        )
        lines.append(
            f"   {'metric':<20}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
            f"{'change':>10}"
        )
        for metric in wa["end_to_end"]:
            if metric not in wb["end_to_end"]:
                continue
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            change = (
                f"{sb['median'] / sa['median'] - 1.0:+.1%}" if sa["median"] else "n/a"
            )
            lines.append(
                f"   {metric:<20}{_quartiles(sa):>36}{_quartiles(sb):>36}{change:>10}"
            )
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        if la and lb:
            lines.append(f"   {'per-layer metric':<30}{'A':>16}{'B':>16}{'B - A':>16}")
            for metric in la:
                if metric not in lb:
                    continue
                va, vb = la[metric]["value"], lb[metric]["value"]
                lines.append(
                    f"   {metric:<30}{_fmt(va):>16}{_fmt(vb):>16}{_fmt(vb - va):>16}"
                )
    return "\n".join(lines)
