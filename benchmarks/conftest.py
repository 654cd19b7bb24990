"""Shared helpers for the paper-figure benchmark harness.

Every file in this directory regenerates one table or figure of the
paper's evaluation.  Simulations are deterministic, so each benchmark is
run once (``rounds=1``) — the interesting output is the regenerated
figure data, printed next to the paper's published values.
"""

import pytest

#: Tiles per simulated run in the benchmark harness: enough to reach
#: steady state, small enough that a full figure regenerates in seconds.
BENCH_TILES = 16


@pytest.fixture(scope="session")
def run_memo():
    """One result memo for the Fig. 6-10 checks: Figs. 6-10 share most
    of their design points, so each point is simulated once a session."""
    return {}


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic figure generator exactly once under timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_series(title, series, paper_note=""):
    """Print a regenerated figure series next to the paper's claim."""
    print(f"\n=== {title} ===")
    if paper_note:
        print(f"    paper: {paper_note}")
    for key, values in series.items():
        if isinstance(values, (list, tuple)):
            rendered = "  ".join(f"{v:6.3f}" for v in values)
        elif isinstance(values, dict):
            rendered = "  ".join(f"{k}={v:6.3f}" for k, v in values.items())
        else:
            rendered = f"{values:6.3f}"
        print(f"    {str(key):<34} {rendered}")
