"""Shared fixtures for the tier-1 suite."""

import os

import pytest
from hypothesis import settings

from repro.engine.simulator import Simulator

# Property tests that leave ``max_examples`` unset (the differential
# reference checks among them) run hypothesis' default of 100 examples;
# ``HYPOTHESIS_PROFILE=ci`` runs them ten times deeper.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class WorkCounts:
    """Exact simulator work done since the last :meth:`take`.

    Heap entries are the sequence numbers handed out by every simulator
    that ran; processes are the :meth:`Simulator.process` calls.  Both
    are deterministic, so golden tests pin them exactly, unlike walls.
    """

    def __init__(self) -> None:
        self.sims: dict = {}  # id -> simulator; kept alive so ids stay unique
        self.processes = 0

    def take(self) -> tuple:
        """``(heap_entries, processes)`` so far, then start again at zero."""
        counts = (sum(sim._seq for sim in self.sims.values()), self.processes)
        self.sims.clear()
        self.processes = 0
        return counts


@pytest.fixture
def work_counts(monkeypatch):
    """Count the heap entries and processes of the simulations run."""
    counts = WorkCounts()
    run = Simulator.run
    process = Simulator.process

    def counted_run(sim, *args, **kwargs):
        counts.sims[id(sim)] = sim
        return run(sim, *args, **kwargs)

    def counted_process(sim, generator):
        counts.processes += 1
        return process(sim, generator)

    monkeypatch.setattr(Simulator, "run", counted_run)
    monkeypatch.setattr(Simulator, "process", counted_process)
    return counts
