"""Design-space exploration harness.

Defines the paper's design space (Section 3.2) and resolves its points
through one resolver, :func:`run_points` — memo, then a persistent
content-addressed result cache, then the simulator, serially or across
a process pool.  The :class:`Explorer` sweeps and the Figure 6-10
generators are projections of the results it returns.
"""

from repro.dse.space import DesignSpace, design_points
from repro.dse.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    point_fingerprint,
    serve_point_fingerprint,
)
from repro.dse.explorer import Explorer, SweepRow
from repro.dse.report import (
    run_points,
    fig6_series,
    fig7_table,
    fig8_table,
    fig9_table,
    fig10_table,
    format_table,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DesignSpace",
    "Explorer",
    "ResultCache",
    "SweepRow",
    "design_points",
    "fig6_series",
    "fig7_table",
    "fig8_table",
    "fig9_table",
    "fig10_table",
    "format_table",
    "point_fingerprint",
    "run_points",
    "serve_point_fingerprint",
]
