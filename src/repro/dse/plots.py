"""Text-mode figure rendering.

Renders the paper-figure data structures from :mod:`repro.dse.report`
as terminal bar charts and line series, so ``python -m repro fig7``
gives a readable approximation of the published figure without any
plotting dependency.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError

#: Character used for bar fill.
BAR_CHAR = "█"


def hbar_chart(
    values: typing.Mapping[str, float],
    title: str = "",
    width: int = 40,
    reference: typing.Optional[float] = None,
) -> str:
    """Horizontal bar chart of labelled values.

    ``reference`` draws a marker column (e.g. the 1.0 normalization
    line) when it falls inside the plotted range.
    """
    if not values:
        raise ConfigError("nothing to plot")
    if width < 10:
        raise ConfigError("chart width must be >= 10")
    maximum = max(values.values())
    if maximum <= 0:
        raise ConfigError("bar chart needs a positive maximum")
    label_width = max(len(str(k)) for k in values) + 1
    lines = [title] if title else []
    for label, value in values.items():
        if value < 0:
            raise ConfigError(f"negative bar value for {label!r}")
        filled = int(round(value / maximum * width))
        bar = BAR_CHAR * filled
        if reference is not None and 0 < reference <= maximum:
            ref_col = int(round(reference / maximum * width))
            cells = list(bar.ljust(width))
            if 0 <= ref_col < width and cells[ref_col] == " ":
                cells[ref_col] = "|"
            bar = "".join(cells).rstrip()
        lines.append(f"{str(label):<{label_width}} {bar} {value:.2f}")
    return "\n".join(lines)


def line_series(
    series: typing.Mapping[str, typing.Sequence[float]],
    x_labels: typing.Sequence,
    title: str = "",
) -> str:
    """Render named series over shared x points as an aligned table."""
    if not series:
        raise ConfigError("nothing to plot")
    label_width = max(len(str(k)) for k in series) + 1
    lines = [title] if title else []
    header = " " * label_width + "".join(f"{str(x):>8}" for x in x_labels)
    lines.append(header)
    for name, values in series.items():
        if len(values) != len(x_labels):
            raise ConfigError(
                f"series {name!r} has {len(values)} points for "
                f"{len(x_labels)} x labels"
            )
        lines.append(
            f"{str(name):<{label_width}}"
            + "".join(f"{v:8.2f}" for v in values)
        )
    return "\n".join(lines)
