"""Text rendering and shape checks for regenerated figures.

The reproduction is judged on *shape*: who wins, by roughly what factor,
where the curves sit.  ``format_figure`` prints the same rows/series the
paper plots; the ``ordering``/``ratio`` helpers let benchmarks assert the
paper's headline claims (C1-C6 in DESIGN.md) without pinning absolute
numbers.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.experiments.plot import Chart
from repro.experiments.runner import FigureResult


def format_figure(result: FigureResult, precision: int | None = None) -> str:
    """Render a figure's series as an aligned text table.

    Precision adapts to the magnitude (utilization fractions get three
    decimals, turnaround times one) unless given explicitly.
    """
    labels = list(result.series)
    if precision is None:
        peak = max((v for s in result.series.values() for v in s), default=0.0)
        precision = 3 if peak < 10 else 1
    width = max(len(lbl) for lbl in labels + ["load"]) + 2
    col = max(precision + 9, 12)
    lines = [result.spec.fig_id.upper() + ": " + result.spec.title]
    header = "load".ljust(width) + "".join(
        f"{load:>{col}.4g}" for load in result.loads
    )
    lines.append(header)
    lines.append("-" * len(header))
    for lbl in labels:
        row = lbl.ljust(width) + "".join(
            f"{v:>{col}.{precision}f}" for v in result.series[lbl]
        )
        lines.append(row)
    return "\n".join(lines)


def mean_of(series: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty series)."""
    return sum(series) / len(series) if series else 0.0


def series_leq(
    a: Sequence[float], b: Sequence[float], slack: float = 1.05
) -> bool:
    """Whether series ``a`` sits at or below ``b`` on average.

    ``slack`` tolerates small-sample noise: ``mean(a) <= slack * mean(b)``.
    """
    return mean_of(a) <= slack * mean_of(b)


def endpoint_ratio(a: Sequence[float], b: Sequence[float]) -> float:
    """``a[-1] / b[-1]`` -- the paper quotes ratios at the highest load."""
    if b[-1] == 0:
        return float("inf")
    return a[-1] / b[-1]


def check_ranking(
    result: FigureResult,
    ordered_labels: Sequence[str],
    slack: float = 1.05,
) -> list[str]:
    """Verify ``ordered_labels`` are best-to-worst in this figure.

    Returns a list of violation messages (empty when the ranking holds).
    """
    problems: list[str] = []
    for better, worse in zip(ordered_labels, ordered_labels[1:]):
        a = result.series[better]
        b = result.series[worse]
        if not series_leq(a, b, slack):
            problems.append(
                f"{result.spec.fig_id}: expected {better} <= {worse}, got "
                f"means {mean_of(a):.2f} vs {mean_of(b):.2f}"
            )
    return problems


def figure_chart(result: FigureResult) -> Chart:
    """The figure as a :class:`~repro.experiments.plot.Chart` -- metric
    vs. load, one series per strategy combination -- for
    :func:`~repro.experiments.plot.ascii_chart` (``figN --plot``)."""
    return Chart(
        title=result.spec.fig_id.upper(),
        xlabel="load",
        ylabel=result.spec.ylabel,
        series={
            label: (result.loads, values)
            for label, values in result.series.items()
        },
    )


def summarize_point(point: Mapping[str, float]) -> str:
    """One-line summary of a run_point result."""
    return (
        f"turnaround={point['mean_turnaround']:.1f} "
        f"service={point['mean_service']:.1f} "
        f"latency={point['mean_packet_latency']:.1f} "
        f"blocking={point['mean_packet_blocking']:.1f} "
        f"util={point['utilization']:.3f}"
    )
