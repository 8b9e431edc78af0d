#!/usr/bin/env python3
"""Sweep system load for all six strategy combinations (mini Fig. 3).

Reproduces the turnaround-vs-load experiment of the paper's Fig. 3 at a
reduced scale, printing the table and an ASCII plot.  This goes through
the campaign engine in :mod:`repro.experiments` -- the same machinery
the CLI and the benchmark harness use -- so shared simulation points are
deduplicated, results are cached under ``.repro-cache/``, and the cells
can be fanned out over worker processes with ``-j``.

Usage::

    python examples/stochastic_sweep.py [fig3|fig4|...] [-j N]
    REPRO_SCALE=quick python examples/stochastic_sweep.py fig3 -j 4
"""

import argparse

from repro.experiments import (
    Campaign,
    ascii_chart,
    default_scale,
    figure_chart,
    format_figure,
    run_figure,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fig_id", nargs="?", default="fig3")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    args = parser.parse_args()
    scale = default_scale()
    campaign = Campaign.from_figures((args.fig_id,), scale=scale)
    print(f"regenerating {args.fig_id} at scale={scale}: "
          f"{len(campaign.points)} unique points on {args.jobs} worker(s) "
          f"(set REPRO_SCALE=paper for full fidelity)...\n")
    campaign.run(jobs=args.jobs, progress=print)
    # all cells are now cached; assembling the figure is free
    result = run_figure(args.fig_id, scale=scale)
    print()
    print(format_figure(result))
    print()
    print(ascii_chart(figure_chart(result)))

    gabl = result.series_for("GABL", "FCFS")
    paging = result.series_for("Paging(0)", "FCFS")
    mbs = result.series_for("MBS", "FCFS")
    print(
        f"\nat the highest load, GABL(FCFS) turnaround is "
        f"{gabl[-1] / paging[-1]:.0%} of Paging(0)(FCFS) and "
        f"{gabl[-1] / mbs[-1]:.0%} of MBS(FCFS)"
    )


if __name__ == "__main__":
    main()
