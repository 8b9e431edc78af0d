"""Paper Figs. 2-16: regenerate every figure and check its claims.

One bench per figure id in :data:`~repro.experiments.figures.FIGURES`.
Each regenerates the figure's data series (one per combination of
{GABL, Paging(0), MBS} x {FCFS, SSD}), writes it to
``results/<fig>.txt`` and verifies the paper's claims for that figure:

* every line chart: GABL ahead of Paging(0) and MBS under both
  schedulers (hard); Paging(0) ahead of MBS on the real workload, MBS
  not inferior to Paging(0) on the stochastic ones (soft, claim C3);
* turnaround (Figs. 2-4): SSD at or below FCFS for every allocator
  (claim C4);
* utilization under saturation (Figs. 8-10): "the non-contiguous
  allocation strategies achieve a mean system utilization of 72% to
  89%" and "the utilization of the three non-contiguous strategies is
  approximately the same" (claim C5).

Set ``REPRO_SCALE=paper`` for full-fidelity sweeps.
"""

import pytest
from _helpers import (
    GABL_BEST_FCFS,
    GABL_BEST_FCFS_MBS,
    GABL_BEST_SSD,
    GABL_BEST_SSD_MBS,
    MBS_BEATS_PAGING_STOCH,
    PAGING_BEATS_MBS_REAL,
    figure_bench,
    ssd_beats_fcfs,
)

from repro.experiments.figures import FIGURES
from repro.experiments.runner import FigureResult

GABL_BEST = [GABL_BEST_FCFS, GABL_BEST_FCFS_MBS, GABL_BEST_SSD, GABL_BEST_SSD_MBS]


def check_utilization(result: FigureResult) -> None:
    """Claim C5 on a saturation figure."""
    values = {label: series[-1] for label, series in result.series.items()}
    for label, util in values.items():
        assert 0.55 <= util <= 0.95, f"{label} utilization {util:.2f} out of range"
    # approximately the same across allocators (per scheduling strategy)
    for sched in ("FCFS", "SSD"):
        per_alloc = [
            values[f"{alloc}({sched})"]
            for alloc in ("GABL", "Paging(0)", "MBS")
        ]
        assert max(per_alloc) - min(per_alloc) <= 0.2, (sched, per_alloc)


@pytest.mark.parametrize("fig_id", list(FIGURES))
def test_figure(benchmark, scale, fig_id):
    spec = FIGURES[fig_id]
    if spec.saturation:
        check_utilization(figure_bench(benchmark, fig_id, scale))
        return
    mbs_vs_paging = (
        PAGING_BEATS_MBS_REAL if spec.workload == "real" else MBS_BEATS_PAGING_STOCH
    )
    result = figure_bench(
        benchmark, fig_id, scale, hard=GABL_BEST, soft=[mbs_vs_paging]
    )
    if spec.metric == "mean_turnaround":
        problems = ssd_beats_fcfs(result)
        assert not problems, "; ".join(problems)  # claim C4
