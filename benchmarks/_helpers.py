"""Support code shared by the benchmark files.

``figure_bench`` is the workhorse: it regenerates one paper figure's data
series through the campaign engine (deduplicated and cached across
figures that share simulation points; set ``REPRO_JOBS=N`` to fan the
simulations out over N worker processes), writes the table to
``results/<fig>.txt``, verifies the paper's headline ranking claims, and
times a representative fresh simulation point with pytest-benchmark so
``--benchmark-only`` output reflects real simulation throughput rather
than cache hits.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Sequence

from repro.alloc import make_allocator
from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.simulator import Simulator
from repro.experiments.figures import FIGURES
from repro.experiments.report import check_ranking, format_figure
from repro.experiments.runner import FigureResult, Scale, make_workload, run_figure
from repro.sched import make_scheduler


def bench_jobs() -> int:
    """Worker-process count for figure regeneration (``REPRO_JOBS``)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1

#: pairs (better, worse) asserted with generous slack -- these were robust
#: across calibration seeds; soft pairs merely warn (small-sample noise)
HARD_SLACK = 1.30
SOFT_SLACK = 1.10


def results_dir() -> Path:
    out = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def fresh_point(
    workload: str,
    load: float,
    alloc: str = "GABL",
    sched: str = "FCFS",
    jobs: int = 60,
    config: SimConfig = PAPER_CONFIG,
) -> float:
    """One small uncached simulation run (the timed benchmark kernel).

    Returns the mean turnaround so the timing loop has a data dependency.
    """
    cfg = config.with_(jobs=jobs)
    sc = Scale("bench", jobs=jobs, min_replications=1, max_replications=1,
               trace_max_jobs=300)
    sim = Simulator(
        cfg,
        make_allocator(alloc, cfg.width, cfg.length),
        make_scheduler(sched),
        make_workload(workload, cfg, load, sc),
    )
    return sim.run().mean_turnaround


def figure_bench(
    benchmark,
    fig_id: str,
    scale: str,
    hard: Sequence[Sequence[str]] = (),
    soft: Sequence[Sequence[str]] = (),
) -> FigureResult:
    """Regenerate ``fig_id``, check rankings, record, and time the kernel."""
    result = run_figure(fig_id, scale=scale, jobs=bench_jobs())
    table = format_figure(result)
    print("\n" + table)
    out = results_dir() / f"{fig_id}.txt"
    out.write_text(table + "\n")

    for ranking in hard:
        problems = check_ranking(result, list(ranking), slack=HARD_SLACK)
        assert not problems, "; ".join(problems)
    for ranking in soft:
        problems = check_ranking(result, list(ranking), slack=SOFT_SLACK)
        for p in problems:
            warnings.warn(f"soft ranking deviation: {p}", stacklevel=2)

    spec = FIGURES[fig_id]
    mid_load = spec.loads_for(Scale.by_name(scale).name)[-1]
    benchmark.pedantic(
        fresh_point, args=(spec.workload, mid_load), rounds=1, iterations=1
    )
    return result


# the paper's recurring ranking claims, expressed as label sequences
GABL_BEST_FCFS = ("GABL(FCFS)", "Paging(0)(FCFS)")
GABL_BEST_FCFS_MBS = ("GABL(FCFS)", "MBS(FCFS)")
GABL_BEST_SSD = ("GABL(SSD)", "Paging(0)(SSD)")
GABL_BEST_SSD_MBS = ("GABL(SSD)", "MBS(SSD)")
#: real workload: MBS inferior to Paging(0) (paper's exception, claim C3)
PAGING_BEATS_MBS_REAL = ("Paging(0)(FCFS)", "MBS(FCFS)")
#: stochastic workloads: MBS not inferior to Paging(0)
MBS_BEATS_PAGING_STOCH = ("MBS(FCFS)", "Paging(0)(FCFS)")


def ssd_beats_fcfs(result: FigureResult, slack: float = HARD_SLACK) -> list[str]:
    """Claim C4: SSD at or below FCFS turnaround for every allocator."""
    problems = []
    for alloc in ("GABL", "Paging(0)", "MBS"):
        ssd = result.series[f"{alloc}(SSD)"]
        fcfs = result.series[f"{alloc}(FCFS)"]
        mean_ssd = sum(ssd) / len(ssd)
        mean_fcfs = sum(fcfs) / len(fcfs)
        if mean_ssd > slack * mean_fcfs:
            problems.append(
                f"{alloc}: SSD mean {mean_ssd:.1f} > FCFS mean {mean_fcfs:.1f}"
            )
    return problems
