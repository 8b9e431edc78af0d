"""The benchmark's workloads: what each one runs, built from a seed.

Every workload is a campaign on the public API.  The benchmark seed sets
``SimConfig.seed`` (the base of every replication seed); nothing else
about the campaign depends on it.  This module only *describes* the
workloads -- importing it runs nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

#: the seed the committed digests were made at (``PAPER_CONFIG.seed``)
DEFAULT_SEED = 12345

#: the lossy scenario grid, relative to the checkout root
LOSSY_SCENARIO = Path("examples") / "scenario_lossy.json"

#: loads per workload family in the resume sweep
SWEEP_LOADS = 100

#: scenario seeds per lossy-fallback run
LOSSY_SEEDS = 4


def nproc() -> int:
    """CPUs this process may run on (the thread count of parallel runs)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  #: ``SimConfig.engine`` of every point
    scale: str  #: campaign scale preset
    parallel: bool  #: thread executor at ``-j nproc`` (else serial)
    needs_native: bool  #: timing it without the compiled driver is meaningless
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "paper-soa", "soa", "paper", True, True,
            "paper-scale figure campaign on the compiled lane driver; "
            "lane driver and replication control dominate",
        ),
        Workload(
            "quick-reference", "reference", "smoke", False, False,
            "CLI default: reference engine, serial; Python alloc, network "
            "and event loop dominate, lane driver idle",
        ),
        Workload(
            "resume-sweep", "soa", "smoke", True, True,
            "dense sweep over a half-filled store; per-point dispatch, "
            "store I/O, lane setup and key encoding dominate",
        ),
        Workload(
            "lossy-fallback", "soa", "smoke", True, False,
            "lossy-channel scenario; the only workload running the channel "
            "and ARQ layers, on the GIL-bound SoA fallback",
        ),
    )
}


def paper_points(scale_name: str, engine: str, seed: int) -> list:
    """fig2-fig16 cells, every third load of each figure's sweep.

    The saturation figures (8-10) have a single load and keep it, so
    every figure, workload and strategy combination stays in the set.
    """
    from repro.core.config import PAPER_CONFIG
    from repro.experiments.campaign import PointSpec, Scale
    from repro.experiments.figures import FIGURES

    scale = Scale.by_name(scale_name)
    config = PAPER_CONFIG.with_(engine=engine, seed=seed)
    return [
        PointSpec(workload=fig.workload, load=load, alloc=alloc, sched=sched,
                  scale=scale, config=config)
        for fig in FIGURES.values()
        for alloc, sched in fig.combos
        for load in fig.loads_for(scale_name)[::3]
    ]


def figure_points(scale_name: str, engine: str, seed: int) -> list:
    """Every fig2-fig16 cell (what ``repro all`` runs)."""
    from repro.core.config import PAPER_CONFIG
    from repro.experiments.campaign import Campaign
    from repro.experiments.figures import FIGURES

    config = PAPER_CONFIG.with_(engine=engine, seed=seed)
    return list(Campaign.from_figures(
        tuple(FIGURES), scale=scale_name, config=config).points)


def sweep_points(scale_name: str, engine: str, seed: int) -> list:
    """3 workloads x 3 allocators x 2 schedulers x 100 loads.

    Loads are evenly spaced up to each workload's figure-sweep ceiling.
    """
    from repro.core.config import PAPER_CONFIG
    from repro.experiments.campaign import Campaign
    from repro.experiments.figures import sweep_ceiling

    config = PAPER_CONFIG.with_(engine=engine, seed=seed)
    points = []
    for workload in ("real", "uniform", "exponential"):
        top = sweep_ceiling(workload)
        loads = [round(top * (i + 1) / SWEEP_LOADS, 9)
                 for i in range(SWEEP_LOADS)]
        points.extend(Campaign.sweep(
            [workload], loads, ["GABL", "Paging(0)", "MBS"], ["FCFS", "SSD"],
            scale=scale_name, config=config,
        ).points)
    return points


def lossy_scenarios(root: Path, engine: str, seed: int) -> list:
    """The lossy example scenario's grid at the workload's scale, once per
    scenario seed derived from the benchmark seed.

    One smoke-scale pass over the six-point grid is too little work for a
    steady time, so a run replays it under :data:`LOSSY_SEEDS` seeds.
    """
    import json

    from repro.experiments.scenario import Scenario

    data = json.loads((root / LOSSY_SCENARIO).read_text())
    data["scale"] = WORKLOADS["lossy-fallback"].scale
    return [
        Scenario.from_dict({**data, "config": {
            **data.get("config", {}), "seed": seed * LOSSY_SEEDS + k,
            "engine": engine,
        }})
        for k in range(LOSSY_SEEDS)
    ]


def points(name: str, root: Path, seed: int, engine: str | None = None) -> list:
    """Every point a workload computes (resume-sweep: prefilled ones too)."""
    wl = WORKLOADS[name]
    engine = engine or wl.engine
    if name == "paper-soa":
        return paper_points(wl.scale, engine, seed)
    if name == "quick-reference":
        return figure_points(wl.scale, engine, seed)
    if name == "resume-sweep":
        return sweep_points(wl.scale, engine, seed)
    return [p for sc in lossy_scenarios(root, engine, seed) for p in sc.points()]


def prefill_points(name: str, root: Path, seed: int) -> list:
    """Points the store holds before the timed run (resume-sweep only)."""
    if name != "resume-sweep":
        return []
    return points(name, root, seed)[1::2]

