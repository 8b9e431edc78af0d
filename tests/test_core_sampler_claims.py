"""Tests for periodic state sampling (the trajectory observer) and the
paper-claim verification module."""

import pytest

from repro.alloc import make_allocator
from repro.core.config import SimConfig
from repro.core.hooks import TrajectoryObserver
from repro.core.simulator import Simulator
from repro.experiments.claims import (
    CHECKS,
    ClaimReport,
    ClaimResult,
    check_c2_gabl_best,
    check_c4_ssd_beats_fcfs,
    check_c5_utilization,
)
from repro.experiments.figures import FIGURES
from repro.experiments.runner import FigureResult
from repro.sched import make_scheduler
from repro.workload.stochastic import StochasticWorkload


def make_sim(load=0.05, jobs=40, observers=()):
    cfg = SimConfig(width=8, length=8, jobs=jobs, seed=9)
    return Simulator(
        cfg,
        make_allocator("GABL", 8, 8),
        make_scheduler("FCFS"),
        StochasticWorkload(cfg, load=load),
        observers=observers,
    )


def observe(interval, load=0.05, jobs=40):
    """Run a simulator with a trajectory observer attached."""
    observer = TrajectoryObserver(interval, processors=64)
    result = make_sim(load, jobs, observers=(observer,)).run()
    return observer, result


class TestSampler:
    """The periodic state sampling behind the saturation figures, through
    the passive :class:`TrajectoryObserver`."""

    def test_collects_samples(self):
        observer, _ = observe(50.0)
        assert len(observer.times) > 5
        times = observer.times
        assert times == sorted(times)
        # period spacing
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(50.0) for g in gaps)

    def test_sample_values_sane(self):
        observer, _ = observe(25.0)
        assert all(0 <= b <= 64 for b in observer.busy)
        assert all(q >= 0 for q in observer.queue_length)
        assert all(0.0 <= u <= 1.0 for u in observer.utilization())

    def test_saturation_fills_queue_early(self):
        """The paper's Figs. 8-10 premise: under heavy load the waiting
        queue fills very early in the run."""
        observer, result = observe(20.0, load=0.5, jobs=60)
        t_queue = next(
            (t for t, q in zip(observer.times, observer.queue_length)
             if q >= 10),
            None,
        )
        assert t_queue is not None
        assert t_queue < result.sim_time * 0.25
        util = observer.utilization()
        plateau = util[int(len(util) * 0.3):]
        assert sum(plateau) / len(plateau) > 0.5

    def test_series_helpers(self):
        observer, _ = observe(40.0)
        series = observer.series()
        assert len(series["utilization"]) == len(series["queue_length"]) \
            == len(series["times"])
        assert all(0.0 <= u <= 1.0 for u in series["utilization"])

    def test_bad_period(self):
        with pytest.raises(ValueError):
            TrajectoryObserver(0.0)


def _fake_figs(gabl=10.0, paging=15.0, util=0.8):
    """Synthetic figure set embodying the paper's findings: GABL wins
    everywhere, SSD beats FCFS, and MBS sits above Paging(0) on the real
    workload but below it on the stochastic ones (the C3 exception)."""
    figs = {}
    for fig_id, spec in FIGURES.items():
        if spec.saturation:
            series = {
                f"{a}({s})": (util,)
                for a in ("GABL", "Paging(0)", "MBS")
                for s in ("FCFS", "SSD")
            }
            loads = (0.1,)
        else:
            mbs = paging * (1.2 if spec.workload == "real" else 0.85)
            series = {}
            for s, scale in (("FCFS", 1.0), ("SSD", 0.6)):
                series[f"GABL({s})"] = (gabl * scale, gabl * scale * 2)
                series[f"Paging(0)({s})"] = (paging * scale, paging * scale * 2)
                series[f"MBS({s})"] = (mbs * scale, mbs * scale * 2)
            loads = (0.01, 0.02)
        figs[fig_id] = FigureResult(spec=spec, loads=loads, series=series)
    return figs


class TestClaimChecks:
    def test_all_checks_pass_on_ideal_data(self):
        figs = _fake_figs()
        for check in CHECKS:
            result = check(figs)
            assert isinstance(result, ClaimResult)
            assert result.passed, result

    def test_c2_fails_when_gabl_loses(self):
        figs = _fake_figs(gabl=30.0, paging=15.0)
        assert not check_c2_gabl_best(figs).passed

    def test_c4_fails_when_ssd_worse(self):
        figs = _fake_figs()
        spec = FIGURES["fig3"]
        bad_series = dict(figs["fig3"].series)
        bad_series["GABL(SSD)"] = (1000.0, 2000.0)
        figs["fig3"] = FigureResult(
            spec=spec, loads=figs["fig3"].loads, series=bad_series
        )
        assert not check_c4_ssd_beats_fcfs(figs).passed

    def test_c5_fails_out_of_band(self):
        figs = _fake_figs(util=0.3)
        assert not check_c5_utilization(figs).passed

    def test_report_formatting(self):
        figs = _fake_figs()
        results = tuple(check(figs) for check in CHECKS)
        report = ClaimReport(results=results, scale="unit")
        text = report.format()
        assert "ALL CLAIMS HOLD" in text
        assert report.passed
        assert text.count("[PASS]") == len(CHECKS)

    def test_report_failure_verdict(self):
        bad = ClaimResult("CX", "demo", False, "nope")
        report = ClaimReport(results=(bad,), scale="unit")
        assert "SOME CLAIMS FAILED" in report.format()
        assert not report.passed
