"""One execution path: every entry point reaches the one executor factory
(``campaign.make_executor``) with the requested kind, trajectory fan-out
keeps its kind rule and worker count, and spawn-started worker processes
resolve an external trace through the pool initializer alone."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cli import main
from repro.core.config import SimConfig
from repro.experiments import campaign, claims, scenario
from repro.experiments.campaign import (
    Campaign,
    Scale,
    SerialExecutor,
    trace_fingerprint,
)
from repro.experiments.claims import verify_all
from repro.experiments.figures import FIGURES
from repro.experiments.scenario import Scenario
from repro.experiments.store import ResultCache, reset_global_cache
from repro.experiments.trajectory import run_saturation_figure
from repro.workload.trace import TraceJob

TINY = {"width": 8, "length": 8, "seed": 11}
TWO_REPS = Scale("two", jobs=12, min_replications=2, max_replications=2,
                 trace_max_jobs=40)
TRACE = [TraceJob(arrival=float(i * 4), size=(i % 4) + 1, runtime=25.0)
         for i in range(40)]


class _Stop(Exception):
    """Raised by the spy once it has recorded the executor kind."""


@pytest.fixture
def factory_calls(monkeypatch, tmp_path):
    """Record the ``(jobs, kind)`` of every ``campaign.make_executor``
    call; the global store is a fresh directory, so nothing is a hit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_global_cache()
    calls: list[tuple[int, str | None]] = []
    real = campaign.make_executor

    def spy(jobs, kind=None, *args, **kwargs):
        calls.append((jobs, kind))
        if getattr(spy, "stop", False):
            raise _Stop
        return real(jobs, kind, *args, **kwargs)

    monkeypatch.setattr(campaign, "make_executor", spy)
    yield calls, spy
    reset_global_cache()


class TestExecutorKindReachesTheFactory:
    """``-j 2 --executor serial`` must run serially everywhere."""

    def test_claims(self, factory_calls):
        calls, spy = factory_calls
        spy.stop = True  # the kind is all this test needs
        with pytest.raises(_Stop):
            main(["claims", "-j", "2", "--executor", "serial"])
        assert calls == [(2, "serial")]
        with pytest.raises(_Stop):
            verify_all(jobs=2, executor="thread")
        assert calls[-1] == (2, "thread")

    def test_auto_saturation_figure(self, factory_calls, capsys):
        calls, _ = factory_calls
        assert main(["fig9", "--auto-saturation", "-j", "2",
                     "--executor", "serial"]) == 0
        # one call per scan rung, then the knee campaign
        assert len(calls) >= 2
        assert set(calls) == {(2, "serial")}
        calls.clear()
        run_saturation_figure("fig8", jobs=2, executor="serial",
                              config=SimConfig(**TINY))
        assert len(calls) >= 2 and set(calls) == {(2, "serial")}

    def test_scenario_auto_saturation_scan(self, factory_calls, tmp_path):
        calls, _ = factory_calls
        sc = Scenario(name="sat", workload="uniform", loads=(0.3,),
                      config=dict(TINY))
        sc.run(jobs=2, executor="serial", auto_saturation=True,
               cache=ResultCache(tmp_path / "store"))
        # the scan's rungs and the scenario's own campaign
        assert len(calls) >= 2
        assert set(calls) == {(2, "serial")}


@pytest.fixture
def specs_seen(monkeypatch, tmp_path):
    """Record, per ``campaign.make_executor`` call, the (engine,
    topology, channel, arq, trace_source) set of the specs it runs and
    the trace it registers; a fresh global store makes nothing a hit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_global_cache()
    seen: list[tuple[set, object]] = []
    real = campaign.make_executor

    def spy(jobs, kind=None, specs=(), trace=None):
        seen.append(({
            (s.config.engine, s.config.topology, s.config.channel,
             s.config.arq, s.trace_source) for s in specs
        }, trace))
        if getattr(spy, "stop", False):
            raise _Stop
        return real(jobs, kind, specs, trace)

    monkeypatch.setattr(campaign, "make_executor", spy)
    yield seen, spy
    reset_global_cache()


class TestClaimsRunTheRequestedGrid:
    """``claims`` runs the CLI's config and trace, not the paper default."""

    def test_cli_flags_reach_the_union_campaign(self, specs_seen, tmp_path):
        seen, spy = specs_seen
        spy.stop = True  # the union campaign's specs are all this needs
        swf = tmp_path / "t.swf"
        swf.write_text("\n".join(
            f"{i} {i * 50} 0 60 {(i % 5) + 1} -1 -1 {(i % 5) + 1} "
            "-1 -1 1 1 1 1 -1 -1 -1 -1"
            for i in range(1, 41)
        ))
        with pytest.raises(_Stop):
            main(["claims", "--engine", "soa", "--topology", "torus",
                  "--channel", "loss:0.05", "--arq", "go-back-n",
                  "--swf", str(swf), "-j", "2", "--executor", "serial"])
        ((grid, trace),) = seen
        assert trace is not None and len(trace) == 40
        assert grid == {("soa", "torus", "loss:0.05", "go-back-n",
                         trace_fingerprint(trace))}

    def test_figure_reads_are_cache_hits(self, specs_seen, monkeypatch):
        seen, _ = specs_seen
        # two figures and no checks keep the run small
        monkeypatch.setattr(claims, "FIGURES",
                            {f: FIGURES[f] for f in ("fig2", "fig9")})
        monkeypatch.setattr(claims, "CHECKS", ())
        config = SimConfig(**TINY, engine="soa")
        verify_all(config=config, trace=TRACE, jobs=2, executor="serial")
        # the union campaign is the only one that simulates anything
        assert seen == [({("soa", "mesh", None, None,
                           trace_fingerprint(TRACE))}, TRACE)]


class TestTrajectoryFanOut:
    def test_kind_rule_and_worker_count(self, monkeypatch, tmp_path):
        sc = Scenario(name="traj", workload="uniform", loads=(0.02, 0.04),
                      allocs=("GABL", "MBS"), config=dict(TINY),
                      sample_interval=50.0)
        cache = ResultCache(tmp_path / "store")
        sc.run(jobs=1, cache=cache)  # later campaigns are all cache hits
        calls: list[tuple[int, str | None]] = []

        def spy(jobs, kind=None, *args, **kwargs):
            calls.append((jobs, kind))
            return SerialExecutor()

        monkeypatch.setattr(scenario, "make_executor", spy)
        for jobs, kind in ((8, None), (8, "thread"), (8, "serial"),
                           (2, None), (1, "process")):
            sc.run(jobs=jobs, cache=cache, executor=kind)
        # auto means processes (trajectory runs never take the native
        # driver); workers never exceed the number of points
        assert calls == [(4, "process"), (4, "thread"), (4, "serial"),
                         (2, "process"), (1, "process")]


@pytest.fixture
def spawn_start_method():
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


class TestSpawnWorkers:
    """Spawned workers inherit nothing: the external trace must reach
    them through the pool initializer, keyed by fingerprint."""

    def test_external_trace_campaign(self, spawn_start_method, tmp_path):
        def run(jobs: int, kind: str) -> dict:
            c = Campaign.sweep(
                ["real", "uniform"], [0.05, 0.1], ["GABL"], ["FCFS"],
                scale=TWO_REPS, config=SimConfig(**TINY, engine="soa"),
                trace=TRACE,
            )
            out = c.run(jobs=jobs, executor_kind=kind,
                        cache=ResultCache(tmp_path / kind))
            return {s.key(): r.to_payload() for s, r in out.items()}

        assert run(2, "process") == run(1, "serial")

    def test_external_trace_scenario_trajectories(
        self, spawn_start_method, tmp_path
    ):
        sc = Scenario(name="spawn", workload="real", loads=(0.05, 0.1),
                      config=dict(TINY), sample_interval=40.0)

        def run(jobs: int, kind: str) -> dict:
            out = sc.run(jobs=jobs, executor=kind, trace=TRACE,
                         cache=ResultCache(tmp_path / kind))
            return out.to_dict()

        serial = run(1, "serial")
        assert all(p["trajectory"]["times"] for p in serial["points"])
        assert run(2, "process") == serial
