"""Tests for the campaign engine: specs, dedup, executors, parallel
equivalence, and the sharded concurrency-safe result store."""

import json
import pickle
import random
from concurrent import futures

import pytest

from repro.core.config import SimConfig
from repro.core import _soa_native
from repro.experiments.campaign import (
    RESULT_SCHEMA,
    Campaign,
    PointSpec,
    Scale,
    SerialExecutor,
    make_executor,
    run_spec_replication,
    trace_fingerprint,
)
from repro.experiments import campaign as campaign_module
from repro.workload.trace import TraceJob
from repro.workload.transforms import SpecError
from repro.experiments.runner import METRICS, run_figure, run_point
from repro.experiments.store import ResultCache

TINY = SimConfig(width=8, length=8, jobs=15, seed=11)
SMOKE = Scale.by_name("smoke")
#: two replications so the parallel path exercises batching
TWO_REPS = Scale("two", jobs=12, min_replications=2, max_replications=2,
                 trace_max_jobs=100)


def _spec(**overrides) -> PointSpec:
    base = dict(workload="uniform", load=0.01, alloc="GABL", sched="FCFS",
                scale=SMOKE, config=TINY)
    base.update(overrides)
    return PointSpec(**base)


class TestPointSpec:
    def test_key_is_structured_json(self):
        payload = json.loads(_spec().key())
        assert payload["workload"] == "uniform"
        assert payload["alloc"] == "GABL"
        assert payload["config"]["width"] == 8
        assert payload["config"]["jobs"] == SMOKE.jobs  # scale pins jobs

    def test_key_cannot_alias_on_separator_fields(self):
        # a joined-string key would make these two cells identical
        a = _spec(alloc="A|B", sched="C")
        b = _spec(alloc="A", sched="B|C")
        assert a.key() != b.key()

    def test_key_ignores_user_jobs_override(self):
        # run job count comes from the scale, so configs differing only
        # in `jobs` are the same cell -- as specs AND as keys
        a = _spec(config=TINY.with_(jobs=50))
        b = _spec(config=TINY.with_(jobs=70))
        assert a.key() == b.key()
        assert a == b  # equality agrees with key(): dedup cannot strand
        assert a.config.jobs == SMOKE.jobs

    def test_trace_source_distinguishes_cells(self):
        assert _spec(workload="real").key() != \
            _spec(workload="real", trace_source="ext:abc").key()

    def test_different_traces_cannot_alias(self):
        t1 = [TraceJob(arrival=float(i * 5), size=2, runtime=30.0)
              for i in range(10)]
        t2 = [TraceJob(arrival=float(i * 5), size=2, runtime=60.0)
              for i in range(10)]
        f1, f2 = trace_fingerprint(t1), trace_fingerprint(t2)
        assert f1 != f2
        assert f1 == trace_fingerprint(list(t1))  # content-determined
        a = _spec(workload="real", trace_source=f1)
        b = _spec(workload="real", trace_source=f2)
        assert a.key() != b.key()

    def test_real_workload_is_deterministic_single_run(self):
        assert _spec(workload="real", scale=TWO_REPS).replication_bounds == (1, 1)
        assert _spec(scale=TWO_REPS).replication_bounds == (2, 2)

    def test_spec_is_hashable_and_picklable(self):
        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, _spec()}) == 1


class TestKeyMemo:
    """``key()`` is encoded once per spec and kept in a slot that takes
    no part in equality, hashing or ``repr``."""

    def test_key_equals_a_fresh_encoding(self):
        spec = _spec()
        first = spec.key()
        assert spec.key() is first  # encoded once, then read back
        assert first == _spec()._encode_key()
        lossy = _spec(config=TINY.with_(channel="loss:0.1", arq="selective-repeat"))
        assert lossy.key() == lossy._encode_key()
        assert json.loads(lossy.key())["channel"] == "loss:0.1"

    def test_slot_stays_out_of_eq_hash_and_repr(self):
        keyed, fresh = _spec(), _spec()
        keyed.key()
        assert keyed._key is not None and fresh._key is None
        assert keyed == fresh
        assert hash(keyed) == hash(fresh)
        assert repr(keyed) == repr(fresh)
        assert "_key" not in repr(keyed)

    def test_key_survives_pickling(self):
        spec = _spec()
        key = spec.key()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone._key == key and clone.key() == key
        # an unkeyed spec pickles unkeyed and encodes on first use
        clone = pickle.loads(pickle.dumps(_spec(load=0.02)))
        assert clone._key is None
        assert clone.key() == _spec(load=0.02)._encode_key()

    def test_keys_agree_after_a_process_pool_campaign(self, tmp_path):
        campaign = Campaign.sweep(["uniform"], [0.01, 0.02], ["GABL"],
                                  ["FCFS"], scale=SMOKE, config=TINY)
        cache = ResultCache(tmp_path / "pool")
        out = campaign.run(jobs=2, cache=cache, executor_kind="process")
        assert set(out) == set(campaign.points)
        for spec in out:
            assert spec.key() == spec._encode_key()
            assert cache.get(spec._encode_key()) == out[spec].to_payload()

    @pytest.mark.parametrize("overrides, match", [
        ({"sched": ["FCFS"]}, "bad allocator or scheduler name"),
        ({"alloc": {"GABL": 1}}, "bad allocator or scheduler name"),
        ({"alloc": "NOPE"}, "bad allocator 'NOPE'"),
        ({"sched": "LIFO"}, "bad scheduler 'LIFO'"),
    ], ids=["unhashable scheduler", "unhashable allocator",
            "unknown allocator", "unknown scheduler"])
    def test_bad_axes_still_reach_validation(self, overrides, match):
        # the key slot needs no hashing, so an unhashable axis is keyed
        # and then rejected by validation (HTTP 400 from the service,
        # see tests/test_serve.py)
        spec = _spec(**overrides)
        assert json.loads(spec.key())["alloc"] == spec.alloc
        with pytest.raises(ValueError, match=match):
            Campaign([spec])


def _mixed_specs() -> list[PointSpec]:
    """A 3-workload sweep with repeated loads: distinct bases within a
    class, equal bases across classes."""
    specs = []
    for workload in ("real", "uniform", "exponential"):
        specs.extend(Campaign.sweep(
            [workload], [0.02, 0.005, 0.01, 0.03, 0.015], ["GABL", "MBS"],
            ["FCFS", "SSD"], scale=TWO_REPS, config=TINY,
        ).points)
    return specs


class TestDispatchOrder:
    """The bucketed queue picks exactly what a brute-force
    ``max(pending, key=model.estimate)`` scan would."""

    def _replay(self, specs, observe_every: int, observe_classes=None):
        rng = random.Random(5)
        model = campaign_module._CostModel()
        queue = campaign_module._DispatchQueue(model, specs)
        pending = list(specs)
        picks = []
        while pending:
            want = max(pending, key=model.estimate)
            pending.remove(want)
            got = queue.pop()
            assert got is want, f"pick {len(picks)}"
            picks.append(got)
            if len(picks) % observe_every == 0 and (
                observe_classes is None
                or model._class_key(got) in observe_classes
            ):
                model.observe(got, rng.uniform(0.01, 2.0), rng.randint(1, 3))
        assert not queue
        return model, picks

    def test_without_observations_orders_by_base_then_first_seen(self):
        specs = _mixed_specs()
        model, picks = self._replay(specs, observe_every=10**9)
        bases = [model.base(s) for s in picks]
        assert bases == sorted(bases, reverse=True)
        assert len(set(bases)) > 3  # distinct bases
        # equal bases go in first-seen order
        for a, b in zip(picks, picks[1:]):
            if model.base(a) == model.base(b):
                assert specs.index(a) < specs.index(b)

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_matches_brute_force_with_observations_between_picks(self, every):
        self._replay(_mixed_specs(), observe_every=every)

    def test_unobserved_classes_use_the_mean_known_rate(self):
        specs = _mixed_specs()
        observed = {("uniform", "GABL", "FCFS"), ("real", "MBS", "SSD")}
        model, _ = self._replay(specs, observe_every=1,
                                observe_classes=observed)
        assert set(model._rates) == observed
        mean = sum(model._rates.values()) / len(model._rates)
        spec = next(s for s in specs
                    if model._class_key(s) not in observed)
        assert model.estimate(spec) == model.base(spec) * mean

    def test_campaign_run_dispatches_through_the_queue(self, monkeypatch,
                                                       tmp_path):
        specs = _mixed_specs()[:6]
        order = []
        real_pop = campaign_module._DispatchQueue.pop

        def spy(self):
            spec = real_pop(self)
            order.append(spec)
            return spec

        monkeypatch.setattr(campaign_module._DispatchQueue, "pop", spy)
        Campaign(specs).run(jobs=1, cache=ResultCache(tmp_path / "c"))
        assert sorted(order, key=specs.index) == specs


class TestCampaignEnumeration:
    def test_dedup_within_campaign(self):
        c = Campaign([_spec(), _spec(), _spec(load=0.02)])
        assert len(c.points) == 2

    def test_figures_sharing_a_sweep_collapse(self):
        # figs 3 and 6 read the same uniform sweep (different metrics of
        # the same cells); fig9 adds its saturation load
        only3 = Campaign.from_figures(("fig3",))
        both = Campaign.from_figures(("fig3", "fig6"))
        plus9 = Campaign.from_figures(("fig3", "fig6", "fig9"))
        assert len(both.points) == len(only3.points) == 12
        assert len(plus9.points) == 18

    def test_sweep_grid(self):
        c = Campaign.sweep(["uniform", "exponential"], [0.01, 0.02],
                           ["GABL"], ["FCFS", "SSD"], scale="smoke")
        assert len(c.points) == 8


class TestExecutors:
    def test_make_executor(self):
        with make_executor(1) as exe:
            assert isinstance(exe, SerialExecutor)
        # auto (no spec knowledge): thread when the native SoA driver
        # is available, process otherwise
        with make_executor(4) as auto:
            if _soa_native.load_kernel() is not None:
                assert isinstance(auto, futures.ThreadPoolExecutor)
            else:
                assert isinstance(auto, futures.ProcessPoolExecutor)

    def test_make_executor_kinds(self):
        kinds = {
            "serial": SerialExecutor,
            "thread": futures.ThreadPoolExecutor,
            "process": futures.ProcessPoolExecutor,
        }
        for kind, cls in kinds.items():
            with make_executor(4, kind) as exe:
                assert isinstance(exe, cls)
        # a process pool cannot run on one worker: degrades to serial
        with make_executor(1, "process") as exe:
            assert isinstance(exe, SerialExecutor)
        with pytest.raises(ValueError):
            make_executor(4, "fibers")

    def test_auto_prefers_process_for_reference_engine(self):
        # reference-engine points are pure Python (GIL-bound): a thread
        # pool would serialise them, so auto-selection must not pick it
        with make_executor(4, specs=(_spec(),)) as exe:
            assert isinstance(exe, futures.ProcessPoolExecutor)

    def test_serial_executor_runs_inline(self):
        ran = []
        with SerialExecutor() as exe:
            fut = exe.submit(ran.append, 1)
            # resolved before submit returns: the task already ran
            assert fut.done() and ran == [1]
            assert list(exe.map(pow, (2, 3), (2, 2))) == [4, 9]
            failed = exe.submit(int, "not a number")
        assert isinstance(failed.exception(), ValueError)

    def test_worker_function_is_picklable_task(self):
        out = run_spec_replication(_spec(), seed=TINY.seed)
        assert set(out) == set(METRICS)
        assert out["mean_turnaround"] > 0


class TestParallelEquivalence:
    def _campaign(self) -> Campaign:
        return Campaign.sweep(["uniform"], [0.01, 0.02], ["GABL", "MBS"],
                              ["FCFS"], scale=TWO_REPS, config=TINY)

    def test_process_pool_matches_serial(self, tmp_path):
        """Same campaign, -j 1 vs -j 2: byte-identical metric dicts."""
        campaign = self._campaign()
        serial = campaign.run(jobs=1, cache=ResultCache(tmp_path / "serial"))
        parallel = campaign.run(jobs=2, cache=ResultCache(tmp_path / "pool"))
        assert {s.key(): v for s, v in serial.items()} == \
            {s.key(): v for s, v in parallel.items()}

    def test_run_point_parallel_matches_serial(self, tmp_path):
        kwargs = dict(scale=TWO_REPS, config=TINY)
        a = run_point("uniform", 0.01, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "a"), jobs=1, **kwargs)
        b = run_point("uniform", 0.01, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "b"), jobs=2, **kwargs)
        assert a == b

    def test_external_trace_parallel_matches_serial(self, tmp_path):
        # exercises the ship-trace-once pool initializer path
        trace = [TraceJob(arrival=float(i * 4), size=(i % 4) + 1, runtime=25.0)
                 for i in range(40)]
        kwargs = dict(scale=SMOKE, config=TINY, trace=trace)
        a = run_point("real", 0.05, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "a"), jobs=1, **kwargs)
        b = run_point("real", 0.05, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "b"), jobs=2, **kwargs)
        assert a == b

    def test_run_figure_jobs_param(self, tmp_path):
        a = run_figure("fig9", scale="smoke", config=TINY,
                       cache=ResultCache(tmp_path / "a"), jobs=1)
        b = run_figure("fig9", scale="smoke", config=TINY,
                       cache=ResultCache(tmp_path / "b"), jobs=2)
        assert a.series == b.series

    def test_campaign_results_hit_the_store(self, tmp_path):
        campaign = self._campaign()
        cache = ResultCache(tmp_path / "c")
        campaign.run(jobs=1, cache=cache)
        for spec in campaign.points:
            assert cache.get(spec.key()) is not None
        # a fresh run against the warm store simulates nothing and agrees
        again = campaign.run(jobs=1, cache=ResultCache(tmp_path / "c"))
        assert set(again) == set(campaign.points)


class TestGridValidation:
    """Every grid is built by ``Campaign.sweep`` and validated by the
    ``Campaign`` constructor, before any work is dispatched."""

    @pytest.mark.parametrize("axis", ["workloads", "loads", "allocs",
                                      "scheds", "channels", "arqs"])
    def test_bare_string_axis_is_rejected(self, axis):
        grid = dict(workloads=["uniform"], loads=[0.01], allocs=["GABL"],
                    scheds=["FCFS"])
        grid[axis] = {"loads": "0.01"}.get(axis, "GABL")
        with pytest.raises(ValueError, match=f"sweep axis '{axis}'"):
            Campaign.sweep(**grid, config=TINY)

    def test_unknown_workload_fails_at_spec_construction(self):
        with pytest.raises(SpecError, match="unknown workload source"):
            _spec(workload="bogus")

    def test_allocator_checked_on_the_points_own_mesh(self):
        # Paging(3) needs 8x8 pages: fine on TINY, not on 16x22
        Campaign([_spec(alloc="Paging(3)")])
        with pytest.raises(ValueError, match="16x22 mesh"):
            Campaign([_spec(alloc="Paging(3)", config=SimConfig())])
        with pytest.raises(ValueError, match="bad scheduler 'LIFO'"):
            Campaign([_spec(sched="LIFO")])

    def test_each_allocator_built_once_per_mesh(self, monkeypatch):
        built = []
        real = campaign_module.make_allocator

        def spy(name, width, length):
            built.append((name, width, length))
            return real(name, width, length)

        monkeypatch.setattr(campaign_module, "make_allocator", spy)
        mesh = SimConfig(width=10, length=14, jobs=15)
        for _ in range(2):
            Campaign.sweep(["uniform"], [0.001 * i for i in range(1, 51)],
                           ["GABL", "MBS"], ["FCFS", "SSD"], config=mesh)
        assert sorted(built) == [("GABL", 10, 14), ("MBS", 10, 14)]


#: shard values that are not a current point payload
_MEANS = {m: 1.0 for m in METRICS}
NON_CURRENT_SHARDS = {
    "schema-1 bare means": _MEANS,
    "older schema": {"schema": 1, "means": _MEANS, "replications": 7},
    "newer schema": {"schema": RESULT_SCHEMA + 1, "means": _MEANS,
                     "replications": 7},
    "non-mapping means": {"schema": RESULT_SCHEMA, "means": [1.0, 2.0],
                          "replications": 7},
    "current schema without stats": {"schema": RESULT_SCHEMA,
                                     "means": _MEANS, "replications": 7},
    "current schema with partial stats": {
        "schema": RESULT_SCHEMA, "means": _MEANS, "replications": 7,
        "stats": {METRICS[0]: {"mean": 1.0, "variance": 0.0, "n": 7}},
    },
}


class TestNonCurrentShards:
    @pytest.mark.parametrize("value", NON_CURRENT_SHARDS.values(),
                             ids=NON_CURRENT_SHARDS.keys())
    def test_recomputed_and_overwritten(self, tmp_path, value):
        spec = _spec()
        cache = ResultCache(tmp_path / "stale")
        cache.put(spec.key(), value)
        got = Campaign([spec]).run(cache=cache)[spec]
        clean = Campaign([spec]).run(cache=ResultCache(tmp_path / "clean"))
        assert got == clean[spec]
        assert got.replications == 1 and got.stats
        assert ResultCache(tmp_path / "stale").get(spec.key()) == \
            got.to_payload()


def _put_range(args) -> int:
    """Concurrent-writer worker: put n distinct keys into a shared dir."""
    cache_dir, start, n = args
    cache = ResultCache(cache_dir)
    for i in range(start, start + n):
        cache.put(f"key-{i}", {"m": float(i)})
    return n


class TestShardedStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = _spec().key()
        cache.put(key, {"m": 1.5, "k": 2.0})
        assert ResultCache(tmp_path / "c").get(key) == {"m": 1.5, "k": 2.0}

    def test_one_shard_per_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(5):
            cache.put(f"key-{i}", {"m": float(i)})
        assert len(list(cache.path.glob("*.json"))) == 5
        assert not list(cache.path.glob("*.tmp"))

    def test_put_does_not_rewrite_other_shards(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a", {"m": 1.0})
        shard = next(cache.path.glob("*.json"))
        before = shard.stat().st_mtime_ns
        cache.put("b", {"m": 2.0})
        assert shard.stat().st_mtime_ns == before

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        """Two worker processes populate one store without corruption."""
        cache_dir = tmp_path / "shared"
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            counts = list(pool.map(
                _put_range, [(cache_dir, 0, 40), (cache_dir, 40, 40)]
            ))
        assert counts == [40, 40]
        cache = ResultCache(cache_dir)
        for i in range(80):
            assert cache.get(f"key-{i}") == {"m": float(i)}, f"key-{i} lost"
        assert not list(cache.path.glob("*.tmp"))