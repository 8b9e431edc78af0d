"""Durability tests for the sharded result store: orphaned-temp
reaping, the keys() scan, the async writer thread, and the campaign
drain loop's flush-on-teardown contract."""

from __future__ import annotations

import io
import json
import os
import shutil
import time

import pytest

from repro.experiments.store import (
    TEMP_REAP_AGE,
    AsyncResultWriter,
    ResultCache,
    _shard_name,
)


@pytest.fixture(autouse=True)
def disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")  # force the disk path on


def backdate(path, age=TEMP_REAP_AGE + 120.0):
    old = time.time() - age
    os.utime(path, (old, old))


class TestTempReaping:
    def test_orphaned_tmp_reaped_on_open(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.put("k1", {"v": 1})
        # a writer killed between mkstemp and os.replace leaves this
        orphan = cache.path / "tmpabc123.tmp"
        orphan.write_text('{"partial')
        backdate(orphan)
        reopened = ResultCache(tmp_path / "shards")
        assert not orphan.exists()
        assert reopened.get("k1") == {"v": 1}  # resume is clean

    def test_fresh_tmp_survives_open(self, tmp_path):
        # a *live* concurrent writer's in-flight temp must not be reaped
        cache = ResultCache(tmp_path / "shards")
        cache.path.mkdir(parents=True, exist_ok=True)
        inflight = cache.path / "tmpxyz.tmp"
        inflight.write_text("{}")
        ResultCache(tmp_path / "shards")
        assert inflight.exists()

    def test_keys_ignores_temps_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.put_many([("k1", {"v": 1}), ("k2", {"v": 2})])
        orphan = cache.path / "tmporphan.tmp"
        orphan.write_text('{"key": "ghost"}')
        backdate(orphan)
        # jobs/ manifests and stray json must not surface as point keys
        (cache.path / "jobs").mkdir()
        (cache.path / "jobs" / "deadbeef.json").write_text('{"id": "x"}')
        (cache.path / "notes.json").write_text('{"key": "fake"}')
        fresh = ResultCache(tmp_path / "shards")
        assert sorted(fresh.keys()) == ["k1", "k2"]

    def test_keys_merges_memory_and_disk(self, tmp_path):
        a = ResultCache(tmp_path / "shards")
        a.put("disk-key", {"v": 1})
        b = ResultCache(tmp_path / "shards")
        b.put("mem-key", {"v": 2})
        assert sorted(b.keys()) == ["disk-key", "mem-key"]

    def test_reap_returns_count(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.path.mkdir(parents=True, exist_ok=True)
        for i in range(3):
            p = cache.path / f"tmp{i}.tmp"
            p.write_text("x")
            backdate(p)
        assert ResultCache(tmp_path / "shards")._reap_temps() in (0, 3)
        assert not list(cache.path.glob("*.tmp"))


class TestShardWrites:
    @pytest.mark.parametrize("value", [
        {"m": 1.5, "k": 2.0},
        {"schema": 2, "means": {"mean_wait": 0.1 + 0.2, "utilization": 1e-17},
         "stats": {"x": {"mean": 3.0, "n": 2}}, "replications": 3,
         "converged": False, "label": "caf\u00e9 \"q\" / \\"},
    ], ids=["flat", "nested-unicode"])
    def test_shard_bytes_equal_json_dump(self, tmp_path, value):
        cache = ResultCache(tmp_path / "shards")
        key = '{"load":0.01,"workload":"real*0.5 | thin:0.8"}'
        cache.put(key, value)
        buf = io.StringIO()
        json.dump({"key": key, "value": dict(value)}, buf)
        shard = cache.path / _shard_name(key)
        assert shard.read_bytes() == buf.getvalue().encode()

    def test_removed_shard_directory_is_recreated(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        assert not cache.path.exists()  # created by the first write
        cache.put("a", {"v": 1})
        shutil.rmtree(cache.path)
        cache.put_many([("b", {"v": 2}), ("c", {"v": 3})])
        assert cache.disk  # not dropped to memory-only
        reopened = ResultCache(tmp_path / "shards")
        assert reopened.get("b") == {"v": 2}
        assert reopened.get("c") == {"v": 3}
        assert reopened.get("a") is None  # went with the directory
        assert not list(cache.path.glob("*.tmp"))


class TestAsyncResultWriter:
    def test_writes_reach_cache_and_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        writer = AsyncResultWriter(cache)
        writer.put("k1", {"v": 1})
        writer.put_many([("k2", {"v": 2}), ("k3", {"v": 3})])
        writer.flush()
        assert cache.get("k2") == {"v": 2}
        shard = cache.path / _shard_name("k3")
        assert json.loads(shard.read_text())["value"] == {"v": 3}
        writer.close()

    def test_get_reads_through(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.put("k1", {"v": 1})
        writer = AsyncResultWriter(cache)
        assert writer.get("k1") == {"v": 1}
        writer.close()

    def test_close_is_idempotent_and_put_after_close_raises(self, tmp_path):
        writer = AsyncResultWriter(ResultCache(tmp_path / "shards"))
        writer.put("k", {"v": 0})
        writer.close()
        writer.close()
        with pytest.raises(RuntimeError):
            writer.put("k2", {"v": 1})

    def test_drop_in_for_campaign_run(self, tmp_path, monkeypatch):
        # the writer duck-types the cache API Campaign.run consumes
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.campaign import Campaign

        campaign = Campaign.sweep(
            workloads=("uniform",), loads=(0.02,),
            allocs=("GABL",), scheds=("FCFS",), scale="smoke",
        )
        cache = ResultCache(tmp_path / "shards")
        writer = AsyncResultWriter(cache)
        results = campaign.run(cache=writer)
        writer.flush()
        spec = campaign.points[0]
        assert cache.get(spec.key()) is not None
        writer.close()
        # a rerun against the same store is a pure cache hit
        again = Campaign.sweep(
            workloads=("uniform",), loads=(0.02,),
            allocs=("GABL",), scheds=("FCFS",), scale="smoke",
        ).run(cache=ResultCache(tmp_path / "shards"))
        assert dict(again[spec]) == dict(results[spec])


class TestDrainLoopFlush:
    def test_interrupt_mid_campaign_flushes_finished_points(
        self, tmp_path, monkeypatch
    ):
        """A KeyboardInterrupt right after the first point completes
        must not lose it: the finally-flush writes every finished point
        before the executor tears down."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.campaign import Campaign

        campaign = Campaign.sweep(
            workloads=("uniform",), loads=(0.02, 0.03, 0.04),
            allocs=("GABL",), scheds=("FCFS",), scale="smoke",
        )
        cache = ResultCache(tmp_path / "shards")
        seen = []

        def explode(msg: str) -> None:
            if msg.startswith("["):  # a "[done/total] label" completion line
                seen.append(msg)
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(cache=cache, progress=explode)
        assert seen  # the interrupt fired after a completion
        flushed = [k for k in ResultCache(tmp_path / "shards").keys()]
        assert flushed, "finished point was dropped by the teardown path"

    def test_on_point_callback_sees_hits_and_fresh_points(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.campaign import Campaign

        def sweep():
            return Campaign.sweep(
                workloads=("uniform",), loads=(0.02, 0.03),
                allocs=("GABL",), scheds=("FCFS",), scale="smoke",
            )

        cache = ResultCache(tmp_path / "shards")
        calls: list[tuple[str, int, int]] = []
        sweep().run(
            cache=cache,
            on_point=lambda s, r, d, t: calls.append((s.label(), d, t)),
        )
        assert len(calls) == 2
        assert [c[1:] for c in calls] == [(1, 2), (2, 2)]
        # on a resumed run every point is a cache hit; the callback
        # still reports each one (the service's progress feed)
        replay: list[tuple[int, int]] = []
        sweep().run(
            cache=ResultCache(tmp_path / "shards"),
            on_point=lambda s, r, d, t: replay.append((d, t)),
        )
        assert replay == [(1, 2), (2, 2)]
