"""Host-time attribution by wrapping each layer's public boundary.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public functions and methods each layer exposes with thin wrappers
that record a *span* -- layer, start, end, parent span -- on a
thread-local stack, and bump counters at the same boundaries.  Spans
stay in memory; :meth:`Tracer.summary` turns them into per-layer self
times (span time minus child spans) once the run is over.

:func:`install_unit_clock` is the light, always-on part: it times each
point work unit (one ``run_point_batch`` replication batch, or one
reference ``Simulator.run``) and counts the jobs it simulated, for the
end-to-end ``point_s`` and ``sim_jobs_per_s`` metrics.

Both are meant for a throwaway benchmark process: the patches are never
undone.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from time import perf_counter

#: span layer -> per-layer self-time metric name
SELF_METRICS = {
    "point": "point.self_s",
    "workload.build": "workload.build_s",
    "workload.trace": "workload.trace_s",
    "workload.gen": "workload.gen_s",
    "soa.advance": "soa.advance_s",
    "soa.lane": "soa.lane_s",
    "engine": "engine.self_s",
    "alloc": "alloc.self_s",
    "sched": "sched.self_s",
    "network": "network.self_s",
    "channel": "channel.self_s",
    "stats": "stats.self_s",
    "campaign.dispatch": "campaign.dispatch_s",
    "campaign.wait": "campaign.wait_s",
    "campaign.key": "campaign.key_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
}

#: counters reported as they are
COUNTS = (
    "workload.builds", "workload.blocks", "soa.advance_calls",
    "soa.native_batches", "soa.fallback_batches", "engine.events",
    "engine.runs", "alloc.calls", "sched.calls", "network.launches",
    "channel.attempts", "arq.retransmits", "stats.ci_calls",
    "stats.replications", "campaign.key_calls", "store.gets", "store.puts",
    "store.put_calls", "store.bytes_written", "point.units",
)

#: counters that must repeat exactly across runs of one seed
DETERMINISTIC_COUNTS = (
    "stats.replications", "soa.advance_calls", "soa.native_batches",
    "soa.fallback_batches", "alloc.calls", "workload.blocks", "store.puts",
    "campaign.key_calls",
)


def install_unit_clock() -> list[tuple[float, int]]:
    """Time every point work unit; returns the list it appends
    ``(host_seconds, completed_jobs)`` to."""
    from repro.core.simulator import Simulator
    from repro.experiments import campaign

    units: list[tuple[float, int]] = []

    def timed(fn, jobs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            units.append((perf_counter() - t0, jobs_of(out)))
            return out
        return wrapper

    campaign.run_point_batch = timed(
        campaign.run_point_batch, lambda rs: sum(r.completed_jobs for r in rs)
    )
    Simulator.run = timed(Simulator.run, lambda r: r.completed_jobs)
    return units


class _ThreadLog:
    __slots__ = ("ident", "spans", "stack", "counts")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        #: (layer, start, end, parent index or -1); None while open
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    """Spans and counters on thread-local stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to this thread's counter ``name``."""
        self._log().counts[name] += n

    def span(self, layer: str, fn):
        """``fn`` wrapped so each call records one ``layer`` span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            spans, stack = log.spans, log.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, t0, perf_counter(), parent)
                stack.pop()
        return wrapper

    def summary(self, wall: float) -> dict:
        """Per-layer self times and counters, summed over threads.

        Call it from the thread that made the traced top-level call, whose
        duration is ``wall``.  That thread's time inside the call that no
        span covers is ``other.self_s``; the same for every other thread
        (pool threads between work units) is ``trace.idle_s``.  Returns
        the metrics plus ``"thread_checks"``: per thread, the attributed
        self times plus the uncovered remainder must equal ``wall``.
        """
        main = threading.get_ident()
        self_s: Counter = Counter()
        counts: Counter = Counter()
        other = idle = 0.0
        checks = []
        for log in self._logs:
            counts.update(log.counts)
            child = [0.0] * len(log.spans)
            own: Counter = Counter()
            covered = 0.0
            for layer, t0, t1, parent in log.spans:
                if parent >= 0:
                    child[parent] += t1 - t0
                else:
                    covered += t1 - t0
            negative = 0
            for i, (layer, t0, t1, _parent) in enumerate(log.spans):
                s = (t1 - t0) - child[i]
                negative += s < -1e-9
                own[layer] += s
            self_s.update(own)
            rest = wall - covered
            if log.ident == main:
                other += rest
            else:
                idle += rest
            attributed = sum(own.values()) + rest
            checks.append({
                "spans": len(log.spans),
                "negative_self": negative,
                "uncovered_s": rest,
                "sum_ok": abs(attributed - wall) <= 1e-6 * max(wall, 1.0)
                and rest >= -1e-6 * max(wall, 1.0) and negative == 0,
            })
        out = {metric: self_s.get(layer, 0.0)
               for layer, metric in SELF_METRICS.items()}
        out.update({name: counts.get(name, 0) for name in COUNTS})
        out["other.self_s"] = other
        out["trace.idle_s"] = idle
        out["alloc.success_ratio"] = _ratio(counts["alloc.ok"],
                                            counts["alloc.attempts"])
        out["channel.delivered_ratio"] = _ratio(counts["channel.delivered"],
                                                counts["channel.attempts"])
        out["store.hit_ratio"] = _ratio(counts["store.hits"],
                                        counts["store.gets"])
        out["trace.threads"] = len(self._logs)
        out["thread_checks"] = checks
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class _KernelProxy:
    """The compiled lane driver with ``soa_advance`` timed and counted."""

    def __init__(self, lib, soa_advance) -> None:
        self._lib = lib
        self.soa_advance = soa_advance

    def __getattr__(self, name):
        return getattr(self._lib, name)


class _FuturesProxy:
    """``concurrent.futures`` as the campaign module sees it, with
    ``wait`` traced."""

    def __init__(self, module, wait) -> None:
        self._module = module
        self.wait = wait

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.alloc.base import Allocator
    from repro.alloc.soa_state import LaneState
    from repro.core import _soa_native, soa
    from repro.core.simulator import Simulator
    from repro.experiments import campaign, scenario, store
    from repro.network import backend, batch, channel, wormhole
    from repro.network.arq import FlowArq
    from repro.network.traffic import AllToAllTraffic
    from repro.sched import policies
    from repro.stats import replication
    from repro.workload.stochastic import StochasticWorkload
    from repro.workload.trace import TraceWorkload

    span, count = tracer.span, tracer.count

    def counted(fn, name, amount=lambda out, args: 1):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(name, amount(out, args))
            return out
        return wrapper

    def patch(owner, attr, layer, fn=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, span(layer, fn(orig) if fn else orig))

    # work units (the rest of a unit's time: simulator construction,
    # lane bookkeeping)
    patch(campaign, "run_point_batch", "point",
          lambda f: counted(f, "point.units"))
    patch(Simulator, "run", "point", lambda f: counted(f, "point.units"))
    build = span("point", campaign.build_simulator)
    campaign.build_simulator = scenario.build_simulator = build

    # workload
    patch(campaign, "make_workload", "workload.build",
          lambda f: counted(f, "workload.builds"))
    patch(campaign, "sdsc_trace", "workload.trace")
    gen_next = span("workload.gen", next)

    def traced_blocks(orig):
        @functools.wraps(orig)
        def blocks(*args, **kwargs):
            it = orig(*args, **kwargs)
            while (block := gen_next(it, None)) is not None:
                count("workload.blocks")
                yield block
        return blocks

    for cls in (TraceWorkload, StochasticWorkload):
        cls.blocks = traced_blocks(cls.__dict__["blocks"])

    # the compiled lane driver
    real_load = _soa_native.load_kernel
    proxies: list = []

    def load_kernel():
        lib = real_load()
        if lib is None:
            return None
        if not proxies:
            proxies.append(_KernelProxy(lib, span(
                "soa.advance", counted(lib.soa_advance, "soa.advance_calls"))))
        return proxies[0]

    _soa_native.load_kernel = load_kernel
    for attr in ("__init__", "feed", "result"):
        patch(LaneState, attr, "soa.lane")
    real_supported = soa.native_supported

    def native_supported(sim):
        ok = real_supported(sim)
        count("soa.native_batches" if ok else "soa.fallback_batches")
        return ok

    soa.native_supported = native_supported

    # the reference event loop
    def with_events(orig):
        @functools.wraps(orig)
        def advance(sim, *args, **kwargs):
            before = sim.engine.processed
            try:
                return orig(sim, *args, **kwargs)
            finally:
                count("engine.events", sim.engine.processed - before)
        return advance

    patch(Simulator, "advance", "engine", with_events)
    patch(Simulator, "start", "engine", lambda f: counted(f, "engine.runs"))
    patch(Simulator, "finalize", "engine")

    # allocation and scheduling
    def allocate_counts(orig):
        @functools.wraps(orig)
        def allocate(*args, **kwargs):
            out = orig(*args, **kwargs)
            count("alloc.calls")
            count("alloc.attempts")
            if out is not None:
                count("alloc.ok")
            return out
        return allocate

    patch(Allocator, "allocate", "alloc", allocate_counts)
    patch(Allocator, "release", "alloc", lambda f: counted(f, "alloc.calls"))
    for cls in vars(policies).values():
        if isinstance(cls, type) and issubclass(cls, policies.Scheduler):
            for attr in ("add", "peek", "remove"):
                if attr in cls.__dict__:
                    patch(cls, attr, "sched",
                          lambda f: counted(f, "sched.calls"))

    # network, channel, ARQ
    patch(AllToAllTraffic, "launch", "network",
          lambda f: counted(f, "network.launches"))
    for module in (backend, wormhole, batch):
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, backend.NetworkBackend):
                for attr in ("transmit", "send", "inject_rounds"):
                    if attr in cls.__dict__:
                        patch(cls, attr, "network")
    patch(channel, "resolve_launch", "channel")

    def fate_counts(orig):
        @functools.wraps(orig)
        def fate(self):
            ok = orig(self)
            count("channel.attempts")
            if ok:
                count("channel.delivered")
            return ok
        return fate

    channel.ChannelSampler.fate = fate_counts(channel.ChannelSampler.fate)
    FlowArq.on_failure = counted(
        FlowArq.on_failure, "arq.retransmits", lambda out, args: len(out))

    # replication control and statistics
    patch(replication.ReplicationController, "add_batch", "stats",
          lambda f: counted(f, "stats.replications",
                            lambda out, args: len(args[1])))
    patch(replication.ReplicationController, "result", "stats")
    patch(replication, "mean_confidence_interval", "stats",
          lambda f: counted(f, "stats.ci_calls"))

    # campaign dispatch, cache keys, result store
    patch(campaign.Campaign, "run", "campaign.dispatch")
    campaign.futures = _FuturesProxy(
        campaign.futures, span("campaign.wait", campaign.futures.wait))
    patch(campaign.PointSpec, "key", "campaign.key",
          lambda f: counted(f, "campaign.key_calls"))

    def get_counts(orig):
        @functools.wraps(orig)
        def get(self, key):
            out = orig(self, key)
            count("store.gets")
            if out is not None:
                count("store.hits")
            return out
        return get

    patch(store.ResultCache, "get", "store.get", get_counts)
    timed_put = span("store.put", store.ResultCache.put_many)

    def put_many(self, items):
        items = list(items)
        timed_put(self, items)
        count("store.put_calls")
        count("store.puts", len(items))
        count("store.bytes_written", sum(
            len(json.dumps({"key": k, "value": dict(v)})) for k, v in items))

    store.ResultCache.put_many = put_many
