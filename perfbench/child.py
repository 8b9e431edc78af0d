"""One benchmark process: set up, run a workload once, report.

    python3 perfbench/child.py JOB.json T_SPAWN

``run.py`` starts one of these per measurement so every timed run pays
its own imports, kernel load and cold in-process caches.  ``JOB.json``
holds the mode, workload, seed and file paths; ``T_SPAWN`` is the
parent's ``time.monotonic()`` just before it started this process (the
start of ``setup_s``; ``CLOCK_MONOTONIC`` is system-wide on Linux).  The
child writes its report as JSON to ``job["out"]``.  Modes:

* ``warm``    -- load the native kernels (compiling them on a cold build
  cache) and report the host stamp;
* ``setup``   -- imports, kernel load and campaign construction only;
* ``prefill`` -- compute the points a workload's store starts with;
* ``run``     -- set up, then time the workload's top-level call
  (traced when ``job["trace"]``), and report every point's result;
* ``oracle``  -- re-run ``job["keys"]`` of the workload on the reference
  engine, serially, and report their results.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def load_kernels() -> bool:
    """Load every native kernel; True when the lane driver is available."""
    from repro.core import _soa_native
    from repro.network import _native as network_native
    from repro.workload import _native as workload_native

    network_native.load_kernel()
    workload_native.load_kernel()
    return _soa_native.load_kernel() is not None


def host_stamp(cache_dir: Path) -> dict:
    import platform

    import numpy
    import scipy

    from workloads import nproc

    before = set(cache_dir.glob("**/*.so"))
    native = load_kernels()
    return {
        "nproc": nproc(),
        "native": native,
        "native_compiled": bool(set(cache_dir.glob("**/*.so")) - before),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def build(job: dict):
    """The workload's timed call, ready to go: ``call() -> {key: payload}``."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.store import ResultCache

    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    root, seed = Path(job["root"]), job["seed"]
    jobs = workloads.nproc() if wl.parallel else 1
    kind = "thread" if wl.parallel else "serial"
    cache = ResultCache(Path(job["store"]))
    if wl.name == "lossy-fallback":
        scenarios = workloads.lossy_scenarios(root, wl.engine, seed)

        def call():
            payloads = {}
            for scenario in scenarios:
                out = scenario.run(jobs=jobs, cache=cache, executor=kind)
                payloads.update((s.key(), r.to_payload())
                                for s, r in out.metrics.items())
            return payloads
        return call

    campaign = Campaign(workloads.points(wl.name, root, seed))

    def call():
        out = campaign.run(jobs=jobs, cache=cache, executor_kind=kind)
        return {s.key(): r.to_payload() for s, r in out.items()}
    return call


def run(job: dict) -> dict:
    from tracer import Tracer, install, install_unit_clock

    load_kernels()
    call = build(job)
    setup_s = time.monotonic() - job["t_spawn"]
    units = install_unit_clock()
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        install(tracer)
    t0 = time.perf_counter()
    payloads = call()
    campaign_s = time.perf_counter() - t0
    report = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "units": units,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "payloads": payloads,
    }
    if tracer is not None:
        report["layers"] = tracer.summary(campaign_s)
    return report


def prefill(job: dict) -> dict:
    from repro.experiments.campaign import Campaign
    from repro.experiments.store import ResultCache

    import workloads

    load_kernels()
    specs = workloads.prefill_points(job["workload"], Path(job["root"]), job["seed"])
    Campaign(specs).run(jobs=workloads.nproc(), cache=ResultCache(Path(job["store"])),
                        executor_kind="thread")
    return {"points": len(specs)}


def oracle(job: dict) -> dict:
    from repro.experiments.campaign import Campaign
    from repro.experiments.store import ResultCache

    import workloads

    load_kernels()
    wanted = set(job["keys"])
    specs = [s for s in workloads.points(job["workload"], Path(job["root"]),
                                         job["seed"], engine="reference")
             if s.key() in wanted]
    out = Campaign(specs).run(jobs=1, cache=ResultCache(Path(job["store"])),
                              executor_kind="serial")
    return {"payloads": {s.key(): r.to_payload() for s, r in out.items()}}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    job["t_spawn"] = float(sys.argv[2])
    mode = job["mode"]
    if mode == "warm":
        report = host_stamp(Path(job["native_cache"]))
    elif mode == "setup":
        load_kernels()
        build(job)
        report = {"setup_s": time.monotonic() - job["t_spawn"]}
    elif mode == "prefill":
        report = prefill(job)
    elif mode == "run":
        report = run(job)
    elif mode == "oracle":
        report = oracle(job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(job["out"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
