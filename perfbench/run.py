"""Campaign benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload paper-soa --seed 7 --seconds 20 --trace 0

Run from the checkout root.  Every measurement is a fresh Python process
(``child.py``) with its own result store; the workload's campaign runs
inside it on at most ``nproc`` threads.  With ``--trace 0`` the run
repeats the workload for about ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it makes one untimed-overhead
reference run and two traced runs, and reports the per-layer metrics.
Either way every point's output is checked (committed digest at the
default seed, reference-engine sample otherwise).

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full host-stamped
record goes to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: scratch space under the checkout root (native build cache, run dirs)
WORK_DIR = ".perfbench-work"

#: setup-time samples per run (extra set-up-only processes fill the gap)
SETUP_SAMPLES = 3

#: traced runs per ``--trace 1`` run (the determinism check compares them)
TRACED_RUNS = 2

#: a run must end within this many seconds
RUN_BUDGET = 170.0

#: exit code when the workload cannot be timed on this host
NOT_COMPARABLE = 3


class Bench:
    """One benchmark run's processes and scratch directories."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        base = root / WORK_DIR
        self.native_cache = base / "native"
        self.work = base / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET
        self._n = 0
        #: wall seconds spent in child processes, per mode
        self.spent: dict[str, float] = {}
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env["XDG_CACHE_HOME"] = str(self.native_cache)
        self.env["TMPDIR"] = str(self.work / "tmp")

    def __enter__(self) -> "Bench":
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.native_cache.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def store(self, prefill: Path | None = None) -> Path:
        """A fresh result-store directory (a copy of ``prefill`` if given)."""
        self._n += 1
        path = self.work / f"store-{self._n}"
        if prefill is not None:
            shutil.copytree(prefill, path)
        return path

    def child(self, mode: str, store: Path | None = None,
              timeout: float | None = 0.0, **fields) -> dict:
        """Run one ``child.py`` process to completion; its report.

        ``timeout=0`` means "whatever is left of the run's budget",
        ``None`` means no limit.
        """
        self._n += 1
        job_path = self.work / f"job-{self._n}.json"
        out = self.work / f"out-{self._n}.json"
        store = store or self.work / f"store-{self._n}"
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        if timeout == 0.0:
            timeout = max(1.0, self.deadline - time.monotonic())
        job = {
            "mode": mode, "workload": self.workload, "seed": self.seed,
            "root": str(self.root), "store": str(store), "out": str(out),
            "native_cache": str(self.native_cache), **fields,
        }
        job_path.write_text(json.dumps(job))
        t_spawn = time.monotonic()
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path),
             repr(t_spawn)],
            cwd=self.root, env=env, stdout=sys.stderr, check=True,
            timeout=timeout,
        )
        self.spent[mode] = self.spent.get(mode, 0.0) + time.monotonic() - t_spawn
        return json.loads(out.read_text())


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def timed_runs(bench: Bench, seconds: float, prefill: Path | None) -> tuple[list, list]:
    """Repeat the workload for about ``seconds``; (runs, setup times).

    Another repeat starts while at least half of it is expected to fit,
    so on average the repeats fill ``seconds``: the longer the measured
    window, the less the host's slow speed drift moves a run's medians.
    """
    runs: list[dict] = []
    spent = last = 0.0
    while not runs or spent + last / 2 <= seconds:
        t0 = time.monotonic()
        runs.append(bench.child("run", store=bench.store(prefill)))
        last = time.monotonic() - t0
        spent += last
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.child("setup")["setup_s"])
    return runs, setups


def end_to_end(runs: list[dict], setups: list[float]) -> tuple[dict, int]:
    """``({metric: (value, unit)}, work-unit sample count)``."""
    units = [sec for r in runs for sec, _jobs in r["units"]]
    return {
        "campaign_s": (statistics.median([r["campaign_s"] for r in runs]), "s"),
        "sim_jobs_per_s": (statistics.median([
            sum(jobs for _s, jobs in r["units"]) / r["campaign_s"]
            for r in runs]), "jobs/s"),
        "point_s.p50": (statistics.median(units), "s"),
        "point_s.p90": (_p90(units), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median([r["rss_mb"] for r in runs]), "MB"),
    }, len(units)


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if isinstance(value, float):
            value = statistics.fmean(t["layers"][name] for t in traced)
        if isinstance(value, (int, float)):
            out[name] = value
    traced_s = statistics.fmean(t["campaign_s"] for t in traced)
    out["trace.campaign_s"] = traced_s
    out["trace.overhead"] = traced_s / untraced["campaign_s"]
    return out


def determinism(runs: list[dict]) -> list[str]:
    """Problems found comparing traced runs of one seed (empty = none)."""
    problems = []
    first = runs[0]["layers"]
    for run in runs[1:]:
        for name in tracer.DETERMINISTIC_COUNTS:
            if run["layers"][name] != first[name]:
                problems.append(
                    f"{name}: {first[name]} != {run['layers'][name]}")
    for i, run in enumerate(runs):
        bad = [c for c in run["layers"]["thread_checks"] if not c["sum_ok"]]
        if bad:
            problems.append(f"traced run {i}: self times do not add up on "
                            f"{len(bad)} thread(s): {bad}")
    return problems


def check_outputs(bench: Bench, runs: list[dict], perturb: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every point of the workload."""
    payloads = runs[0]["payloads"]
    sample = oracle.sample(payloads)
    if perturb:
        # teeth check: one ulp on one metric of one sampled point
        means = payloads[sample[0]]["means"]
        means["mean_turnaround"] = math.nextafter(means["mean_turnaround"], math.inf)
    digests = oracle.table(payloads)
    problems = []
    failed = set()
    for i, run in enumerate(runs[1:], start=1):
        diff = oracle.mismatches(digests, oracle.table(run["payloads"]))
        if diff:
            problems.append(f"run {i}: {len(diff)} points differ from run 0")
            failed |= diff
    want = oracle.committed(bench.workload, bench.seed)
    if want is not None:
        diff = oracle.mismatches(digests, want)
        if diff:
            problems.append(f"{len(diff)} points differ from the committed digest")
            failed |= diff
    else:
        ref = bench.child("oracle", keys=sample)["payloads"]
        bad = {oracle.key_id(k) for k in sample if ref.get(k) != payloads[k]}
        if bad:
            problems.append(f"{len(bad)} of {len(sample)} sampled points "
                            "differ from the reference engine")
            failed |= bad
    attempted = len(set(digests) | set(want or {}))
    return attempted, len(failed), problems


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", action="store_true",
                   help="teeth check: alter one metric before checking")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from "
              "the checkout root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "scale": wl.scale,
              "engine": wl.engine, "trace": args.trace,
              "seconds": args.seconds}
    with Bench(root, wl.name, args.seed) as bench:
        record["host"] = bench.child("warm")
        if wl.needs_native and not record["host"]["native"]:
            record["comparable"] = False
            record["reason"] = "native kernels unavailable: timing the " \
                               "fallback would not measure this workload"
            print(json.dumps(record), file=sys.stderr)
            return NOT_COMPARABLE
        record["comparable"] = True
        prefill = None
        if wl.name == "resume-sweep":
            prefill = bench.store()
            bench.child("prefill", store=prefill)
        if args.trace:
            untraced = bench.child("run", store=bench.store(prefill))
            runs = [bench.child("run", store=bench.store(prefill), trace=True)
                    for _ in range(TRACED_RUNS)]
            metrics = {name: (value, _unit(name))
                       for name, value in per_layer(untraced, runs).items()}
            problems = determinism(runs)
            runs = [untraced, *runs]
        else:
            runs, setups = timed_runs(bench, args.seconds, prefill)
            metrics, samples = end_to_end(runs, setups)
            record["point_s.samples"] = samples
            problems = []
        attempted, failed, output_problems = check_outputs(bench, runs, args.perturb)
    problems += output_problems
    if not args.trace:
        metrics["ok_share"] = (1.0 - failed / attempted, "fraction")
    record.update({
        "phase_s": bench.spent, "runs": len(runs), "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "problems": problems,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    })
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if name == "store.bytes_written":
        return "bytes"
    if name == "trace.overhead":
        return "x"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
