"""Benchmark self-checks that need more than one run.

    python3 perfbench/checks.py teeth  [--seed N]
    python3 perfbench/checks.py layers [--seed N] [--out PATH]

Run from the checkout root.

``teeth`` shows the output check can fail: it perturbs one metric of one
point by one ulp and requires ``failed > 0`` -- once at the default seed
(committed-digest path) and once at ``--seed`` (reference-sample path).

``layers`` makes one traced run per workload and tests the layer
predictions written down before the benchmark was measured:

* ``soa.advance_s`` is the largest layer on paper-soa and 0 on
  quick-reference;
* ``alloc.self_s`` is the largest layer on quick-reference and 0 on
  paper-soa and resume-sweep;
* dispatch + store + key encoding take a larger share of resume-sweep
  than of paper-soa;
* the channel layer is non-zero only on lossy-fallback.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import SELF_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

#: per-layer self times that are work (waiting is not a layer's work)
WORK_LAYERS = tuple(m for m in SELF_METRICS.values() if m != "campaign.wait_s")

#: the per-point fixed costs resume-sweep is chosen to stress
FIXED_COSTS = ("campaign.dispatch_s", "store.get_s", "store.put_s",
               "campaign.key_s")


def bench(workload: str, seed: int, *extra: str) -> dict:
    """One run.py run; its final JSON line."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", *extra],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def teeth(seed: int) -> list[tuple[str, bool]]:
    results = []
    for s in (DEFAULT_SEED, seed):
        for name in ("quick-reference", "lossy-fallback"):
            got = bench(name, s, "--trace", "0", "--perturb")
            results.append((
                f"{name} seed {s}: one-ulp perturbation -> failed="
                f"{got['failed']}, correct={got['correct']}",
                got["failed"] > 0 and not got["correct"],
            ))
    return results


def layers(seed: int) -> tuple[list[tuple[str, bool]], dict]:
    m = {}
    for name in WORKLOADS:
        got = bench(name, seed, "--trace", "1")
        m[name] = {k: v["value"] for k, v in got["metrics"].items()}
        m[name]["correct"] = got["correct"]

    def largest(workload: str) -> str:
        return max(WORK_LAYERS, key=lambda k: m[workload][k])

    def share(workload: str) -> float:
        w = m[workload]
        return sum(w[k] for k in FIXED_COSTS) / w["trace.campaign_s"]

    channel_on = [n for n in WORKLOADS
                  if m[n]["channel.self_s"] > 0 or m[n]["channel.attempts"] > 0]
    results = [
        (f"every traced run correct: "
         f"{ {n: m[n]['correct'] for n in WORKLOADS} }",
         all(m[n]["correct"] for n in WORKLOADS)),
        (f"largest layer on paper-soa: {largest('paper-soa')}",
         largest("paper-soa") == "soa.advance_s"),
        (f"soa.advance_s on quick-reference: "
         f"{m['quick-reference']['soa.advance_s']}",
         m["quick-reference"]["soa.advance_s"] == 0),
        (f"largest layer on quick-reference: {largest('quick-reference')}",
         largest("quick-reference") == "alloc.self_s"),
        (f"alloc.self_s on paper-soa / resume-sweep: "
         f"{m['paper-soa']['alloc.self_s']} / {m['resume-sweep']['alloc.self_s']}",
         m["paper-soa"]["alloc.self_s"] == 0
         and m["resume-sweep"]["alloc.self_s"] == 0),
        (f"dispatch+store+key share: resume-sweep {share('resume-sweep'):.3f}"
         f" > paper-soa {share('paper-soa'):.3f}",
         share("resume-sweep") > share("paper-soa")),
        (f"channel layer non-zero on: {channel_on}",
         channel_on == ["lossy-fallback"]),
    ]
    return results, m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("check", choices=("teeth", "layers"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, help="write the traced metrics here")
    args = p.parse_args()
    if args.check == "teeth":
        results = teeth(args.seed)
    else:
        results, metrics = layers(args.seed)
        if args.out:
            args.out.write_text(json.dumps(metrics, indent=1) + "\n")
    for text, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
