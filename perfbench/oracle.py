"""Output check: committed digests and the reference-engine sample.

A workload's output is every point's result payload (metric means,
replication summaries, replication count), keyed by the point's store
key.  Each point hashes to a short digest; the committed
``digests/<workload>.json`` holds one per point at the default seed,
made by::

    python3 perfbench/oracle.py make WORKLOAD [WORKLOAD ...]

from the checkout root.  ``make`` runs the workload as the benchmark
does, re-runs *every* point on the reference engine serially, and
writes the digest only when the two agree exactly.

For a seed without a digest, :func:`sample` picks two points that the
benchmark re-runs on the reference engine, untimed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_id(key: str) -> str:
    """Short id of a point's store key."""
    return _sha(key)


def table(payloads: dict) -> dict[str, str]:
    """``{key id: payload digest}`` -- exact to the last float bit."""
    return {key_id(key): _sha(json.dumps(value, sort_keys=True))
            for key, value in payloads.items()}


def overall(digests: dict[str, str]) -> str:
    """One digest over a whole :func:`table`."""
    return _sha("\n".join(f"{k}:{v}" for k, v in sorted(digests.items())))


def committed(workload: str, seed: int) -> dict[str, str] | None:
    """The committed per-point digests, when they were made at ``seed``."""
    path = DIGESTS / f"{workload}.json"
    if not path.is_file():
        return None
    record = json.loads(path.read_text())
    return record["table"] if record["seed"] == seed else None


def mismatches(got: dict[str, str], want: dict[str, str]) -> set[str]:
    """Key ids missing on either side or whose digests differ."""
    return {k for k in set(got) | set(want) if got.get(k) != want.get(k)}


def sample(payloads: dict, size: int = 2) -> list[str]:
    """A fixed, cheap sample of ``size`` points for the reference re-run.

    Per workload family and channel policy, the point that took the
    fewest replications, then the lowest load, then the first in
    campaign order; of those, the ``size`` cheapest by the same order.
    """
    picked: dict[tuple, tuple[int, float, int, str]] = {}
    for order, (key, value) in enumerate(payloads.items()):
        spec = json.loads(key)
        group = (spec["workload"], spec.get("channel"))
        cost = (value["replications"], spec["load"], order, key)
        if group not in picked or cost < picked[group]:
            picked[group] = cost
    return [key for *_cost, key in sorted(picked.values())[:size]]


def make(workload: str) -> None:
    from run import Bench
    from workloads import DEFAULT_SEED

    with Bench(Path.cwd(), workload, DEFAULT_SEED) as bench:
        run = bench.child("run", timeout=None)
        payloads = run["payloads"]
        ref = bench.child("oracle", keys=list(payloads), timeout=None)
    if ref["payloads"] != payloads:
        bad = [k for k in payloads if ref["payloads"].get(k) != payloads[k]]
        raise SystemExit(
            f"{workload}: {len(bad)} of {len(payloads)} points differ from "
            "the reference engine; no digest written")
    digests = table(payloads)
    DIGESTS.mkdir(exist_ok=True)
    (DIGESTS / f"{workload}.json").write_text(json.dumps({
        "workload": workload,
        "seed": DEFAULT_SEED,
        "points": len(digests),
        "reference_checked": True,
        "digest": overall(digests),
        "table": digests,
    }, indent=0, sort_keys=True) + "\n")
    print(f"{workload}: {len(digests)} points match the reference engine; "
          f"digest {overall(digests)}")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "make":
        raise SystemExit("usage: python3 perfbench/oracle.py make WORKLOAD ...")
    for name in sys.argv[2:]:
        make(name)
