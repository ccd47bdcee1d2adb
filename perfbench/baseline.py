"""Repeat the benchmark over seeds and record medians, spreads and digests.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Two sets of runs are made.  In each, every workload runs once per seed 1 to
10 with ``--trace 0``; the workloads take turns seed by seed, so a slow
spell of the machine falls on all of them.  Then every workload runs twice
per trace seed with ``--trace 1`` (the per-layer counts of the two must be
equal).  For each end-to-end metric and set the record holds the median over
seeds and the spread: the distance between the first and third quartile as
a share of the median; and the shift of the second set's median against the
first.  The answer digest of every (workload, seed) is recorded too;
``run.py`` counts a pass whose digest differs from the recorded one as
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


SEEDS = range(1, 11)
TRACE_SEEDS = (1, 2)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["digest"] = re.search(r"digest=(\w+)", out[0]).group(1)
    result["passes"] = int(re.search(r"passes=(\d+)", out[0]).group(1))
    return result


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "seconds": seconds,
              "date": time.strftime("%Y-%m-%d"), "workloads": {}, "digests": {}}
    sets = []
    for number in range(SETS):
        runs = {w: {} for w in WORKLOADS}
        for seed in SEEDS:
            for workload in WORKLOADS:
                runs[workload][seed] = run_once(workload, seed, seconds, 0)
                print(number, workload, seed, json.dumps(runs[workload][seed]),
                      flush=True)
        sets.append(runs)
    traced = {w: {} for w in WORKLOADS}
    for seed in TRACE_SEEDS:
        for workload in WORKLOADS:
            pair = [run_once(workload, seed, seconds, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] == "count"} for r in pair]
            traced[workload][seed] = {
                "metrics": {k: v["value"] for k, v in pair[0]["metrics"].items()},
                "counts_repeat": counts[0] == counts[1],
                "failed": [r["failed"] for r in pair]}
            print(workload, seed, "trace", json.dumps(traced[workload][seed]),
                  flush=True)
    for workload in WORKLOADS:
        per_set = [runs[workload] for runs in sets]
        e2e = {}
        for m in bounds:
            stats = [spread([r["metrics"][m]["value"] for r in runs.values()])
                     for runs in per_set]
            shift = stats[1]["median"] / stats[0]["median"] - 1
            e2e[m] = {"bound": bounds[m], "sets": stats, "shift": shift}
        all_runs = [r for runs in per_set for r in runs.values()]
        record["workloads"][workload] = {
            "end_to_end": e2e,
            "failed": sum(r["failed"] for r in all_runs),
            "attempted": sum(r["attempted"] for r in all_runs),
            "passes": [r["passes"] for r in all_runs],
            "per_layer": traced[workload],
        }
        digests = {str(s): r["digest"] for s, r in per_set[0].items()}
        for runs in per_set[1:]:
            for s, r in runs.items():
                if r["digest"] != digests[str(s)]:
                    print(f"! {workload} seed {s}: digest changed between sets")
        record["digests"][workload] = digests
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
