"""Benchmark of primeul: exact solves and checks, cold, on three workloads.

    python3 perfbench/run.py --workload reflection --seed 1 --seconds 40 --trace 0

Runs as a closed loop with one client: one item at a time, one child
interpreter at a time.  On ``reflection`` and ``lattice`` every solve runs in
a fresh interpreter, so it starts with empty caches, as one ``primeul poly``
invocation does.  ``--trace 0`` repeats passes over the workload's items
while the next one fits in ``--seconds``, spends the rest of that time on
more cold samples of single items, and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  End-to-end times are given at a reference speed of the
machine, sampled in every untraced child (``speed.py``), so that a slow
spell of a shared host does not move them.  ``--workload all`` runs every
workload in both modes.  A human-readable report comes first; the last line
is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import OUTSIDE  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

# Wall-clock limits: a child that runs past its limit is killed and its
# unfinished items fail, and no child outlives the run's own limit, so a
# regression fails the benchmark instead of hanging it.
ITEM_CHILD_LIMIT_S = 60
PASS_CHILD_LIMIT_S = 100
RUN_LIMIT_S = 150

ROUTES = ("mobius", "recursive", "halfspace", "descents")
# LP calls are attributed to a caller by the span they happen in.
LP_CALLERS = {"faces.regions": "regions", "faces.faces": "regions",
              "faces.halfspace": "halfspace", "weakorder.descents": "descents"}


class Deadline(Exception):
    """The run's wall-clock limit is reached."""


def run_child(items, trace: bool, limit: float, run_end: float):
    """Run one child; returns its set-up time, item lines, trace, peak RSS,
    CPU and wall time."""
    timeout = min(limit, run_end - time.monotonic())
    if timeout <= 0:
        raise Deadline
    request = json.dumps({"items": items, "trace": trace})
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-s", str(CHILD)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(request, timeout=timeout)
        error = f"exit code {proc.returncode}: {err.strip()[-300:]}" \
            if proc.returncode else None
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        error = f"timed out after {timeout:.0f} s"
    wall = time.monotonic() - spawned
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = {"setup": None, "items": {}, "trace": None, "rss_kb": 0,
              "cpu": cpu, "wall": wall, "error": error}
    for line in out.splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # a line cut short by a kill, or stray output
            continue
        if "ready" in record:
            # At the reference speed, the snippet's own time taken out.
            raw = record["ready"] - spawned - record["setup_snippet_s"]
            result["setup"] = raw * record["setup_scale"]
        elif "item" in record:
            result["items"][record["item"]] = record
        elif "trace" in record:
            result["trace"] = record
        elif "rss_kb" in record:
            result["rss_kb"] = record["rss_kb"]
    return result


def run_pass(workload: dict, trace: bool, run_end: float, indices=None) -> dict:
    """One pass over every item, or over the items at ``indices``; items a
    child did not finish count as failed."""
    items = [(i, spec) for i, spec in enumerate(workload["items"])
             if indices is None or i in indices]
    groups = [[it] for it in items] if workload["per_item_child"] else [items]
    limit = ITEM_CHILD_LIMIT_S if workload["per_item_child"] else PASS_CHILD_LIMIT_S
    start = time.monotonic()
    results, cpu, traces, errors, setups, rss_kb = {}, 0.0, [], [], [], 0
    for group in groups:
        try:
            child = run_child(group, trace, limit, run_end)
        except Deadline:
            errors.append("run time limit reached")
            break
        cpu += child["cpu"]
        rss_kb = max(rss_kb, child["rss_kb"])
        if child["setup"] is not None:
            setups.append(child["setup"])
        for record in child["items"].values():
            record["child_s"] = child["wall"]
        results.update(child["items"])
        if child["trace"]:
            traces.append(child["trace"])
        missing = [i for i, _ in group if i not in child["items"]]
        if child["error"] or missing:
            errors.append(child["error"] or f"items {missing} not reported")
    answers = [results.get(i, {}).get("answer") for i, _ in items]
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()[:16]
    failed = 0
    for i, spec in items:
        if not results.get(i, {}).get("ok"):
            failed += 1
            errors.append(f"item {i} failed: {results.get(i, {}).get('error')} {spec}")
    return {"wall": time.monotonic() - start, "cpu": cpu, "items": results,
            "setups": setups, "rss_kb": rss_kb,
            "attempted": len(items), "failed": failed, "digest": digest,
            "traces": traces, "errors": errors}


def fill(workload: dict, passes, until: float, run_end: float) -> list:
    """More cold samples of single items until ``until``, each child given to
    the item with the fewest samples so far, the longest first, among those
    whose slowest child yet still fits.  Long items, which weigh most in
    ``pass_s`` and set ``item_ms.p90``, get another sample first; short
    items fill what is left.  A sample whose answer differs from the item's first
    correct answer fails."""
    cost, count, answers = {}, {}, {}
    for p in passes:
        for i, r in p["items"].items():
            if "child_s" in r and r.get("ok"):
                count[i] = count.get(i, 0) + 1
                cost[i] = max(cost.get(i, 0.0), r["child_s"])
                answers.setdefault(i, r["answer"])
    extras = []
    while True:
        left = until - time.monotonic()
        fits = [i for i in cost if cost[i] <= left]
        if not fits:
            return extras
        i = min(fits, key=lambda i: (count[i], -cost[i]))
        extra = run_pass(workload, False, run_end, {i})
        record = extra["items"].get(i, {})
        if extra["failed"] == 0 and record["answer"] != answers[i]:
            extra["failed"] = 1
            extra["errors"].append(f"item {i} answer changed: {record['answer']}")
        count[i] += 1
        cost[i] = max(cost[i], extra["wall"])
        extras.append(extra)


def recorded_digest(workload: str, seed: int):
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def mark_changed_answers(passes, expected):
    """A pass whose answers differ from the first pass, or from the digest
    recorded for this seed, counts every one of its items as failed."""
    reference = expected or passes[0]["digest"]
    for p in passes:
        if p["digest"] != reference:
            p["failed"] = p["attempted"]
            p["errors"].append(f"answer digest {p['digest']} != {reference}")


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the two nearest values, so
    that on a dozen items it rests on two of them, not one."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def item_typical(passes):
    """Each item's median wall and CPU seconds at the reference speed over
    the run's samples of it, and the number of item samples they rest on.

    The child has already put every sample at the reference speed
    (``speed.py``), so what is left between samples of one item is noise
    the normalisation missed; the median drops its outliers.  The fastest
    sample would not do: it catches the host's short fast spells, 0.7x the
    usual time, on some runs and not on others."""
    walls, cpus = {}, {}
    for p in passes:
        for i, r in p["items"].items():
            if "s" in r:
                walls.setdefault(i, []).append(r["s"])
                cpus.setdefault(i, []).append(r["cpu"])
    typical = {i: (statistics.median(walls[i]), statistics.median(cpus[i]))
               for i in walls}
    return typical, sum(len(v) for v in walls.values())


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0] if values else 0.0
    return {"median": statistics.median(values) if values else 0.0,
            "q1": q1, "q3": q3, "min": min(values, default=0.0),
            "n": len(values)}


def end_to_end(passes) -> dict:
    """Pass and item times from each item's typical time, the set-up time of
    every child of the run, and the largest RSS among them; all times at
    the reference speed."""
    best, samples = item_typical(passes)
    item_ms = [wall * 1000 for wall, _ in best.values()]
    setups = [s for p in passes for s in p["setups"]]
    peak_kb = max(p["rss_kb"] for p in passes)
    return {
        "setup_s": ("s", setups or [0.0]),
        "pass_s": ("s", [sum(wall for wall, _ in best.values())], samples),
        "pass_cpu_s": ("s", [sum(cpu for _, cpu in best.values())], samples),
        "item_ms.p50": ("ms", [percentile(item_ms, 50)], samples),
        "item_ms.p90": ("ms", [percentile(item_ms, 90)], samples),
        "peak_rss_mb": ("MB", [peak_kb / 1024]),
    }


def timed_s(p) -> float:
    """Raw seconds of the pass's timed solves and checks, which do the same
    work whether traced or not."""
    return sum(r.get("raw_s", 0.0) for r in p["items"].values())


def route_seconds(p, items, route: str) -> float:
    """Raw cold time to P by one route, summed over the arrangements."""
    return sum(r.get("raw_s", 0.0) for i, r in p["items"].items()
               if items[i].get("route") == route)


def per_layer(plain, traced, items):
    """Layer metrics of one traced pass, route times of one untraced pass."""
    spans, calls, counts = {}, {}, {}
    hits = misses = 0
    for t in traced["traces"]:
        for name, (n, s) in t["trace"]["spans"].items():
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += n
            agg[1] += s
        for key, (n, s) in t["trace"]["calls"].items():
            agg = calls.setdefault(key, [0, 0.0])
            agg[0] += n
            agg[1] += s
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        hits += t["lattice_cache"][0]
        misses += t["lattice_cache"][1]

    def span_s(name):
        return spans.get(name, [0, 0.0])[1]

    def called(callee, caller=None):
        n = s = 0
        for key, (kn, ks) in calls.items():
            span, name = key.split("|")
            if name != callee or span == OUTSIDE:
                continue
            if caller is None or LP_CALLERS.get(span) == caller:
                n += kn
                s += ks
        return n, s

    rref_n, rref_s = called("rref_int")
    lp_n, lp_s = called("strict_feasible_point")
    region_lps = calls.get("faces.regions|strict_feasible_point", [0, 0.0])[0]
    m = {
        "linalg.rref_calls": ("count", rref_n),
        "linalg.rref_s": ("s", rref_s),
        "arrangement.flats": ("count", counts.get("flats", 0)),
        "arrangement.build_flats_s": ("s", span_s("arrangement.build_flats")),
        "arrangement.char_s": ("s", span_s("arrangement.char")),
        "arrangement.lattices_built": ("count", misses),
        "arrangement.lattice_hit_ratio": ("ratio", hits / (hits + misses) if hits + misses else 0.0),
        "feasibility.lp_calls": ("count", lp_n),
        "feasibility.lp_s": ("s", lp_s),
    }
    for caller in ("regions", "halfspace", "descents"):
        n, s = called("strict_feasible_point", caller)
        m[f"feasibility.lp_calls.{caller}"] = ("count", n)
        m[f"feasibility.lp_s.{caller}"] = ("s", s)
    m.update({
        "faces.regions": ("count", counts.get("regions", 0)),
        "faces.regions_s": ("s", span_s("faces.regions")),
        "faces.regions_per_lp": ("ratio", counts.get("region_splits", 0) / region_lps
                                 if region_lps else 0.0),
        "faces.faces": ("count", counts.get("faces", 0)),
        "faces.faces_s": ("s", span_s("faces.faces")),
        "faces.halfspace_s": ("s", span_s("faces.halfspace")),
        "faces.simplicial_s": ("s", span_s("faces.simplicial")),
        "faces.sharp_s": ("s", span_s("faces.sharp")),
        "weakorder.build_s": ("s", span_s("weakorder.build")),
        "weakorder.contained": ("count", counts.get("contained", 0)),
        "weakorder.descents_s": ("s", span_s("weakorder.descents")),
        "eulerpoly.mobius_s": ("s", span_s("eulerpoly.mobius")),
        "eulerpoly.recursive_s": ("s", span_s("eulerpoly.recursive")),
        "eulerpoly.find_v_s": ("s", span_s("eulerpoly.find_v")),
        "eulerpoly.declined": ("count", counts.get("declined", 0)),
        "roots.real_rooted_calls": ("count", spans.get("roots.real_rooted", [0])[0]),
        "roots.real_rooted_s": ("s", span_s("roots.real_rooted")),
        "roots.interlace_calls": ("count", spans.get("roots.interlace", [0])[0]),
        "roots.interlace_s": ("s", span_s("roots.interlace")),
        "coxstats.elements": ("count", counts.get("elements", 0)),
        "coxstats.stats_s": ("s", span_s("coxstats.stats")),
        "egf.series_s": ("s", span_s("egf.series")),
        "families.build_s": ("s", span_s("families.build")),
        "trace.overhead_frac": ("ratio", timed_s(traced) / timed_s(plain) - 1),
    })
    for route in ROUTES:
        m[f"route_s.{route}"] = ("s", route_seconds(plain, items, route))
    return m, calls


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload: dict | None = None) -> dict:
    """Run one workload; ``workload`` overrides the generated items."""
    expected_digest = None if workload else recorded_digest(workload_name, seed)
    workload = workload or make_workload(workload_name, seed)
    start = time.monotonic()
    run_end = start + RUN_LIMIT_S
    passes, extras, calls, errors = [], [], {}, []
    try:
        # With tracing, untraced and traced passes alternate.  A lap starts
        # only if it fits in ``seconds`` at the pace of the slowest lap yet.
        slowest = 0.0
        while True:
            lap_start = time.monotonic()
            passes.append(run_pass(workload, False, run_end))
            if trace:
                passes.append(run_pass(workload, True, run_end))
            slowest = max(slowest, time.monotonic() - lap_start)
            if time.monotonic() - start + slowest > seconds:
                break
        if workload["per_item_child"] and not trace:
            extras = fill(workload, passes, start + seconds, run_end)
    except Deadline:
        errors.append("run time limit reached")
    if not passes:
        passes.append({"wall": 0.0, "cpu": 0.0, "items": {}, "digest": "",
                       "setups": [], "rss_kb": 0,
                       "attempted": len(workload["items"]),
                       "failed": len(workload["items"]), "traces": [], "errors": []})
    mark_changed_answers(passes, expected_digest)
    attempted = sum(p["attempted"] for p in passes + extras)
    failed = sum(p["failed"] for p in passes + extras)
    for p in passes + extras:
        errors.extend(p["errors"])
    if trace:
        metrics = {}
        for plain, traced in zip(passes[0::2], passes[1::2]):
            lap_metrics, lap_calls = per_layer(plain, traced, workload["items"])
            calls = calls or lap_calls
            for name, (unit, value) in lap_metrics.items():
                metrics.setdefault(name, (unit, []))[1].append(value)
        if metrics:
            metrics["fail_frac"] = ("ratio", [failed / attempted])
    else:
        metrics = end_to_end(passes + extras)
    return {"workload": workload_name, "seed": seed, "trace": trace,
            "seconds": seconds, "passes": len(passes), "extras": len(extras),
            "items_per_pass": len(workload["items"]), "attempted": attempted,
            "failed": failed, "digest": passes[0]["digest"], "errors": errors,
            "pass_walls": [p["wall"] for p in passes[::2 if trace else 1]],
            "raw_norm_s": [sum(r.get(k, 0.0) for p in passes + extras
                               for r in p["items"].values()) for k in ("raw_s", "s")],
            "metrics": metrics, "calls": calls,
            "wall_s": time.monotonic() - start}


def report(result: dict) -> list[str]:
    lines = [
        f"# workload={result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])} seconds={result['seconds']} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"passes={result['passes']} items/pass={result['items_per_pass']} "
        f"extra_samples={result['extras']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"fail_frac={result['failed'] / result['attempted']:.4f} "
        f"digest={result['digest']} wall={result['wall_s']:.1f}s",
    ]
    raw, norm = result["raw_norm_s"]
    lines.append(f"# timed item work over all samples: {raw:.4g} s raw, {norm:.4g} s "
                 f"at the reference speed (raw/reference {raw / norm if norm else 0:.3f})")
    walls = summary(result["pass_walls"])
    lines.append(f"# untraced pass wall, child start-up and checks included: "
                 f"median={walls['median']:.4g} q1={walls['q1']:.4g} "
                 f"q3={walls['q3']:.4g} min={walls['min']:.4g} s, {walls['n']} passes")
    for name, (unit, values, *samples) in result["metrics"].items():
        s = summary(values)
        n = samples[0] if samples else s["n"]
        lines.append(f"{name:32s} median={s['median']:<12.6g} q1={s['q1']:<12.6g} "
                     f"q3={s['q3']:<12.6g} min={s['min']:<12.6g} unit={unit:6s} "
                     f"samples={n}")
    for key, (n, s) in sorted(result["calls"].items()):
        lines.append(f"  calls {key:48s} count={n:<8d} s={s:.4f}")
    for error in result["errors"][:20]:
        lines.append(f"! {error}")
    return lines


def contract_line(result: dict) -> dict:
    metrics = {name: {"value": summary(values)["median"], "unit": unit}
               for name, (unit, values, *_) in result["metrics"].items()}
    return {"correct": result["failed"] == 0 and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "primeul" / "__init__.py").is_file():
        print(f"error: no primeul sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        combined = {}
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, args.seconds, trace)
                print("\n".join(report(result)), flush=True)
                combined[f"{name}/trace{int(trace)}"] = contract_line(result)
        print(json.dumps(combined))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(result)))
    print(json.dumps(contract_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
