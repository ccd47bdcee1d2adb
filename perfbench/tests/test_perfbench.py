"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> dict:
    """The workload's item kinds on inputs small enough for a unit test."""
    rng = random.Random(0)
    if name == "reflection":
        families = (("A 3", ("A", 3)), ("B 2", ("B", 2)))
        return {"items": workloads.solve_items(families, workloads.ROUTES, rng),
                "per_item_child": True}
    if name == "lattice":
        families = (("A 4", ("A", 4)), ("Gn 3", ("Gn", 3)))
        return {"items": workloads.solve_items(families, ("mobius", "recursive"), rng),
                "per_item_child": True}
    size = {"coxstats": lambda it: it["n"], "real_rooted": lambda it: it["poly"][1],
            "interlaces": lambda it: it["f"][1], "egf": lambda it: 0,
            "binomial": lambda it: 0}
    items = workloads.make_workload("series", 1)["items"]
    return {"items": [it for it in items if size[it["kind"]](it) <= 5],
            "per_item_child": False}


def names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_emitted_and_counts_repeat(name):
    plain = run.contract_line(run.run(name, 1, 0, False, tiny(name)))
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == names("end_to_end")
    assert all(plain["metrics"][m]["value"] > 0 for m in names("end_to_end"))

    traced = [run.contract_line(run.run(name, 1, 0, True, tiny(name)))
              for _ in range(2)]
    for result in traced:
        assert result["correct"]
        assert list(result["metrics"]) == names("per_layer")
    counts = [{m: r["metrics"][m]["value"] for m in names("per_layer")
               if r["metrics"][m]["unit"] == "count"} for r in traced]
    assert counts[0] == counts[1]
    lp_calls = counts[0]["feasibility.lp_calls"]
    assert lp_calls > 0 if name == "reflection" else lp_calls == 0


def test_wrong_expected_answer_fails_items():
    workload = tiny("reflection")
    workload["items"][0]["expect"] = ["A", 4]
    result = run.run("reflection", 1, 0, True, workload)
    assert result["failed"] >= 1
    assert result["metrics"]["fail_frac"][1][0] > 0
    assert not run.contract_line(result)["correct"]


def test_declined_descents_route_is_checked_not_failed():
    # Not sharp: for the vector find_very_generic picks, the contained
    # regions are not an upper set, and P = z^2 = peul_d_rec(2).
    item = {"kind": "solve", "family": "graphic 3 1-3,2-3", "route": "descents",
            "expect": ["D", 2]}
    result = run.run("reflection", 1, 0, True,
                     {"items": [item], "per_item_child": True})
    assert result["failed"] == 0
    assert result["metrics"]["eulerpoly.declined"][1][0] == 1


def test_child_over_its_limit_fails(monkeypatch):
    monkeypatch.setattr(run, "ITEM_CHILD_LIMIT_S", 0.01)
    result = run.run("lattice", 1, 0, False, tiny("lattice"))
    assert result["failed"] == result["attempted"]
    assert any("timed out" in e for e in result["errors"])


def test_spare_time_samples_are_checked():
    workload = tiny("lattice")
    first = run.run_pass(workload, False, time.monotonic() + 60)
    first["items"][0]["answer"] = ["not", "the", "answer"]
    extras = run.fill(workload, [first], time.monotonic() + 3, time.monotonic() + 60)
    assert extras
    for extra in extras:
        [index] = extra["items"]
        assert extra["failed"] == (index == 0)


def test_changed_digest_fails_the_pass():
    passes = [{"digest": "a", "attempted": 3, "failed": 0, "errors": []},
              {"digest": "b", "attempted": 3, "failed": 0, "errors": []}]
    run.mark_changed_answers(passes, None)
    assert [p["failed"] for p in passes] == [0, 3]
    run.mark_changed_answers(passes, "c")
    assert [p["failed"] for p in passes] == [3, 3]


def test_item_times_ignore_a_slow_pass():
    times = {i: {"s": (i + 1) / 1000, "cpu": (i + 1) / 1000} for i in range(10)}
    slow = {i: {"s": 5 * r["s"], "cpu": 5 * r["cpu"]} for i, r in times.items()}
    clean = run.item_typical([{"items": times}] * 3)
    noisy = run.item_typical([{"items": times}, {"items": slow}, {"items": times}])
    assert clean[0] == noisy[0]
    assert noisy[0][4] == (0.005, 0.005)
    assert noisy[1] == 30


def test_times_are_put_at_the_reference_speed():
    sampler = speed.Sampler()
    sampler.running = True
    # The machine runs at half speed: the snippet takes twice its nominal
    # time, four times within the measured second.
    snippet = 2 * speed.NOMINAL_S
    sampler.samples = [(t, snippet, snippet) for t in (0.2, 0.4, 0.6, 0.8)]
    times = sampler.measure(0.0, 1.0, 1.0)
    raw = 1.0 - 4 * snippet
    assert times["raw_s"] == pytest.approx(raw)
    assert times["s"] == pytest.approx(raw / 2)
    assert times["cpu"] == pytest.approx(raw / 2)
    # An interval with too few samples borrows the latest ones before it.
    assert sampler.measure(0.85, 0.9, 0.05)["s"] == pytest.approx(0.025)
    sampler.running = False
    assert sampler.measure(0.0, 1.0, 1.0)["s"] == pytest.approx(raw)
