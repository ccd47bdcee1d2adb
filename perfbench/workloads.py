"""Workload inputs, generated from a seed without importing primeul.

Every workload is a list of item specs (plain JSON data) plus the way its
items are grouped into child processes.  The program under test only ever
receives the generated inputs: family strings or closed-form polynomial
names.
"""

from __future__ import annotations

import random

ROUTES = ("mobius", "recursive", "halfspace", "descents")

# Reflection arrangements small enough for 22 cold repeats of every route.
# F4 (36 s cold), D6 (16 s) and A7 (14 s) would make one pass too long.
REFLECTION = (("A 5", ("A", 5)), ("B 4", ("B", 4)), ("D 4", ("D", 4)))

# 200 to 650 flats each; only the lattice routes run, so no LP is solved.
LATTICE = (("A 6", ("A", 6)), ("B 5", ("B", 5)), ("D 5", ("D", 5)),
           ("Dnk 5 3", ("Dnk", 5, 3)), ("Gn 8", ("Gn", 8)))

# series: degrees of the closed-form families that are checked.
ROOTS_MAX_DEGREE = 25
INTERLACE_MAX_DEGREE = 12
COXSTATS_MAX_N = 6
EGF_ORDER = 8
GN_NOT_REAL_ROOTED = range(4, 13)

WORKLOADS = ("reflection", "lattice", "series")


def solve_items(families, routes, rng):
    """One cold solve per (family, route), in seeded order.  The inputs are
    the same for every seed, so the work and its counts are too."""
    items = [{"kind": "solve", "family": family, "route": route,
              "expect": list(expect)}
             for family, expect in families for route in routes]
    rng.shuffle(items)
    return items


def _series_items(rng):
    items = []
    for n in range(1, COXSTATS_MAX_N + 1):
        items.append({"kind": "coxstats", "type": "A", "n": n})
        items.append({"kind": "coxstats", "type": "B", "n": n})
        if n >= 2:
            items.append({"kind": "coxstats", "type": "D", "n": n})
    for n in range(2, ROOTS_MAX_DEGREE + 1):
        items.append({"kind": "real_rooted", "poly": ["B", n], "expect": True})
        items.append({"kind": "real_rooted", "poly": ["D", n], "expect": True})
        items.append({"kind": "real_rooted", "poly": ["Dnk", n, rng.randint(1, n - 1)],
                      "expect": True})
    for n in GN_NOT_REAL_ROOTED:
        items.append({"kind": "real_rooted", "poly": ["Gn", n], "expect": False})
    for n in range(2, INTERLACE_MAX_DEGREE + 1):
        items.append({"kind": "interlaces", "g": ["B", n - 1], "f": ["B", n],
                      "expect": True})
        if n >= 3:
            # D_2 = z^2 and D_3 do not interlace, nor do D_3 and D_4: the
            # root -0.268 of D_3 lies above the root -0.28 of D_4.
            items.append({"kind": "interlaces", "g": ["D", n - 1], "f": ["D", n],
                          "expect": n >= 5})
    items.append({"kind": "egf", "order": EGF_ORDER})
    items.append({"kind": "binomial", "order": EGF_ORDER})
    return items


def make_workload(name: str, seed: int) -> dict:
    """Item specs and their grouping into children.

    ``per_item_child`` means every item runs in its own fresh interpreter
    (cold caches); otherwise one child runs all items of a pass in order.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "reflection":
        return {"items": solve_items(REFLECTION, ROUTES, rng), "per_item_child": True}
    if name == "lattice":
        return {"items": solve_items(LATTICE, ("mobius", "recursive"), rng),
                "per_item_child": True}
    if name == "series":
        return {"items": _series_items(rng), "per_item_child": False}
    raise ValueError(f"unknown workload {name!r}")
