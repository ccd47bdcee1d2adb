"""One benchmark child: a fresh interpreter that runs items and checks them.

Reads a JSON object on stdin:
``{"items": [[index, spec], ...], "trace": bool}``.
Writes JSON lines on stdout: ``{"ready": t, ...}`` once imports are done
and the inputs are built (``t`` on the system-wide monotonic clock), one
``{"item": index, ...}`` line per item, with tracing a ``{"trace": ...}``
line, and last ``{"rss_kb": n}``, the child's own peak resident size.
Every item's answer is checked here against the closed forms, so the
routes also agree with each other.

The speed sampler (``speed.py``) starts before the program is imported, so
set-up and item times can be given at the reference speed; a traced child
stops it once set up, so that its spans hold no snippet time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from speed import Sampler  # noqa: E402

SAMPLER = Sampler()
SAMPLER.start()
STARTED = time.perf_counter()

from primeul import (WeakOrder, build_flats,  # noqa: E402
                     cochar_via_halfspace, count_regions_zaslavsky,
                     enumerate_faces, enumerate_regions, find_very_generic,
                     interlaces, is_real_rooted, is_sharp, is_simplicial,
                     parse_family, peul_from_cochar,
                     primitive_eulerian_descents, primitive_eulerian_mobius,
                     primitive_eulerian_recursive, region_in_halfspace)
from primeul.coxstats import (binomial_identity_checks,  # noqa: E402
                              generating_function_check, peul_a, peul_a_des,
                              peul_a_exc, peul_b_des, peul_b_excb, peul_b_rec,
                              peul_d_des, peul_d_rec, peul_dnk)
from primeul.eulerpoly import UpperSetError, base_region_of  # noqa: E402
from primeul.intpoly import Z, ZM1  # noqa: E402

from spans import Tracer  # noqa: E402

COUNTS = ("flats", "regions", "region_splits", "faces", "contained",
          "declined", "elements")


def closed_form(key):
    """The closed-form polynomial a named family must produce."""
    kind, *args = key
    if kind == "A":
        return peul_a(*args)
    if kind == "B":
        return peul_b_rec(*args)
    if kind == "D":
        return peul_d_rec(*args)
    if kind == "Dnk":
        return peul_dnk(*args)
    if kind == "Gn":
        n = args[0]
        return Z * ZM1 ** n + (n + 1) * Z ** n - Z ** (n + 1)
    raise ValueError(f"no closed form for {key!r}")


def build_input(spec):
    return parse_family(spec["family"]) if spec["kind"] == "solve" else None


class Child:
    def __init__(self, tracer):
        self.tracing = tracer is not None
        self.span = tracer.span if tracer else nullcontext
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- layer steps, each in its own span; a route calls them in dependency
    # order, so the caches leave every span with its own layer's work.

    def lattice(self, a):
        with self.span("arrangement.build_flats"):
            lattice = build_flats(a)
        self.counts["flats"] += len(lattice)
        return lattice

    def fan(self, a):
        with self.span("faces.regions"):
            regions = enumerate_regions(a)
        self.counts["regions"] += len(regions)
        self.counts["region_splits"] += len(regions) - 1
        with self.span("faces.faces"):
            fan = enumerate_faces(a)
        self.counts["faces"] += len(fan)

    def very_generic(self, a):
        with self.span("eulerpoly.find_v"):
            return find_very_generic(a)

    def route(self, route, a):
        """(P, v, witness) by one route; P is None when descents declines."""
        if route == "mobius":
            self.lattice(a)
            with self.span("eulerpoly.mobius"):
                return primitive_eulerian_mobius(a), None, None
        if route == "recursive":
            with self.span("eulerpoly.recursive"):
                return primitive_eulerian_recursive(a), None, None
        lattice = self.lattice(a)
        self.fan(a)
        if route == "halfspace":
            v = self.very_generic(a)
            with self.span("faces.halfspace"):
                psi = cochar_via_halfspace(a, v)
            return peul_from_cochar(psi, lattice.rank), v, None
        with self.span("faces.simplicial"):
            if not is_simplicial(a):
                raise ValueError("descents route needs a simplicial arrangement")
        v = self.very_generic(a)
        with self.span("weakorder.descents"):
            try:
                p = primitive_eulerian_descents(a, v)
            except UpperSetError as exc:
                self.counts["declined"] += 1
                return None, v, exc.witness
        self.counts["contained"] += sum(p.coeffs)
        return p, v, None

    # -- items; only the route is timed, not the checks after it.

    def solve(self, spec, a):
        """One cold solve by one route, checked against the closed form."""
        route = spec["route"]
        start, cpu = time.perf_counter(), time.process_time()
        p, v, witness = self.route(route, a)
        times = SAMPLER.measure(start, time.perf_counter(), time.process_time() - cpu)
        if p is None:
            ok = valid_witness(a, v, witness)
        else:
            ok = p == closed_form(spec["expect"])
        if route == "halfspace":
            with self.span("arrangement.char"):
                ok = ok and count_regions_zaslavsky(a) == len(enumerate_regions(a))
        if route == "descents" and (p is None or self.tracing):
            # The contained regions of a sharp arrangement form an upper set,
            # so only a non-sharp one may decline.  Untraced passes skip
            # the costly sharpness test unless the route declined, so that
            # more passes fit in a run.
            with self.span("faces.sharp"):
                sharp = is_sharp(a)
            ok = ok and (p is not None or not sharp)
            with self.span("weakorder.build"):
                WeakOrder(a, base_region_of(a, v))
        return {"ok": ok, **times,
                "answer": list(p.coeffs) if p is not None else None}

    def series(self, spec, _a):
        """One check on the closed-form series; the answer is what it computed."""
        kind = spec["kind"]
        start, cpu = time.perf_counter(), time.process_time()
        if kind == "coxstats":
            ok, answer = self.statistics(spec["type"], spec["n"])
        elif kind == "real_rooted":
            with self.span("coxstats.stats"):
                p = closed_form(spec["poly"])
            with self.span("roots.real_rooted"):
                answer = is_real_rooted(p)
            ok = answer == spec["expect"]
        elif kind == "interlaces":
            with self.span("coxstats.stats"):
                g, f = closed_form(spec["g"]), closed_form(spec["f"])
            with self.span("roots.interlace"):
                answer = interlaces(g, f)
            ok = answer == spec["expect"]
        else:
            check = generating_function_check if kind == "egf" else \
                binomial_identity_checks
            with self.span("egf.series"):
                ok = answer = check(spec["order"])
        times = SAMPLER.measure(start, time.perf_counter(), time.process_time() - cpu)
        return {"ok": ok, **times, "answer": answer}

    def statistics(self, kind, n):
        """Statistics over the group agree with the closed form."""
        with self.span("coxstats.stats"):
            if kind == "A":
                dists, closed = (peul_a_exc(n), peul_a_des(n)), peul_a(n)
            elif kind == "B":
                dists, closed = (peul_b_excb(n), peul_b_des(n)), peul_b_rec(n)
            else:
                dists, closed = (peul_d_des(n),), peul_d_rec(n)
        self.counts["elements"] += sum(sum(d.coeffs) for d in dists)
        return all(d == closed for d in dists), [list(d.coeffs) for d in dists]


def valid_witness(a, v, witness) -> bool:
    """The declined route's witness is a cover pair leaving the halfspace."""
    c, d = witness
    order = WeakOrder(a, base_region_of(a, v))
    return (d in order.covers_above(c) and region_in_halfspace(a, c, v)
            and not region_in_halfspace(a, d, v))


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    request = json.load(sys.stdin)
    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    child = Child(tracer)
    with child.span("families.build"):
        inputs = [build_input(spec) for _, spec in request["items"]]
    ready = time.perf_counter()
    # Set-up from child start: the snippet's time in it, and the factor to
    # the reference speed; the parent adds the interpreter's start-up.
    spent, _ = SAMPLER.spent(STARTED, ready)
    emit({"ready": time.monotonic(), "setup_snippet_s": spent,
          "setup_scale": SAMPLER.scale(STARTED, ready)[0]})
    if tracer:
        SAMPLER.stop()
    for (index, spec), a in zip(request["items"], inputs):
        runner = child.solve if spec["kind"] == "solve" else child.series
        try:
            result = runner(spec, a)
        except Exception as exc:  # an unexpected exception fails the item
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        emit({"item": index, **result})
    if tracer:
        cache = build_flats.cache_info() if hasattr(build_flats, "cache_info") else None
        emit({"trace": {"spans": tracer.spans, "calls": tracer.calls},
              "counts": child.counts,
              "lattice_cache": [cache.hits, cache.misses] if cache else [0, 0]})
    SAMPLER.stop()
    emit({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    main()
