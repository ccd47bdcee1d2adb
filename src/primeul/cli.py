"""Command-line interface.

Subcommands: poly, verify, table, inspect.  Exit codes: 0 success, 1 failed
check (verify, or a recomputed table row off its golden data), 2 parse
failure (a ParseError, or an OSError reading --file), 3 precondition failure
(a DimensionError, any ValueError a command raises, whose message names the
failed check, or a MemoryError; also a verify run whose options leave it no
check).  ``main`` is the one place that maps an exception to an exit code.
Machine output (--json) carries the coefficient list low degree first.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .arrangement import (Arrangement, build_flats, characteristic_polynomial,
                          count_regions_zaslavsky, find_very_generic, halfspace_failure,
                          very_generic_failure)
from .coxstats import (all_signed, binomial_identity_checks, des_a, fexc,
                       generating_function_check, half_eulerian, peul_a,
                       peul_a_des, peul_a_exc, peul_b_des, peul_b_excb,
                       peul_b_rec, peul_d_des, peul_d_rec, peul_dnk,
                       quadratic_recursion_checks)
from .eulerpoly import (UpperSetError, cochar_via_halfspace, cocharacteristic,
                        eulerian_poly, peul_from_cochar,
                        primitive_eulerian_descents, primitive_eulerian_mobius,
                        primitive_eulerian_recursive)
from .faces import enumerate_faces, is_sharp, is_simplicial
from .families import (DimensionError, parse_arrangement_file, parse_family,
                       parse_vector, root_system)
from .intpoly import IntPoly, Z
from .roots import is_real_rooted
from .tables import EXCEPTIONAL, GOLDEN_ONLY, LONG_RUNNING, TYPE_B, TYPE_D

EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


class ParseError(Exception):
    pass


def _load_arrangement(args) -> tuple[Arrangement, str]:
    try:
        if args.family:
            return parse_family(args.family), args.family
        return parse_arrangement_file(Path(args.file).read_text()), args.file
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_v(args, arrangement):
    if args.v is None:
        return None
    try:
        v = parse_vector(args.v)
    except ValueError as exc:
        raise ParseError(f"bad vector {args.v!r}: {exc}") from None
    if len(v) != arrangement.dim:
        raise ParseError(f"--v has {len(v)} entries, expected {arrangement.dim}")
    return v


# The routes to each polynomial, as fn(arrangement, v); "auto", last, names
# the route it takes.  The peul keys are the --method choices; a method not
# listed for a polynomial is refused, and so is --v on a route not in
# ``_READS_V``.  ``verify paths`` runs each peul route against the mobius sum.
_ROUTES = {
    "peul": {
        "mobius": lambda a, v: primitive_eulerian_mobius(a),
        "recursive": lambda a, v: primitive_eulerian_recursive(a),
        "halfspace": lambda a, v: peul_from_cochar(
            cochar_via_halfspace(a, v), build_flats(a).rank),
        "descents": primitive_eulerian_descents,
        "auto": "mobius",
    },
    "cochar": {
        "mobius": lambda a, v: cocharacteristic(a),
        "halfspace": cochar_via_halfspace,
        "auto": "mobius",
    },
    "char": {"mobius": lambda a, v: characteristic_polynomial(a), "auto": "mobius"},
    "eulerian": {"descents": lambda a, v: eulerian_poly(a), "auto": "descents"},
}
_READS_V = {("peul", "halfspace"), ("peul", "descents"), ("cochar", "halfspace")}


def cmd_poly(args) -> int:
    a, source = _load_arrangement(args)
    v = _parse_v(args, a)
    t0 = time.perf_counter()
    which, routes = args.which, _ROUTES[args.which]
    if args.method not in routes:
        raise ValueError(f"method {args.method!r} does not apply to {which}")
    method = routes["auto"] if args.method == "auto" else args.method
    if v is not None and (which, method) not in _READS_V:
        raise ParseError(f"{which} by {method} takes no --v")
    poly = routes[method](a, v)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    if args.json:
        print(json.dumps({
            "family": source,
            "which": which,
            "method": method,
            "coeffs_low_to_high": list(poly.coeffs),
            "runtime_ms": elapsed_ms,
        }))
    else:
        print(poly.format("t" if which == "char" else "z"))
    return 0


def cmd_inspect(args) -> int:
    a, source = _load_arrangement(args)
    lattice = build_flats(a)
    fan = enumerate_faces(a)
    lines = [
        ("source", source),
        ("ambient_dim", a.dim),
        ("hyperplanes", len(a.normals)),
        ("rank", lattice.rank),
        ("flats_by_grade", ",".join(str(len(g)) for g in lattice.flats_by_grade())),
        ("flats", len(lattice)),
        ("regions", fan.f_vector()[-1]),
        ("faces_by_grade", ",".join(str(c) for c in fan.f_vector())),
        ("faces", len(fan)),
        ("simplicial", str(is_simplicial(a)).lower()),
        ("sharp", str(is_sharp(a)).lower()),
    ]
    v = _parse_v(args, a)
    if v is not None:
        failure = very_generic_failure(a, v)
        lines.append(("v", ",".join(str(c) for c in v)))
        lines.append(("v_generic", str(failure is None).lower()))
        lines.append(("halfspace_generic", str(halfspace_failure(a, v) is None).lower()))
        if failure is not None:
            lines.append(("very_generic_failure", failure))
    if args.json:
        print(json.dumps(dict(lines)))
    else:
        for key, val in lines:
            print(f"{key}: {val}")
    return 0


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    try:
        if not text:
            return default
        lo, sep, hi = text.partition("..")
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ParseError(f"bad range {text!r}") from None
    if lo > hi:
        raise ParseError(f"bad range {text!r}: {lo} > {hi}")
    return lo, hi


def cmd_table(args) -> int:
    if args.family in ("B", "D"):
        form, first, last = (peul_b_rec, 0, 5) if args.family == "B" else (peul_d_rec, 2, 7)
        lo, hi = _parse_range(args.range, (first, last))
        if lo < first or hi > last:
            raise ParseError(f"type {args.family} table covers {first}..{last}")
        print("n\tpolynomial")
        for n in range(lo, hi + 1):
            print(f"{n}\t{form(n).format()}")
        return 0
    if args.range:
        raise ParseError(f"table exceptional takes no range, got {args.range!r}")
    print("W\tpolynomial\tprovenance")
    for name in ("H3", "H4", "F4", "E6", "E7", "E8"):
        golden = EXCEPTIONAL[name]
        if name in GOLDEN_ONLY:
            note = f"golden ({GOLDEN_ONLY[name]})"
        elif name in LONG_RUNNING and not args.long:
            note = "golden (long tier; pass --long to recompute)"
        else:
            method, route = (("recursive", primitive_eulerian_recursive)
                             if name in LONG_RUNNING else ("mobius", primitive_eulerian_mobius))
            if route(root_system(name)) != golden:
                print(f"error: {name} row disagrees with golden data", file=sys.stderr)
                return EXIT_CHECK
            note = f"computed ({method})"
        print(f"{name}\t{golden.format()}\t{note}")
    return 0


_PATH_BUILTINS = (
    "I2 2", "I2 3", "I2 5", "A 3", "A 4", "A 5", "B 2", "B 3", "B 4",
    "D 3", "D 4", "Dnk 3 1", "Dnk 4 2", "Gn 2", "Gn 3", "Gn 4",
    "graphic 4 1-2,2-3,3-4,4-1",
)


def _verify_paths(args):
    for family in _PATH_BUILTINS:
        a = parse_family(family)
        if build_flats(a).rank > args.max_rank:
            continue
        p, v = primitive_eulerian_mobius(a), find_very_generic(a)
        for method, route in _ROUTES["peul"].items():
            if method in ("mobius", "auto") or method == "descents" and not is_simplicial(a):
                continue
            try:
                check = f"paths/{family}/{method}", route(a, v) == p
            except UpperSetError as exc:
                check = f"paths/{family}/{method} ({exc})", False
            yield check
        yield (f"paths/{family}/zaslavsky",
               count_regions_zaslavsky(a) == enumerate_faces(a).f_vector()[-1])
    if args.long:
        b5 = parse_family("B 5")
        yield "paths/B 5/mobius (long)", primitive_eulerian_mobius(b5) == TYPE_B[5]
        yield ("paths/B 5/descents (long)",
               primitive_eulerian_descents(b5, (1, 2, 4, 8, 16)) == TYPE_B[5])


def _over(name, ms, check):
    """The check ``name``, that check(m) holds for every m in ms; nothing
    when ms is empty, since such a check would pass on nothing."""
    if ms:
        yield name, all(map(check, ms))


def _verify_recursions(args):
    n = args.nmax
    yield "recursions/B/quadratic-vs-differential", quadratic_recursion_checks("B", n)
    yield from _over("recursions/B/half-eulerian-reversal", range(n + 1),
                     lambda m: peul_b_rec(m) == half_eulerian(m).reverse(m - 1) * Z if m
                     else peul_b_rec(0) == half_eulerian(0))
    yield from _over("recursions/B/table", range(min(n, 5) + 1),
                     lambda m: peul_b_rec(m) == TYPE_B[m])
    yield from _over("recursions/D/table", range(2, min(n + 1, 7) + 1),
                     lambda m: peul_d_rec(m) == TYPE_D[m])
    yield from _over("recursions/D/bw-descents", range(2, min(n, 6) + 1),
                     lambda m: peul_d_des(m) == peul_d_rec(m))
    # Like the other D lines, this one starts at m = 2.
    if n >= 2:
        yield "recursions/D/quadratic", quadratic_recursion_checks("D", n)


def _verify_statistics(args):
    n = args.nmax
    for m in range(1, min(n, 7) + 1):
        yield f"statistics/A/exc-vs-des/{m}", peul_a_exc(m) == peul_a_des(m) == peul_a(m)
    for m in range(1, min(n, 6) + 1):
        yield (f"statistics/B/excb-vs-des/{m}",
               peul_b_excb(m) == peul_b_des(m) == peul_b_rec(m))
    # Adin-Brenti-Roichman: fexc and fdes = 2 des_a + [w_1 < 0] are equidistributed.
    yield from _over("statistics/B/fexc-vs-fdes", range(1, min(n, 5) + 1), lambda m: (
        IntPoly.from_counts(map(fexc, all_signed(m))) == IntPoly.from_counts(
            2 * des_a(w) + (w[0] < 0) for w in all_signed(m))))


def _verify_egf(args):
    yield (f"egf/generating-functions/order{args.order}",
           generating_function_check(args.order))
    yield f"egf/binomial-identities/order{args.order}", binomial_identity_checks(args.order)


def _verify_roots(args):
    rank3 = [a for a in map(parse_family, _PATH_BUILTINS) if build_flats(a).rank <= 3]
    yield "roots/rank3-builtins", all(
        is_real_rooted(primitive_eulerian_mobius(a)) for a in rank3)
    nmax = args.dn_max
    yield from _over(f"roots/B-rec/{nmax}", range(1, nmax + 1),
                     lambda m: is_real_rooted(peul_b_rec(m)))
    yield from _over(f"roots/D-rec/{nmax}", range(2, nmax + 1),
                     lambda m: is_real_rooted(peul_d_rec(m)))
    yield from _over(f"roots/Dnk/{nmax}", range(2, nmax + 1),
                     lambda m: all(is_real_rooted(peul_dnk(m, k)) for k in range(m + 1)))
    yield "roots/exceptional-golden", all(is_real_rooted(p) for p in EXCEPTIONAL.values())
    g4 = primitive_eulerian_recursive(parse_family("Gn 4"))
    yield "roots/G4-not-real-rooted", not is_real_rooted(g4)


# The verify suites, in the order "all" runs them.  Each yields (name, ok) for
# its checks in turn; cmd_verify prints them and counts the failures.
_SUITES = {
    "paths": _verify_paths,
    "recursions": _verify_recursions,
    "statistics": _verify_statistics,
    "egf": _verify_egf,
    "roots": _verify_roots,
}


def cmd_verify(args) -> int:
    checks = failures = 0
    for suite in _SUITES if args.suite == "all" else (args.suite,):
        for name, ok in _SUITES[suite](args):
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            checks, failures = checks + 1, failures + (not ok)
    if not checks:
        raise ValueError(f"verify {args.suite} ran no check: every range is empty")
    if failures:
        print(f"FAILED: {failures} failing check(s)")
        return EXIT_CHECK
    print("OK: all checks passed")
    return 0


def _nonnegative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeul",
        description="Eulerian-type polynomials of central hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--family", help='family DSL string, e.g. "B 3"')
        group.add_argument("--file", help="arrangement file path")

    p_poly = sub.add_parser("poly", help="compute a polynomial")
    add_source(p_poly)
    p_poly.add_argument("--which", choices=tuple(_ROUTES), default="peul")
    p_poly.add_argument("--method", choices=tuple(_ROUTES["peul"]), default="auto")
    p_poly.add_argument("--v", help="comma-separated rational vector")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(fn=cmd_poly)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("suite", choices=(*_SUITES, "all"))
    p_verify.add_argument("--max-rank", type=_nonnegative_int, default=3, dest="max_rank")
    p_verify.add_argument("--nmax", type=_nonnegative_int, default=6)
    p_verify.add_argument("--order", type=_nonnegative_int, default=6)
    p_verify.add_argument("--dn-max", type=_nonnegative_int, default=30, dest="dn_max")
    p_verify.add_argument("--long", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_table = sub.add_parser("table", help="print a polynomial table")
    p_table.add_argument("family", choices=("B", "D", "exceptional"))
    p_table.add_argument("range", nargs="?", default="")
    p_table.add_argument("--long", action="store_true")
    p_table.set_defaults(fn=cmd_table)

    p_inspect = sub.add_parser("inspect", help="structural report")
    add_source(p_inspect)
    p_inspect.add_argument("--v", help="comma-separated rational vector")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse in Python 3.11 hands an explicit "--v=--" over as [], not "--".
    for key, val in list(vars(args).items()):
        if val == []:
            setattr(args, key, "--")
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
