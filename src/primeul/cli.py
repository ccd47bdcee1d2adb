"""Command-line interface.

Subcommands: poly, verify, table, inspect.  Exit codes: 0 success, 1 failed
check (verify, or a recomputed table row off its golden data), 2 parse
failure, 3 precondition failure (the message names the failed check).
Machine output (--json) carries the coefficient list low degree first.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .arrangement import (Arrangement, build_flats, characteristic_polynomial,
                          count_regions_zaslavsky, halfspace_failure,
                          very_generic_failure)
from .coxstats import (all_signed, binomial_identity_checks, bw_a, cuspidal_sn,
                       des_a, fexc, generating_function_check, half_eulerian,
                       peul_a, peul_a_des, peul_a_exc, peul_b_des,
                       peul_b_diffrec, peul_b_excb, peul_b_rec, peul_d_des,
                       peul_d_rec, peul_dnk)
from .eulerpoly import (UpperSetError, cochar_via_halfspace, cocharacteristic,
                        eulerian_poly, find_very_generic, h_poly_relation_check,
                        peul_from_cochar, primitive_eulerian_descents,
                        primitive_eulerian_mobius, primitive_eulerian_recursive)
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


class PreconditionError(Exception):
    pass


def _load_arrangement(args) -> tuple[Arrangement, str]:
    try:
        if args.family:
            return parse_family(args.family), args.family
        return parse_arrangement_file(Path(args.file).read_text()), args.file
    except DimensionError as exc:
        raise PreconditionError(str(exc)) from None
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


# The routes to each polynomial, as fn(arrangement, v); "auto" names the
# route it takes.  A method not listed is refused with exit 3.
_ROUTES = {
    "peul": {
        "auto": "mobius",
        "mobius": lambda a, v: primitive_eulerian_mobius(a),
        "recursive": lambda a, v: primitive_eulerian_recursive(a),
        "halfspace": lambda a, v: peul_from_cochar(
            cochar_via_halfspace(a, v), build_flats(a).rank),
        "descents": primitive_eulerian_descents,
    },
    "cochar": {
        "auto": "mobius",
        "mobius": lambda a, v: cocharacteristic(a),
        "halfspace": cochar_via_halfspace,
    },
    "char": {"auto": "mobius", "mobius": lambda a, v: characteristic_polynomial(a)},
    "eulerian": {"auto": "descents", "descents": lambda a, v: eulerian_poly(a)},
}


def cmd_poly(args) -> int:
    a, source = _load_arrangement(args)
    v = _parse_v(args, a)
    t0 = time.perf_counter()
    which, routes = args.which, _ROUTES[args.which]
    if args.method not in routes:
        raise PreconditionError(f"method {args.method!r} does not apply to {which}")
    method = routes["auto"] if args.method == "auto" else args.method
    try:
        poly = routes[method](a, v)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
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
        ("hyperplanes", len(a.hyperplanes)),
        ("rank", lattice.rank),
        ("flats_by_grade", ",".join(str(len(g)) for g in lattice.flats_by_grade())),
        ("flats", len(lattice)),
        ("regions", len(fan.packed_regions)),
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


def _check(name: str, ok: bool, failures: list[str]):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


_PATH_BUILTINS = (
    "I2 2", "I2 3", "I2 5", "A 3", "A 4", "A 5", "B 2", "B 3", "B 4",
    "D 3", "D 4", "Dnk 3 1", "Dnk 4 2", "Gn 2", "Gn 3", "Gn 4",
    "graphic 4 1-2,2-3,3-4,4-1",
)


def _verify_paths(args, failures):
    for family in _PATH_BUILTINS:
        a = parse_family(family)
        lattice = build_flats(a)
        if lattice.rank > args.max_rank:
            continue
        p = primitive_eulerian_mobius(a)
        _check(f"paths/{family}/recursive",
               primitive_eulerian_recursive(a) == p, failures)
        psi = cocharacteristic(a)
        _check(f"paths/{family}/cochar-reparam",
               peul_from_cochar(psi, lattice.rank) == p, failures)
        v = find_very_generic(a)
        _check(f"paths/{family}/halfspace",
               cochar_via_halfspace(a, v) == psi, failures)
        if is_simplicial(a):
            try:
                got = primitive_eulerian_descents(a, v)
                _check(f"paths/{family}/descents", got == p, failures)
            except UpperSetError as exc:
                _check(f"paths/{family}/descents ({exc})", False, failures)
            _check(f"paths/{family}/h-transform",
                   h_poly_relation_check(a, v), failures)
        _check(f"paths/{family}/zaslavsky",
               count_regions_zaslavsky(a) == len(enumerate_faces(a).packed_regions),
               failures)
    if args.long:
        b5 = parse_family("B 5")
        _check("paths/B 5/mobius (long)",
               primitive_eulerian_mobius(b5) == TYPE_B[5], failures)
        _check("paths/B 5/descents (long)",
               primitive_eulerian_descents(b5, (1, 2, 4, 8, 16)) == TYPE_B[5],
               failures)


def _verify_recursions(args, failures):
    n = args.nmax
    _check("recursions/B/quadratic-vs-differential",
           all(peul_b_rec(m) == peul_b_diffrec(m) for m in range(n + 1)), failures)
    _check("recursions/B/half-eulerian-reversal",
           all(peul_b_rec(m) == half_eulerian(m).reverse(m - 1) * Z if m else
               peul_b_rec(0) == half_eulerian(0) for m in range(n + 1)), failures)
    _check("recursions/B/table",
           all(peul_b_rec(m) == TYPE_B[m] for m in range(min(n, 5) + 1)), failures)
    _check("recursions/D/table",
           all(peul_d_rec(m) == TYPE_D[m] for m in range(2, min(n + 1, 7) + 1)), failures)
    _check("recursions/D/bw-descents",
           all(peul_d_des(m) == peul_d_rec(m) for m in range(2, min(n, 6) + 1)), failures)
    _check("recursions/Dnk/boundary",
           all(peul_dnk(m, 0) == peul_d_rec(m) and peul_dnk(m, m) == peul_b_rec(m)
               for m in range(2, n + 1)), failures)


def _verify_statistics(args, failures):
    n = args.nmax
    for m in range(1, min(n, 7) + 1):
        _check(f"statistics/A/exc-vs-des/{m}",
               peul_a_exc(m) == peul_a_des(m) == peul_a(m), failures)
    for m in range(1, min(n, 6) + 1):
        _check(f"statistics/B/excb-vs-des/{m}",
               peul_b_excb(m) == peul_b_des(m) == peul_b_rec(m), failures)
    _check("statistics/A/cardinality",
           all(sum(1 for _ in cuspidal_sn(m)) == sum(1 for _ in bw_a(m))
               for m in range(1, min(n, 6) + 1)), failures)
    # Adin-Brenti-Roichman: fexc and fdes = 2 des_a + [w_1 < 0] are equidistributed.
    ok = all(IntPoly.from_counts(map(fexc, all_signed(m))) == IntPoly.from_counts(
        2 * des_a(w) + (w[0] < 0) for w in all_signed(m)) for m in range(1, min(n, 5) + 1))
    _check("statistics/B/fexc-vs-fdes", ok, failures)


def _verify_egf(args, failures):
    _check(f"egf/generating-functions/order{args.order}",
           generating_function_check(args.order), failures)
    _check(f"egf/binomial-identities/order{args.order}",
           binomial_identity_checks(args.order), failures)


def _verify_roots(args, failures):
    rank3 = ("I2 2", "I2 5", "A 3", "A 4", "B 2", "B 3", "D 3", "Gn 2", "Gn 3",
             "graphic 4 1-2,2-3,3-4,4-1")
    ok = all(is_real_rooted(primitive_eulerian_mobius(parse_family(s))) for s in rank3)
    _check("roots/rank3-builtins", ok, failures)
    nmax = args.dn_max
    _check(f"roots/B-rec/{nmax}",
           all(is_real_rooted(peul_b_rec(m)) for m in range(1, nmax + 1)), failures)
    _check(f"roots/D-rec/{nmax}",
           all(is_real_rooted(peul_d_rec(m)) for m in range(2, nmax + 1)), failures)
    _check(f"roots/Dnk/{nmax}",
           all(is_real_rooted(peul_dnk(m, k))
               for m in range(2, nmax + 1) for k in range(m + 1)), failures)
    _check("roots/exceptional-golden",
           all(is_real_rooted(p) for p in EXCEPTIONAL.values()), failures)
    g4 = primitive_eulerian_recursive(parse_family("Gn 4"))
    _check("roots/G4-not-real-rooted", not is_real_rooted(g4), failures)


def cmd_verify(args) -> int:
    failures: list[str] = []
    suites = {
        "paths": _verify_paths,
        "recursions": _verify_recursions,
        "statistics": _verify_statistics,
        "egf": _verify_egf,
        "roots": _verify_roots,
    }
    if args.suite == "all":
        for fn in suites.values():
            fn(args, failures)
    else:
        suites[args.suite](args, failures)
    if failures:
        print(f"FAILED: {len(failures)} failing check(s)")
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
    p_poly.add_argument("--method",
                        choices=("mobius", "recursive", "halfspace", "descents", "auto"),
                        default="auto")
    p_poly.add_argument("--v", help="comma-separated rational vector")
    p_poly.add_argument("--json", action="store_true")
    p_poly.set_defaults(fn=cmd_poly)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("suite",
                          choices=("paths", "recursions", "statistics", "egf",
                                   "roots", "all"))
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
    except (PreconditionError, UpperSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
