import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primeul
from primeul.cli import main
from primeul.intpoly import IntPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_b3(capsys):
    code, out, _ = run(capsys, "poly", "--family", "B 3", "--which", "peul")
    assert code == 0
    assert out.strip() == "z^3 + 10z^2 + 4z"


def test_poly_i25(capsys):
    code, out, _ = run(capsys, "poly", "--family", "I2 5", "--which", "peul")
    assert code == 0
    assert out.strip() == "z^2 + 3z"


def test_poly_char_from_file(tmp_path, capsys):
    path = tmp_path / "fourcycle.arr"
    path.write_text("4\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n1 0 0 -1\n")
    code, out, _ = run(capsys, "poly", "--file", str(path), "--which", "char")
    assert code == 0
    assert out.strip() == "t^4 - 4t^3 + 6t^2 - 3t"


def test_poly_methods_agree(capsys):
    results = []
    for method in ("mobius", "recursive", "halfspace", "descents"):
        code, out, _ = run(capsys, "poly", "--family", "B 2",
                           "--method", method, "--json")
        assert code == 0
        results.append(json.loads(out)["coeffs_low_to_high"])
    assert all(r == results[0] for r in results)


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "poly", "--family", "D 3", "--json")
    data = json.loads(out)
    assert data["family"] == "D 3"
    assert data["which"] == "peul"
    assert IntPoly(tuple(data["coeffs_low_to_high"])) == IntPoly((0, 1, 4, 1))
    assert isinstance(data["runtime_ms"], int)


def test_json_deterministic_apart_from_runtime(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "poly", "--family", "B 2", "--json")
        data = json.loads(out)
        data.pop("runtime_ms")
        outs.append(data)
    assert outs[0] == outs[1]


def test_parse_failure_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "poly", "--family", "Q 3")
    assert code == 2
    assert "family" in err
    for command in ("poly", "inspect"):
        for v in ("1/0", "1e10000000", "--"):
            code, _, err = run(capsys, command, "--family", "B 3", f"--v={v}")
            assert code == 2
            assert err.startswith("error: bad vector")
    path = tmp_path / "zero.arr"
    path.write_text("2\n1/0 1\n")
    code, _, err = run(capsys, "poly", "--file", str(path))
    assert code == 2
    assert "zero denominator" in err
    for option in ("--family=--", "--file=--"):
        code, _, err = run(capsys, "poly", option)
        assert code == 2
        assert err.startswith("error: ")


def test_poly_refuses_v_on_a_route_that_ignores_it(capsys):
    # Only the halfspace and descents routes to P and the halfspace route to
    # the cocharacteristic polynomial read v; every other route dropped it
    # and printed its polynomial with exit 0.
    for which, method, argv in [("peul", "mobius", ()), ("peul", "mobius", ("--method", "mobius")),
                                ("peul", "recursive", ("--method", "recursive")),
                                ("char", "mobius", ("--which", "char")),
                                ("cochar", "mobius", ("--which", "cochar", "--method", "mobius")),
                                ("eulerian", "descents", ("--which", "eulerian"))]:
        code, out, err = run(capsys, "poly", "--family", "B 3", *argv, "--v", "1,2,4")
        assert (code, out) == (2, ""), argv
        assert err == f"error: {which} by {method} takes no --v\n"
    for argv in (("--method", "halfspace"), ("--method", "descents"),
                 ("--which", "cochar", "--method", "halfspace")):
        code, out, _ = run(capsys, "poly", "--family", "B 3", *argv, "--v", "1,2,4")
        assert code == 0 and out, argv


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "poly", "--file", "/nonexistent.arr")
    assert code == 2


def test_precondition_exit_3_nonsimplicial(capsys):
    code, _, err = run(capsys, "poly", "--family", "Gn 4",
                       "--which", "peul", "--method", "descents")
    assert code == 3
    assert "simplicial" in err


def test_precondition_exit_3_bad_vector(capsys):
    code, _, err = run(capsys, "poly", "--family", "B 2",
                       "--method", "descents", "--v", "1,1")
    assert code == 3
    assert "not very generic" in err


def test_out_of_memory_exit_3():
    # "I2 100000000" builds 10^8 normals in dimension 2, under the dimension
    # limit; with the child's address space capped at 512 MiB it runs out
    # of memory, which is reported in one line with exit 3, no traceback.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    start = time.perf_counter()
    done = python("-m", "primeul", "poly", "--family", "I2 100000000", preexec_fn=cap)
    assert time.perf_counter() - start < 10
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory\n")


def test_oversized_dimension_exit_3(capsys, tmp_path):
    # A basis of the minimum flat holds dim**2 entries: refused up front.
    path = tmp_path / "big.arr"
    for text, dim in (("20000\n", 20000), (" 4_1747\n", 41747)):
        path.write_text(text)
        for argv in (("inspect",), ("poly", "--which", "char")):
            code, out, err = run(capsys, *argv, "--file", str(path))
            assert (code, out) == (3, "")
            assert err == f"error: ambient dimension {dim} exceeds the limit of 1000\n"
    path.write_text("1000\n")
    code, out, _ = run(capsys, "poly", "--file", str(path), "--which", "char")
    assert (code, out) == (0, "t^1000\n")
    # Family strings are refused before their builder makes any hyperplane.
    for family in ("A 1200", "B 1200", "D 1200", "Dnk 1200 3", "Gn 1200",
                   "graphic 1200 1-2", "B 100000000"):
        n = family.split()[1]
        code, out, err = run(capsys, "inspect", "--family", family)
        assert (code, out) == (3, "")
        assert err == f"error: ambient dimension {n} exceeds the limit of 1000\n"


def test_method_that_does_not_apply_exit_3(capsys):
    refused = [("char", m) for m in ("recursive", "halfspace", "descents")]
    refused += [("eulerian", m) for m in ("mobius", "recursive", "halfspace")]
    refused += [("cochar", m) for m in ("recursive", "descents")]
    for which, method in refused:
        code, out, err = run(capsys, "poly", "--family", "B 2",
                             "--which", which, "--method", method)
        assert code == 3 and out == ""
        assert err == f"error: method {method!r} does not apply to {which}\n"
    accepted = [("char", "auto"), ("char", "mobius"), ("eulerian", "auto"),
                ("eulerian", "descents"), ("cochar", "halfspace")]
    for which, method in accepted:
        code, out, _ = run(capsys, "poly", "--family", "B 2", "--which", which,
                           "--method", method, "--json")
        assert code == 0
        assert json.loads(out)["method"] == method.replace(
            "auto", "mobius" if which == "char" else "descents")


def test_inspect(capsys):
    code, out, _ = run(capsys, "inspect", "--family", "B 3")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["hyperplanes"] == "9"
    assert lines["regions"] == "48"
    assert lines["simplicial"] == "true"
    assert lines["sharp"] == "true"


def test_inspect_nonsimplicial(capsys):
    code, out, _ = run(capsys, "inspect", "--family",
                       "graphic 4 1-2,2-3,3-4,4-1")
    assert code == 0
    assert "simplicial: false" in out


def test_inspect_wall_vector(capsys):
    code, out, _ = run(capsys, "inspect", "--family", "A 4",
                       "--v=-1,-1,-1,3")
    assert code == 0
    assert "v_generic: false" in out
    assert "halfspace_generic: true" in out
    assert "v lies on the hyperplane" in out


def test_table_b(capsys):
    code, out, _ = run(capsys, "table", "B", "0..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tpolynomial"
    assert lines[4] == "3\tz^3 + 10z^2 + 4z"
    assert lines[6] == "5\tz^5 + 116z^4 + 516z^3 + 296z^2 + 16z"


def test_table_d(capsys):
    code, out, _ = run(capsys, "table", "D", "2..7")
    assert code == 0
    assert "7\tz^7 + 862z^6 + 11824z^5 + 28064z^4 + 18404z^3 + 3158z^2 + 57z" \
        in out


def test_table_range_validation(capsys):
    for family, text in (("B", "0..9"), ("B", "3..1"), ("D", "7..2")):
        code, out, _ = run(capsys, "table", family, text)
        assert code == 2
        assert out == ""


def test_table_exceptional_refuses_a_range(capsys):
    # The table has no range: one given was ignored, and the whole table
    # printed with exit 0.
    for text in ("nonsense", "0..3"):
        code, out, err = run(capsys, "table", "exceptional", text)
        assert (code, out) == (2, "")
        assert err == f"error: table exceptional takes no range, got {text!r}\n"


def test_table_exceptional(capsys):
    code, out, _ = run(capsys, "table", "exceptional")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("H4" in l and "golden (irrational realization out of scope)" in l
               for l in lines)
    assert any("F4" in l and "computed" in l for l in lines)
    assert any("E7" in l and "--long" in l for l in lines)
    assert "z^4 + 1316z^3 + 3844z^2 + 900z" in out


def test_table_exceptional_long_recomputes_e7_only(capsys, monkeypatch):
    # --long recomputes E7 by the recursive route and never builds E8
    from primeul import cli
    from primeul.tables import EXCEPTIONAL
    built, solved = [], []

    def root_system(name):
        built.append(name)
        return name

    def recursive(a):
        solved.append(a)
        return EXCEPTIONAL[a]

    monkeypatch.setattr(cli, "root_system", root_system)
    monkeypatch.setattr(cli, "primitive_eulerian_recursive", recursive)
    monkeypatch.setattr(cli, "primitive_eulerian_mobius", EXCEPTIONAL.get)
    code, out, _ = run(capsys, "table", "exceptional", "--long")
    assert code == 0
    assert (built, solved) == (["F4", "E6", "E7"], ["E7"])
    lines = out.strip().splitlines()
    assert lines[5].startswith("E7\t") and lines[5].endswith("\tcomputed (recursive)")
    assert lines[6].startswith("E8\t") and lines[6].endswith(
        "\tgolden (lattice too large to recompute)")


# cli.main, then the process's own peak resident size (VmHWM) on stderr;
# ru_maxrss would carry the parent's peak across fork and exec.
_MAIN_WITH_PEAK = """\
import sys
from primeul.cli import main
code = main(sys.argv[1:])
print(*(line for line in open("/proc/self/status") if line.startswith("VmHWM:")),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.long
def test_table_exceptional_long_within_a_minute():
    # E7 by the recursive route within the desk budget: 60 s wall, 600 MB.
    done = python("-c", _MAIN_WITH_PEAK, "table", "exceptional", "--long")
    assert done.returncode == 0, done.stderr
    assert "computed (recursive)" in done.stdout
    peak_kb = int(re.search(r"VmHWM:\s*(\d+) kB", done.stderr).group(1))
    assert peak_kb < 600 * 1024, peak_kb


@pytest.mark.long
@pytest.mark.parametrize("method, bound_mb", [("descents", 450), ("halfspace", 500)])
def test_poly_d7_geometric_within_memory(method, bound_mb):
    # D7's fan has 4,364,979 faces; both geometric routes give the golden
    # row within their peak resident size.
    from primeul.tables import TYPE_D

    done = python("-c", _MAIN_WITH_PEAK, "poly", "--family", "D 7", "--method", method)
    assert done.returncode == 0, done.stderr
    assert done.stdout == TYPE_D[7].format("z") + "\n"
    peak_kb = int(re.search(r"VmHWM:\s*(\d+) kB", done.stderr).group(1))
    assert peak_kb < bound_mb * 1024, peak_kb


@pytest.mark.long
def test_verify_roots_dn_max_60_within_15_s():
    # B_n, D_n and every D_{n,k} up to degree 60 are certified by sign
    # changes; Sturm runs only where no certificate is found.
    start = time.monotonic()
    done = python_m("verify", "roots", "--dn-max", "60")
    wall = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    *checks, last = done.stdout.splitlines()
    assert checks and all(line.startswith("PASS ") for line in checks), done.stdout
    assert last == "OK: all checks passed"
    assert wall < 15, wall


def test_table_exceptional_golden_mismatch_exit_1(capsys, monkeypatch):
    from primeul import tables
    monkeypatch.setitem(tables.EXCEPTIONAL, "F4", IntPoly((0, 1)))
    code, out, err = run(capsys, "table", "exceptional")
    assert code == 1
    assert "F4 row disagrees with golden data" in err
    assert "Traceback" not in err
    assert "E6" not in out


def test_verify_success_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "recursions", "--nmax", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_egf(capsys):
    code, out, _ = run(capsys, "verify", "egf", "--order", "4")
    assert code == 0
    assert "PASS egf/generating-functions/order4" in out


def test_verify_roots_small(capsys):
    code, out, _ = run(capsys, "verify", "roots", "--dn-max", "6")
    assert code == 0
    assert "PASS roots/G4-not-real-rooted" in out


def test_verify_failing_check_exit_1(capsys, monkeypatch):
    # A failing check prints FAIL, the suite runs on, and the count decides.
    from primeul import tables
    monkeypatch.setitem(tables.TYPE_B, 3, IntPoly((0, 1)))
    code, out, err = run(capsys, "verify", "recursions", "--nmax", "4")
    assert code == 1
    assert out.splitlines() == [
        "PASS recursions/B/quadratic-vs-differential",
        "PASS recursions/B/half-eulerian-reversal",
        "FAIL recursions/B/table",
        "PASS recursions/D/table",
        "PASS recursions/D/bw-descents",
        "PASS recursions/D/quadratic",
        "FAILED: 1 failing check(s)",
    ]
    assert "Traceback" not in err


def test_verify_paths_reports_upper_set_failure(capsys, monkeypatch):
    from primeul import cli
    from primeul.eulerpoly import UpperSetError

    def refuse(a, v):
        raise UpperSetError((0, 1), str)

    monkeypatch.setitem(cli._ROUTES["peul"], "descents", refuse)
    code, out, err = run(capsys, "verify", "paths", "--max-rank", "2")
    assert code == 1 and "Traceback" not in err
    # Every simplicial family fails its descents check and runs on.
    lines = out.splitlines()
    simplicial = [line.split("/")[1] for line in lines if "/descents" in line]
    assert "B 2" in simplicial
    assert [line for line in lines if line.startswith("FAIL ")] == [
        f"FAIL paths/{family}/descents (regions in the halfspace are not an upper "
        f"set: region 0 is inside but its cover 1 is not)" for family in simplicial]
    assert lines[-1] == f"FAILED: {len(simplicial)} failing check(s)"


def _paths_checks(capsys, *options):
    """{family: [method, ...]} in the order ``verify paths`` reports them."""
    code, out, err = run(capsys, "verify", "paths", *options)
    checks = {}
    for line in out.splitlines()[:-1]:
        _, family, method = line.split(" ", 1)[1].split("/")
        checks.setdefault(family, []).append(method)
    return code, out, err, checks


def test_verify_paths_runs_the_route_table(capsys):
    # verify paths runs the routes poly --method runs, each against mobius.
    from primeul.cli import _PATH_BUILTINS, _ROUTES
    from primeul.families import parse_family
    from primeul.faces import is_simplicial

    code, _, _, checks = _paths_checks(capsys, "--max-rank", "4")
    assert code == 0 and list(checks) == list(_PATH_BUILTINS)
    for family, methods in checks.items():
        routes = [m for m in _ROUTES["peul"] if m not in ("mobius", "auto")]
        if not is_simplicial(parse_family(family)):
            routes.remove("descents")
        assert methods == routes + ["zaslavsky"], family


@pytest.mark.parametrize("method", ["recursive", "halfspace", "descents"])
def test_verify_paths_fails_each_wrong_route(capsys, monkeypatch, method):
    # A route off the mobius sum by one fails its own lines and no other.
    from primeul import cli
    monkeypatch.setitem(cli._ROUTES["peul"], method,
                        lambda a, v: cli.primitive_eulerian_mobius(a) + 1)
    code, out, err, checks = _paths_checks(capsys, "--max-rank", "3")
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1 and "Traceback" not in err
    assert failed == [f"FAIL paths/{family}/{method}"
                      for family, methods in checks.items() if method in methods]
    assert len(failed) >= 10 and out.splitlines()[-1] == f"FAILED: {len(failed)} failing check(s)"


def test_verify_statistics_fails_on_a_short_cuspidal_set(capsys, monkeypatch):
    # The element count of cuspidal_sn is checked by the exc-vs-des lines.
    from primeul import coxstats
    cuspidal_sn = coxstats.cuspidal_sn
    monkeypatch.setattr(coxstats, "cuspidal_sn", lambda n: list(cuspidal_sn(n))[1:])
    code, out, _ = run(capsys, "verify", "statistics", "--nmax", "4")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL statistics/A/exc-vs-des/{m}" for m in range(1, 5)]


@pytest.mark.parametrize("argv, names", [
    # D/table, D/bw-descents and D/quadratic start at m = 2.
    (("recursions", "--nmax", "0"), ("recursions/B/quadratic-vs-differential",
                                     "recursions/B/half-eulerian-reversal",
                                     "recursions/B/table")),
    # D-rec and Dnk start at m = 2.
    (("roots", "--dn-max", "1"), ("roots/rank3-builtins", "roots/B-rec/1",
                                  "roots/exceptional-golden", "roots/G4-not-real-rooted")),
])
def test_verify_omits_checks_over_empty_ranges(capsys, argv, names):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert out.splitlines() == [f"PASS {name}" for name in names] + ["OK: all checks passed"]


@pytest.mark.parametrize("argv", [("statistics", "--nmax", "0"), ("paths", "--max-rank", "1")])
def test_verify_with_no_check_exit_3(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (3, "")
    assert err == f"error: verify {argv[0]} ran no check: every range is empty\n"


def test_verify_all_is_the_suite_table(capsys):
    from primeul.cli import _SUITES, build_parser
    options = ("--max-rank", "2", "--nmax", "3", "--order", "3", "--dn-max", "4")

    def passed(suite):
        code, out, _ = run(capsys, "verify", suite, *options)
        assert code == 0
        return [line for line in out.splitlines() if line.startswith("PASS ")]

    assert passed("all") == [line for suite in _SUITES for line in passed(suite)]
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    (suite,) = [action for action in sub.choices["verify"]._actions
                if action.dest == "suite"]
    assert suite.choices == (*_SUITES, "all")


def test_negative_bounds_exit_2(capsys):
    for suite, option in (("egf", "--order"), ("recursions", "--nmax"),
                          ("roots", "--dn-max"), ("paths", "--max-rank")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, option, "-1"])
        assert exc.value.code == 2, (suite, option)
        assert f"argument {option}: must be >= 0" in capsys.readouterr().err


def python(*args, **kwargs):
    """``python *args`` on this package's sources, at most 60 s; kwargs go
    to ``subprocess.run``."""
    src = str(Path(primeul.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60, **kwargs)


def python_m(*argv):
    """``python -m primeul *argv`` on this package's sources, at most 60 s."""
    return python("-m", "primeul", *argv)


def test_python_dash_m_runs_the_cli():
    # The package runs as a module without an installed console script.
    done = python_m("poly", "--family", "B 3")
    assert (done.returncode, done.stdout) == (0, "z^3 + 10z^2 + 4z\n")
    done = python_m("poly", "--family", "A 0")
    assert done.returncode == 2
    assert "braid needs n >= 1" in done.stderr
