import importlib.util
import sys
from itertools import permutations, product
from math import factorial

import pytest

from primeul.coxstats import (_cycles, _negative_rtl_maxima, all_signed,
                              binomial_identity_checks, bw_a, bw_b, bw_d,
                              cuspidal_bn, cuspidal_sn, des_a, des_b, des_d,
                              eulerian_a, eulerian_b, exc, exc_b,
                              fexc, fneg, generating_function_check,
                              half_eulerian, peul_a, peul_a_des, peul_a_exc,
                              peul_b_des, peul_b_excb, peul_b_rec,
                              peul_d_des, peul_d_rec, peul_dnk,
                              quadratic_recursion_checks)
from primeul import coxstats
from primeul.intpoly import IntPoly, ONE, Z, ZERO
from primeul.tables import TYPE_B, TYPE_D


def test_statistics_on_examples():
    # w = 2 4 1 3 5 (the cycle (1 2 4 3)(5)) has excedances at 1 and 2
    assert exc((2, 4, 1, 3, 5)) == 2
    # balanced 3-cycle [1 2 3] has window 2 3 -1
    w = (2, 3, -1)
    assert exc(w) == 2 and fneg(w) == 1 and fexc(w) == 5 and exc_b(w) == 3
    assert des_b((-1, -2, -3)) == 3
    assert des_b((2, 1, -3)) == 2
    # the unique top-descent element of the type D set on three letters
    assert des_d((1, -2, -3)) == 3
    assert des_d((1, -3, -2)) == 2
    with pytest.raises(ValueError):
        des_d((1,))


def signed_cycles(w):
    """Orbits of w on {-n..-1, 1..n}, each orbit a frozenset."""
    n = len(w)

    def image(i: int) -> int:
        return w[i - 1] if i > 0 else -w[-i - 1]

    seen = set()
    out = []
    for start in range(1, n + 1):
        for s in (start, -start):
            if s in seen:
                continue
            orbit = set()
            i = s
            while i not in orbit:
                orbit.add(i)
                i = image(i)
            seen |= orbit
            out.append(frozenset(orbit))
    return out


def is_balanced_cycle(orbit: frozenset) -> bool:
    return orbit == frozenset(-x for x in orbit)


def test_cycle_decomposition():
    # window -1 2 -4 -3 -6 -7 -5 decomposes as [1]((2))((3 -4))[5 -6 7]
    w = (-1, 2, -4, -3, -6, -7, -5)
    cycles = signed_cycles(w)
    balanced = [c for c in cycles if is_balanced_cycle(c)]
    paired = [c for c in cycles if not is_balanced_cycle(c)]
    assert sorted(len(c) for c in balanced) == [2, 6]
    assert sorted(len(c) for c in paired) == [1, 1, 2, 2]
    assert list(_cycles(w)) == [(1, -1), (1, 1), (2, 1), (3, -1)]


def test_cycles_against_signed_orbits():
    # A cycle of |w| of length L with sign product -1 is one balanced orbit
    # of size 2L; with +1 it is two orbits of size L, each the other's
    # negative, counted once here by the one holding its least letter.
    for n in range(7):
        for w in all_signed(n):
            orbits = [(len(o) // 2, -1) if is_balanced_cycle(o) else (len(o), 1)
                      for o in signed_cycles(w)
                      if is_balanced_cycle(o) or min(o, key=abs) > 0]
            assert sorted(_cycles(w)) == sorted(orbits), w


def test_cuspidal_counts():
    assert sum(1 for _ in cuspidal_sn(4)) == 6
    assert sum(1 for _ in cuspidal_bn(3)) == 15
    assert list(cuspidal_bn(1)) == [(-1,)]
    # n = 0: the one (empty) element, as in all_signed(0)
    assert list(cuspidal_sn(0)) == list(cuspidal_bn(0)) == list(all_signed(0)) == [()]
    for n in range(1, 6):
        assert sum(1 for _ in cuspidal_sn(n)) == factorial(n - 1)


def long_cycles(n):
    """Reference for cuspidal_sn: the permutations of 1..n whose cycle
    through 1 has length n, by walking the cycles of each one."""
    return [w for w in permutations(range(1, n + 1)) if not n or next(_cycles(w))[0] == n]


def test_cuspidal_sn_against_filter():
    for n in range(9):
        elements = list(cuspidal_sn(n))
        assert len(elements) == len(set(elements))
        assert set(elements) == set(long_cycles(n)), n


def test_bw_counts():
    assert sum(1 for _ in bw_a(4)) == 6
    assert sum(1 for _ in bw_b(3)) == 15
    assert sum(1 for _ in bw_d(3)) == 6
    assert list(bw_a(0)) == list(bw_b(0)) == [()]
    for n in range(1, 6):
        assert sum(1 for _ in bw_a(n)) == factorial(n - 1)
    for n in range(1, 5):
        assert sum(1 for _ in bw_b(n)) == sum(1 for _ in cuspidal_bn(n))


def test_type_a_distributions():
    assert peul_a_exc(4) == IntPoly((0, 1, 4, 1))
    assert peul_a_des(4) == IntPoly((0, 1, 4, 1))
    assert peul_a_exc(1) == ONE
    for n in range(8):
        assert peul_a_exc(n) == peul_a_des(n) == peul_a(n)


def test_type_b_distributions():
    assert peul_b_excb(3) == IntPoly((0, 4, 10, 1))
    for n in range(7):
        assert peul_b_excb(n) == peul_b_des(n) == peul_b_rec(n)


def test_type_b_distributions_n7():
    assert peul_b_excb(7) == peul_b_des(7) == peul_b_rec(7)


def test_type_b_table():
    assert peul_b_des(4) == TYPE_B[4]
    for n, poly in TYPE_B.items():
        assert peul_b_rec(n) == poly


def test_type_d_table():
    assert peul_d_des(4) == TYPE_D[4]
    assert peul_d_des(7) == TYPE_D[7]
    for n, poly in TYPE_D.items():
        assert peul_d_rec(n) == poly
    for n in range(2, 7):
        assert peul_d_des(n) == peul_d_rec(n)


def test_eulerian_polynomials():
    assert eulerian_a(3) == IntPoly((1, 4, 1))
    assert eulerian_b(2) == IntPoly((1, 6, 1))
    # direct descent counts over the signed permutations of up to five letters
    from collections import Counter

    for n in range(6):
        assert IntPoly.from_counts(map(des_b, all_signed(n))) == eulerian_b(n), n
    dist_a = Counter(des_a(w) for w in __import__("itertools").permutations((1, 2, 3)))
    assert eulerian_a(3) == IntPoly(tuple(dist_a[k] for k in range(3)))


def test_peul_a_is_shifted_eulerian():
    for n in range(2, 9):
        assert peul_a(n) == Z * eulerian_a(n - 1)
    assert peul_a(1) == ONE
    assert peul_a(0) == ONE


SEQUENCES = ("eulerian_a", "eulerian_b", "peul_a", "peul_b_rec", "peul_d_rec")


def _fresh_coxstats():
    """Another instance of the module, whose sequences start with empty memos."""
    spec = importlib.util.find_spec("primeul.coxstats")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("name", SEQUENCES)
def test_sequence_terms_do_not_depend_on_order_asked(name):
    top = 40
    descending = getattr(_fresh_coxstats(), name)
    ascending = getattr(_fresh_coxstats(), name)
    # Asked from the top on an empty memo, a sequence that recursed on n
    # would go about 2 * top frames deep; under this limit it must not.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        down = [descending(n) for n in range(top, -1, -1)]
    finally:
        sys.setrecursionlimit(limit)
    assert down[::-1] == [ascending(n) for n in range(top + 1)]
    with pytest.raises(ValueError, match="n >= 0 required"):
        descending(-1)


def test_closed_forms_take_a_bounded_number_of_products(monkeypatch):
    # On empty memos, each term of peul_b_rec and peul_d_rec costs at most
    # 8 polynomial products, where the paper's quadratic recursions need
    # O(n).  int * IntPoly reaches __rmul__, so both names are wrapped.
    calls = 0
    product_of = IntPoly.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return product_of(self, other)

    fresh = _fresh_coxstats()
    monkeypatch.setattr(IntPoly, "__mul__", counted)
    monkeypatch.setattr(IntPoly, "__rmul__", counted)
    top = 60
    fresh.peul_b_rec(top)
    fresh.peul_d_rec(top)
    assert 0 < calls <= 8 * 2 * top


@pytest.mark.parametrize("distribution",
                         (peul_a_exc, peul_a_des, peul_b_excb, peul_b_des))
def test_statistic_distributions_refuse_negative_n(distribution):
    with pytest.raises(ValueError, match="n >= 0 required"):
        distribution(-1)


def test_fexc_equidistributed_with_fdes():
    # Adin-Brenti-Roichman: over signed permutations, the flag excedance
    # 2 exc + fneg has the distribution of fdes = 2 des_a + [w_1 < 0].
    for n in range(1, 6):
        fdes = IntPoly.from_counts(2 * des_a(w) + (w[0] < 0) for w in all_signed(n))
        assert IntPoly.from_counts(map(fexc, all_signed(n))) == fdes, n


def test_dnk_reversal_form():
    # P_{D_{n,k}} = P_{B_n} - (n-k) z^n P_{B_{n-1}}(1/z), every k.
    for n in range(1, 31):
        rev = Z * peul_b_rec(n - 1).reverse(n - 1)
        for k in range(n + 1):
            assert peul_dnk(n, k) == peul_b_rec(n) - (n - k) * rev, (n, k)


def test_dnk_boundaries():
    for n in range(1, 9):
        assert peul_dnk(n, n) == peul_b_rec(n)
    for n in range(2, 9):
        assert peul_dnk(n, 0) == peul_d_rec(n)
    assert peul_dnk(1, 1) == Z
    with pytest.raises(ValueError):
        peul_dnk(3, 5)


def inversion_sequences_2(n: int):
    """Reference for half_eulerian: all integer sequences with
    0 <= e_i <= 2(i-1)."""
    return product(*(range(2 * i + 1) for i in range(n)))


def asc_2(e) -> int:
    """Ascents of a 2-inversion sequence: e_i/(2i-1) < e_{i+1}/(2i+1),
    compared exactly by cross-multiplication."""
    return sum(1 for i in range(len(e) - 1)
               if e[i] * (2 * i + 3) < e[i + 1] * (2 * i + 1))


def test_half_eulerian():
    assert half_eulerian(0) == ONE
    assert half_eulerian(1) == ONE  # the single sequence (0)
    assert half_eulerian(2) == IntPoly((1, 2))
    assert half_eulerian(3) == IntPoly((1, 10, 4))
    assert sum(1 for _ in inversion_sequences_2(4)) == 105  # (2n-1)!!
    assert asc_2((0, 1, 2)) == 2
    assert asc_2((0, 0, 0)) == 0
    with pytest.raises(ValueError, match="n >= 0 required"):
        half_eulerian(-1)


def test_half_eulerian_against_enumeration():
    for n in range(8):
        assert half_eulerian(n) == IntPoly.from_counts(
            map(asc_2, inversion_sequences_2(n))), n


def test_half_eulerian_reversal():
    for n in range(1, 41):
        assert half_eulerian(n).reverse(n - 1) * Z == peul_b_rec(n), n
    assert half_eulerian(0) == peul_b_rec(0)


@pytest.mark.parametrize("family", "BD")
def test_quadratic_recursions_hold(family):
    assert quadratic_recursion_checks(family, 60)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("family, name", [("B", "peul_b_rec"), ("D", "peul_d_rec")])
def test_quadratic_recursions_reject_a_changed_term(monkeypatch, family, name, n):
    # As below: the terms used are computed before patching, so the
    # changed term stays out of the memo.
    original = getattr(coxstats, name)
    for sequence in (peul_a, peul_b_rec, peul_d_rec):
        sequence(12)
    monkeypatch.setattr(coxstats, name,
                        lambda k: original(k) + (Z ** 2 if k == n else ZERO))
    assert not quadratic_recursion_checks(family, 6)


def test_binomial_identities():
    for nmax in range(13):
        assert binomial_identity_checks(nmax), nmax


def test_generating_functions():
    for order in range(13):
        assert generating_function_check(order), order


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("name", ["peul_a", "peul_b_rec", "peul_d_rec"])
def test_generating_functions_reject_a_changed_term(monkeypatch, name, n):
    # The sequences are memoized and recurse through their module names:
    # computing every term used before patching keeps a changed term out
    # of the memo, so it cannot leak into later tests.
    original = getattr(coxstats, name)
    for sequence in (peul_a, peul_b_rec, peul_d_rec):
        sequence(12)
    monkeypatch.setattr(coxstats, name,
                        lambda k: original(k) + (Z ** 2 if k == n else ZERO))
    assert not generating_function_check(6)


def all_even_signed(n):
    return [w for w in all_signed(n) if fneg(w) % 2 == 0]


def bw_d_filter(n):
    """Reference for bw_d: the even signed permutations with |w_1| != n whose
    right-to-left maxima are negative."""
    return [w for w in all_even_signed(n) if abs(w[0]) != n and _negative_rtl_maxima(w)]


def test_even_signed_enumeration():
    assert len(all_even_signed(3)) == 24
    assert all(fneg(w) % 2 == 0 for w in all_even_signed(3))


def test_bw_d_against_filter():
    for n in range(2, 8):
        assert list(bw_d(n)) == bw_d_filter(n), n
