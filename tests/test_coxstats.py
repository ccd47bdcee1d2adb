import importlib.util
import sys
from itertools import permutations
from math import factorial

import pytest

from primeul.coxstats import (_cycles, all_even_signed, all_signed, asc_2,
                              binomial_identity_checks, bw_a, bw_b, bw_d,
                              cuspidal_bn, cuspidal_sn, des_a, des_b, des_d,
                              eulerian_a, eulerian_b, exc, exc_b,
                              fexc, fneg, generating_function_check,
                              half_eulerian, inversion_sequences_2, peul_a,
                              peul_a_des, peul_a_exc, peul_b_des,
                              peul_b_diffrec, peul_b_excb, peul_b_rec,
                              peul_d_des, peul_d_rec, peul_dnk)
from primeul.intpoly import IntPoly, ONE, Z
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
        assert peul_b_diffrec(n) == poly


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


SEQUENCES = ("eulerian_a", "eulerian_b", "peul_a", "peul_b_rec",
             "peul_b_diffrec", "peul_d_rec")


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


def test_dnk_boundaries():
    for n in range(1, 9):
        assert peul_dnk(n, n) == peul_b_rec(n)
    for n in range(2, 9):
        assert peul_dnk(n, 0) == peul_d_rec(n)
    assert peul_dnk(1, 1) == Z
    with pytest.raises(ValueError):
        peul_dnk(3, 5)


def test_half_eulerian():
    assert half_eulerian(0) == ONE
    assert half_eulerian(1) == ONE  # the single sequence (0)
    assert half_eulerian(2) == IntPoly((1, 2))
    assert half_eulerian(3) == IntPoly((1, 10, 4))
    assert sum(1 for _ in inversion_sequences_2(4)) == 105  # (2n-1)!!
    assert asc_2((0, 1, 2)) == 2
    assert asc_2((0, 0, 0)) == 0


def test_half_eulerian_reversal():
    for n in range(1, 9):
        assert half_eulerian(n).reverse(n - 1) * Z == peul_b_rec(n)
    assert half_eulerian(0) == peul_b_rec(0)


def test_binomial_identities():
    assert binomial_identity_checks(6)


def test_generating_functions():
    assert generating_function_check(6)
    # spot values: the type D coefficient at n=1 vanishes by convention
    from primeul.coxstats import eulerian_egf
    from primeul.egf import TruncatedEgf, egf_exp, egf_sqrt

    A = eulerian_egf(5)
    exp_zm1 = egf_exp(TruncatedEgf.x_times(Z - ONE, 5))
    type_d = (exp_zm1 - TruncatedEgf.x_times(Z, 5)) * egf_sqrt(A.scale_x(2))
    assert type_d.coeff_intpoly(1) == IntPoly()
    assert type_d.coeff_intpoly(4) == TYPE_D[4]
    type_b = exp_zm1 * egf_sqrt(A.scale_x(2))
    assert type_b.coeff_intpoly(5) == TYPE_B[5]


def test_even_signed_enumeration():
    assert sum(1 for _ in all_even_signed(3)) == 24
    assert all(fneg(w) % 2 == 0 for w in all_even_signed(3))
