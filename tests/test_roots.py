"""Root counting is validated against brute-force oracles: rational-root
polynomials built from known factors, and a quadratic-formula discriminant
check for random quadratics."""

import random
from fractions import Fraction

import pytest

from primeul.coxstats import peul_b_rec, peul_d_rec
from primeul.intpoly import IntPoly, ONE, Z, ZM1
from primeul.roots import (distinct_real_roots, interlaces, is_real_rooted,
                           real_root_count)


def poly_from_roots(roots, lead=1):
    p = IntPoly((lead,))
    for r in map(Fraction, roots):
        p = p * IntPoly((-r.numerator, r.denominator))
    return p


def test_simple_examples():
    assert real_root_count(IntPoly((0, 1, 1))) == 2          # z^2 + z
    assert real_root_count(IntPoly((0, 1, -4, 6, 1))) == 2   # z^4+6z^3-4z^2+z
    assert real_root_count(IntPoly((0, -1, 3, 1))) == 3      # z^3+3z^2-z


def test_real_rooted_examples():
    assert is_real_rooted(IntPoly((0, 4, 10, 1)))
    assert not is_real_rooted(IntPoly((0, 1, -4, 6, 1)))
    assert is_real_rooted(ONE)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_root_count(IntPoly())
    with pytest.raises(ValueError):
        is_real_rooted(IntPoly())


def test_no_real_roots():
    assert real_root_count(IntPoly((1, 0, 1))) == 0  # z^2 + 1
    assert not is_real_rooted(IntPoly((1, 0, 1)))


def test_multiplicity_counting():
    # (z-1)^3 (z+2)^2: five real roots with multiplicity, two distinct
    p = IntPoly((-1, 1)) ** 3 * IntPoly((2, 1)) ** 2
    assert real_root_count(p) == 5
    assert distinct_real_roots(p) == 2
    assert is_real_rooted(p)
    # (z^2+1)^2 (z-3): one real root among five
    q = IntPoly((1, 0, 1)) ** 2 * IntPoly((-3, 1))
    assert real_root_count(q) == 1
    assert not is_real_rooted(q)


def test_square_count_doubles():
    rng = random.Random(7)
    for _ in range(40):
        deg = rng.randint(1, 5)
        p = IntPoly(tuple(rng.randint(-4, 4) for _ in range(deg)) + (rng.randint(1, 3),))
        assert real_root_count(p * p) == 2 * real_root_count(p)


def test_count_from_known_roots():
    rng = random.Random(11)
    for _ in range(40):
        roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = poly_from_roots(roots)
        assert real_root_count(p) == len(roots)
        assert distinct_real_roots(p) == len(set(roots))
        assert is_real_rooted(p)


def test_quadratic_discriminants():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randint(1, 5)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        p = IntPoly((c, b, a))
        disc = b * b - 4 * a * c
        want = 2 if disc > 0 else (2 if disc == 0 else 0)
        assert real_root_count(p) == want


def test_interlaces_basic():
    assert interlaces(Z, IntPoly((-1, 0, 1)))               # 0 between -1, 1
    assert not interlaces(IntPoly((-2, 1)), IntPoly((-1, 0, 1)))
    # 4z^2 + 2z between the roots of (z-1)(z^2+z) = z^3 - z
    assert interlaces(IntPoly((0, 2, 4)), ZM1 * IntPoly((0, 1, 1)))


def test_interlaces_shared_roots():
    # g = z(z-1), f = z(z-1)(z-2): shared roots make the chain weakly tight
    g = poly_from_roots([0, 1])
    f = poly_from_roots([0, 1, 2])
    assert interlaces(g, f)
    # g = (z-2)^2 does not interlace f = z(z-1)(z-2)
    assert not interlaces(poly_from_roots([2, 2]), f)


def test_interlaces_degree_zero():
    assert interlaces(IntPoly((5,)), Z)


def test_interlaces_validation():
    with pytest.raises(ValueError):
        interlaces(Z, poly_from_roots([1, 2, 3]))  # degree gap 2
    with pytest.raises(ValueError):
        interlaces(Z, IntPoly((1, 0, 1)))  # f not real-rooted
    with pytest.raises(ValueError):
        interlaces(IntPoly(), Z)


def test_interlaces_random_sorted_roots():
    # Rational roots with denominators 1-3, forced repeated and shared roots
    # and leading coefficients of both signs; the expected answer is read
    # off the sorted roots.
    rng = random.Random(17)

    def root():
        q = rng.randint(1, 3)
        return Fraction(rng.randint(-4 * q, 4 * q), q)

    seen = set()
    for _ in range(400):
        d = rng.randint(2, 6)
        froots = sorted(root() for _ in range(d))
        if rng.random() < 0.5:  # near-interlacing: g's roots in f's gaps
            groots = [rng.choice((a, b, (a + b) / 2))
                      for a, b in zip(froots, froots[1:])]
        else:
            groots = [root() for _ in range(d - 1)]
        if rng.random() < 0.3:
            froots[rng.randrange(d)] = rng.choice(froots)
        if rng.random() < 0.3:
            groots[rng.randrange(d - 1)] = rng.choice(froots)
        froots.sort()
        groots.sort()
        want = all(froots[i] <= groots[i] <= froots[i + 1] for i in range(d - 1))
        f = poly_from_roots(froots, rng.choice((-2, -1, 1, 3)))
        g = poly_from_roots(groots, rng.choice((-3, -1, 1, 2)))
        assert interlaces(g, f) == want, (froots, groots)
        seen.add((want, f.coeffs[-1] > 0, g.coeffs[-1] > 0))
    assert len(seen) == 8  # both answers under every pair of leading signs


def test_interlaces_type_b_and_d_families():
    # D_2 = z^2 and D_3 do not interlace, nor do D_3 and D_4: the root -0.268
    # of D_3 lies above the root -0.28 of D_4.
    for n in range(2, 13):
        assert interlaces(peul_b_rec(n - 1), peul_b_rec(n))
    for n in range(3, 13):
        assert interlaces(peul_d_rec(n - 1), peul_d_rec(n)) == (n >= 5)
