"""Real-rootedness is validated against oracles that use no Sturm sequence:
polynomials built from known rational roots with multiplicity and from
quadratics (qz - a)^2 + b^2 with b != 0, which are real-rooted iff no such
quadratic is a factor, and a quadratic-formula discriminant check for random
quadratics.  Interlacing is read off sorted rational roots.  Each
certificate of sign changes is re-checked by its own ``Fraction``
evaluation and against Sturm."""

import random
from fractions import Fraction

import pytest

from primeul.coxstats import peul_b_rec, peul_d_rec, peul_dnk
from primeul.intpoly import IntPoly, ONE, Z, ZM1, _deriv
from primeul.roots import (_certificate, _index, _propose, _separates,
                           _sturm_sequence, interlaces, is_real_rooted)
from primeul.tables import EXCEPTIONAL


def distinct_real_roots(p: IntPoly) -> int:
    """Number of distinct real roots: the Cauchy index of p'/p."""
    return _index(_sturm_sequence(p.coeffs, _deriv(p.coeffs)))


def poly_from_roots(roots, lead=1):
    p = IntPoly((lead,))
    for r in map(Fraction, roots):
        p = p * IntPoly((-r.numerator, r.denominator))
    return p


def random_factored(rng):
    """(p, distinct rational roots, number of complex-pair factors): p is a
    product of rational linear factors with multiplicity 1-3 and quadratics
    (qz - a)^2 + b^2, b != 0, times a leading coefficient of either sign."""
    rational = set()
    p = IntPoly((rng.choice((-1, 1)) * rng.randint(1, 3),))
    for _ in range(rng.randint(0, 4)):
        q = rng.randint(1, 3)
        r = Fraction(rng.randint(-4 * q, 4 * q), q)
        rational.add(r)
        p = p * poly_from_roots([r]) ** rng.randint(1, 3)
    pairs = rng.choice((0, 0, 1, 2))
    for _ in range(pairs):
        q, a, b = rng.randint(1, 3), rng.randint(-6, 6), rng.choice((-3, -2, -1, 1, 2, 3))
        p = p * IntPoly((a * a + b * b, -2 * q * a, q * q)) ** rng.randint(1, 2)
    return p, rational, pairs


def test_simple_examples():
    assert is_real_rooted(IntPoly((0, 1, 1)))                # z^2 + z
    assert distinct_real_roots(IntPoly((0, 1, 1))) == 2
    assert not is_real_rooted(IntPoly((0, 1, -4, 6, 1)))     # z^4+6z^3-4z^2+z
    assert distinct_real_roots(IntPoly((0, 1, -4, 6, 1))) == 2
    assert is_real_rooted(IntPoly((0, -1, 3, 1)))            # z^3+3z^2-z
    assert distinct_real_roots(IntPoly((0, -1, 3, 1))) == 3


def test_real_rooted_examples():
    assert is_real_rooted(IntPoly((0, 4, 10, 1)))
    assert not is_real_rooted(IntPoly((0, 1, -4, 6, 1)))
    assert is_real_rooted(ONE)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        is_real_rooted(IntPoly())


def test_no_real_roots():
    assert distinct_real_roots(IntPoly((1, 0, 1))) == 0  # z^2 + 1
    assert not is_real_rooted(IntPoly((1, 0, 1)))


def test_multiplicity_counting():
    # (z-1)^3 (z+2)^2: all five roots real, two distinct
    p = IntPoly((-1, 1)) ** 3 * IntPoly((2, 1)) ** 2
    assert distinct_real_roots(p) == 2
    assert is_real_rooted(p)
    # (z^2+1)^2 (z-3): one real root among five
    q = IntPoly((1, 0, 1)) ** 2 * IntPoly((-3, 1))
    assert distinct_real_roots(q) == 1
    assert not is_real_rooted(q)


def count_sturm(monkeypatch):
    """The (f, g) of every ``_sturm_sequence`` call from now on."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return _sturm_sequence(f, g)
    monkeypatch.setattr("primeul.roots._sturm_sequence", counted)
    return calls


def test_one_sequence_per_call(monkeypatch):
    # Real-rootedness reads one remainder sequence, whatever the
    # multiplicities: no chain per level of gcd with the derivative.
    calls = count_sturm(monkeypatch)
    assert is_real_rooted(IntPoly((-1, 1)) ** 3 * IntPoly((2, 1)) ** 2)
    assert len(calls) == 1


def test_square_count_doubles():
    # Squaring doubles every multiplicity and changes neither answer.
    rng = random.Random(7)
    for _ in range(40):
        p, rational, pairs = random_factored(rng)
        assert is_real_rooted(p * p) == (pairs == 0)
        assert distinct_real_roots(p * p) == len(rational)


def test_count_from_known_roots():
    rng = random.Random(11)
    for _ in range(40):
        roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = poly_from_roots(roots)
        assert distinct_real_roots(p) == len(set(roots))
        assert is_real_rooted(p)


def test_real_rooted_factored_draws():
    # Seeded draws with repeated rational roots, complex pairs of
    # multiplicity 1-2 and leading coefficients of both signs.
    rng = random.Random(19)
    seen = set()
    for _ in range(2000):
        p, rational, pairs = random_factored(rng)
        assert is_real_rooted(p) == (pairs == 0), p
        assert distinct_real_roots(p) == len(rational), p
        seen.add((pairs == 0, p.coeffs[-1] > 0))
    assert len(seen) == 4  # both answers under both leading signs


def test_quadratic_discriminants():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randint(1, 5)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        p = IntPoly((c, b, a))
        disc = b * b - 4 * a * c
        assert is_real_rooted(p) == (disc >= 0)
        assert distinct_real_roots(p) == (2 if disc > 0 else 1 if disc == 0 else 0)


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


def classical(nmax, dnk_max=None):
    """B_n and D_n for n <= nmax, and every D_{n,k} for n <= dnk_max
    (default nmax)."""
    yield from map(peul_b_rec, range(1, nmax + 1))
    yield from map(peul_d_rec, range(2, nmax + 1))
    for n in range(2, (nmax if dnk_max is None else dnk_max) + 1):
        yield from (peul_dnk(n, k) for k in range(n + 1))


def factored_draws():
    rng = random.Random(19)
    return [random_factored(rng)[0] for _ in range(2000)]


def gn(n):
    """P of the generic arrangement G_n, which is not real-rooted for n >= 4."""
    return Z * ZM1 ** n + (n + 1) * Z ** n - Z ** (n + 1)


def check_certificate(p, cert):
    """Re-check a certificate by Fraction evaluation: with f = p over its
    lowest power of z and leading coefficient made positive, d = deg f, the
    d - 1 points lie in decreasing order below 0 and f has sign (-1)^i at
    the i-th; with f(0) > 0 and sign (-1)^d at -inf that is d sign changes."""
    c = p.coeffs
    f = c[next(i for i, x in enumerate(c) if x):]
    f = [-x for x in f] if f[-1] < 0 else list(f)
    numerators, s = cert
    points = [Fraction(n, 2 ** s) for n in numerators]
    assert len(points) == max(len(f) - 2, 0)
    assert f[0] > 0 and f[-1] > 0
    assert all(a > b for a, b in zip([0] + points, points))
    for i, x in enumerate(points, 1):
        value = Fraction(0)
        for a in reversed(f):
            value = value * x + a
        assert (-1) ** i * value > 0


def certified_agree_with_sturm(polys) -> int:
    """Re-check each certificate the polynomials get and ask Sturm for each
    of them; returns how many were certified."""
    settled = 0
    for p in polys:
        cert = _certificate(p.coeffs)
        if cert is not None:
            check_certificate(p, cert)
            assert _separates(p.coeffs, _deriv(p.coeffs)), p
            settled += 1
    return settled


def test_certificate_agrees_with_sturm():
    # B_n and D_n to degree 40 and D_{n,k} to degree 25 (the long tier
    # takes D_{n,k} to degree 40), all certified, and the factored draws
    # and the exceptional goldens, some certified.
    families = list(classical(40, 25))
    assert certified_agree_with_sturm(families) == len(families)
    assert certified_agree_with_sturm(factored_draws()) > 100
    assert certified_agree_with_sturm(EXCEPTIONAL.values()) > 0


@pytest.mark.long
def test_certificate_agrees_with_sturm_dnk_to_degree_40():
    dnk = [peul_dnk(n, k) for n in range(26, 41) for k in range(n + 1)]
    assert certified_agree_with_sturm(dnk) == len(dnk)


def test_planted_inputs_fall_to_sturm(monkeypatch):
    # Positive coefficients, but a complex pair or a double root leaves
    # fewer sign changes than the degree: no certificate, Sturm decides.
    calls = count_sturm(monkeypatch)
    for p, want in ((peul_b_rec(10) * IntPoly((1, 1, 1)), False),
                    (IntPoly((1, 1)) ** 2 * peul_b_rec(8), True)):
        assert p.coeffs[0] == 0 and min(p.coeffs[1:]) > 0
        assert _certificate(p.coeffs) is None
        calls.clear()
        assert is_real_rooted(p) == want
        assert len(calls) == 1


def test_certified_families_build_no_sturm_sequence(monkeypatch):
    calls = count_sturm(monkeypatch)
    assert all(is_real_rooted(p) for p in classical(40))
    assert calls == []
    for n in range(4, 13):
        calls.clear()
        assert not is_real_rooted(gn(n))
        assert len(calls) >= 1


def _propose_none(f):
    return []


def _propose_doubled(f):
    return [(a, e + 1) for a, e in _propose(f)]


def _propose_next_mantissa(f):
    return [(a - 1, e) for a, e in _propose(f)]


def _propose_positive(f):
    return [(a + 300, e) for a, e in _propose(f)]


@pytest.mark.parametrize("proposer", [_propose_none, _propose_doubled,
                                      _propose_next_mantissa, _propose_positive])
def test_floats_only_propose(monkeypatch, proposer):
    # Whatever points are proposed, every answer stays; only the path that
    # settles it may change.
    polys = [*classical(25), *factored_draws(), *EXCEPTIONAL.values(),
             *map(gn, range(4, 13))]
    pairs = [(peul_b_rec(n - 1), peul_b_rec(n)) for n in range(2, 21)]
    pairs += [(peul_d_rec(n - 1), peul_d_rec(n)) for n in range(3, 21)]
    rooted = [is_real_rooted(p) for p in polys]
    interlacing = [interlaces(g, f) for g, f in pairs]
    monkeypatch.setattr("primeul.roots._propose", proposer)
    assert [is_real_rooted(p) for p in polys] == rooted
    assert [interlaces(g, f) for g, f in pairs] == interlacing
