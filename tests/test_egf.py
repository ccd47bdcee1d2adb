import random
from fractions import Fraction
from math import factorial

import pytest

from primeul.egf import TruncatedEgf, egf_exp, egf_log, egf_mul, egf_sqrt
from primeul.intpoly import IntPoly, ONE, Z, ZM1, _mul


def _power_sum(f: TruncatedEgf, coef) -> TruncatedEgf:
    """sum_j coef(j) u^j with u = f - f_0, the power-series definition that
    the coefficient recurrences must reproduce (u^j vanishes past j = order)."""
    u = TruncatedEgf(f.order, ((),) + f.coeffs[1:])
    out = TruncatedEgf.constant(0, f.order)
    power = TruncatedEgf.constant(1, f.order)
    for j in range(f.order + 1):
        out = out + TruncatedEgf.constant(coef(j), f.order) * power
        power = power * u
    return out


def _binomial_half(j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= (Fraction(1, 2) - i) / (i + 1)
    return out


def _random_series(rng: random.Random, order: int, constant) -> TruncatedEgf:
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    rest = [tuple(q() for _ in range(rng.randint(0, 3))) for _ in range(order)]
    return TruncatedEgf(order, (constant,) + tuple(rest))


def test_exp_log_sqrt_against_power_sums():
    rng = random.Random(2023)
    one = (Fraction(1),)
    for trial in range(60):
        order = trial % 10
        f = _random_series(rng, order, ())
        g = _random_series(rng, order, one)
        assert egf_exp(f) == _power_sum(f, lambda j: Fraction(1, factorial(j)))
        assert egf_log(g) == _power_sum(
            g, lambda j: Fraction((-1) ** (j + 1), j) if j else Fraction(0))
        assert egf_sqrt(g) == _power_sum(g, _binomial_half)


def test_coefficients_stay_fractions():
    # The polynomial kernels are shared with IntPoly, whose zero is int 0.
    from primeul.egf import egf_div

    def fractions_only(s):
        return all(type(c) is Fraction for p in s.coeffs for c in p)

    rng = random.Random(2023)
    one = (Fraction(1),)
    for trial in range(60):
        order = trial % 10
        f = _random_series(rng, order, ())
        g = _random_series(rng, order, one)
        for s in (f + g, f - g, g - f, f * g, g * g, f.scale_x(3),
                  g.scale_x(Fraction(-1, 2)), egf_exp(f), egf_log(g), egf_sqrt(g),
                  egf_div(f, g)):
            assert fractions_only(s), (trial, s)
    # The series scale every product, which would hide an int zero; the
    # kernel alone must not make one.  Only the skipped zero reaches z^1.
    half, zero = Fraction(1, 2), Fraction(0)
    assert [type(c) for c in _mul((half, zero, half), (half,))] == [Fraction] * 3


def test_exp_of_monomial():
    # exp(x (z-1)) has coefficient (z-1)^n at x^n/n!
    f = TruncatedEgf.x_times(ZM1, 6)
    e = egf_exp(f)
    for n in range(7):
        assert e.coeff_intpoly(n) == ZM1 ** n


def test_exp_log_roundtrip():
    f = TruncatedEgf.from_polys([ONE, Z, IntPoly((1, 1)), IntPoly((2, 0, 3))], 5)
    assert egf_exp(egf_log(f)).coeffs == f.coeffs


def test_sqrt_squares_back():
    f = TruncatedEgf.from_polys(
        [ONE, IntPoly((0, 2)), IntPoly((1, 4, 1)), IntPoly((3,))], 6)
    r = egf_sqrt(f)
    assert (r * r).coeffs == f.coeffs


def test_mul_binomial_weights():
    # (sum x^n/n!) * (sum x^n/n!) = sum 2^n x^n/n!
    ones = TruncatedEgf.from_polys([ONE] * 7, 6)
    sq = egf_mul(ones, ones)
    for n in range(7):
        assert sq.coeff_intpoly(n) == IntPoly((2 ** n,))


def test_scale_x():
    f = TruncatedEgf.from_polys([ONE, Z, Z], 4)
    g = f.scale_x(2)
    assert g.coeff(0) == (Fraction(1),)
    assert g.coeff(1) == (Fraction(0), Fraction(2))
    assert g.coeff(2) == (Fraction(0), Fraction(4))


def test_preconditions():
    f = TruncatedEgf.from_polys([ONE, Z], 3)
    with pytest.raises(ValueError):
        egf_exp(f)  # nonzero constant coefficient
    g = TruncatedEgf.x_times(Z, 3)
    with pytest.raises(ValueError):
        egf_log(g)  # constant coefficient not 1
    with pytest.raises(ValueError):
        egf_sqrt(g)


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="order must be >= 0"):
        TruncatedEgf(-1, ())
    with pytest.raises(ValueError, match="order must be >= 0"):
        TruncatedEgf.constant(1, -1)
    assert TruncatedEgf.constant(1, 0).coeffs == ((Fraction(1),),)


def test_order_mismatch():
    with pytest.raises(ValueError):
        TruncatedEgf.constant(1, 3) + TruncatedEgf.constant(1, 4)


def test_coeff_intpoly_rejects_fractions():
    f = egf_sqrt(TruncatedEgf.from_polys([ONE, ONE], 2))
    with pytest.raises(ValueError):
        f.coeff_intpoly(1)  # 1/2


def test_div_inverts_mul():
    from primeul.egf import egf_div

    g = TruncatedEgf.from_polys([IntPoly((2,)), Z, IntPoly((1, 1))], 5)
    f = TruncatedEgf.from_polys([ONE, IntPoly((0, 3)), Z], 5)
    q = egf_div(egf_mul(f, g), g)
    assert q.coeffs == f.coeffs
    with pytest.raises(ValueError):
        egf_div(f, TruncatedEgf.from_polys([Z, ONE], 5))  # constant term z
