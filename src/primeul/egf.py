"""Truncated exponential generating series with polynomial coefficients.

A series sum_{n<=N} c_n(z) x^n / n! is stored as the tuple of coefficient
polynomials c_0..c_N, each a tuple of Fractions in z (low degree first).
Arithmetic is exact and truncated at the fixed order N.  exp, log and sqrt
are coefficient recurrences (exp from E' = f' E, log as the integral of
f'/f, sqrt as exp(log(f) / 2)), so all coefficients stay polynomial.  The
coefficient polynomials are added, multiplied and trimmed by ``intpoly``'s
kernels ``_add``, ``_mul`` and ``_trim``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .intpoly import Frozen, IntPoly, _add, _mul, _trim

QPoly = tuple  # polynomial in z over Fraction, low degree first

DEFAULT_ORDER = 8


def _pscale(a, s) -> QPoly:
    s = Fraction(s)
    return _trim([x * s for x in a])


def _product_coeff(a, b, n: int) -> QPoly:
    """Coefficient n of the product of the EGFs with coefficients a and b:
    sum_k C(n, k) a_k b_{n-k}."""
    acc: QPoly = ()
    for k in range(n + 1):
        acc = _add(acc, _pscale(_mul(a[k], b[n - k]), comb(n, k)))
    return acc


def _qpoly(p) -> QPoly:
    if isinstance(p, IntPoly):
        return tuple(Fraction(c) for c in p.coeffs)
    return _trim([Fraction(c) for c in p])


class TruncatedEgf(Frozen):
    """Exponential generating series truncated at a fixed order."""

    _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[QPoly, ...]):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        self._set(order, tuple(_trim(c) for c in coeffs))

    @classmethod
    def from_polys(cls, polys, order: int = DEFAULT_ORDER) -> TruncatedEgf:
        polys = [_qpoly(p) for p in polys]
        if len(polys) < order + 1:
            polys += [()] * (order + 1 - len(polys))
        return cls(order, tuple(polys[: order + 1]))

    @classmethod
    def constant(cls, value, order: int = DEFAULT_ORDER) -> TruncatedEgf:
        return cls.from_polys([_qpoly([Fraction(value)])], order)

    @classmethod
    def x_times(cls, poly, order: int = DEFAULT_ORDER) -> TruncatedEgf:
        """The series poly(z) * x."""
        return cls.from_polys([(), _qpoly(poly)], order)

    def coeff(self, n: int) -> QPoly:
        """Coefficient polynomial c_n of x^n / n!."""
        return self.coeffs[n]

    def coeff_intpoly(self, n: int) -> IntPoly:
        return IntPoly.from_fractions(self.coeffs[n])

    def __add__(self, other: TruncatedEgf) -> TruncatedEgf:
        self._check(other)
        return TruncatedEgf(self.order, tuple(
            _add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: TruncatedEgf) -> TruncatedEgf:
        self._check(other)
        return TruncatedEgf(self.order, tuple(
            _add(a, _pscale(b, -1)) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncatedEgf) -> TruncatedEgf:
        self._check(other)
        return TruncatedEgf(self.order, tuple(
            _product_coeff(self.coeffs, other.coeffs, n) for n in range(self.order + 1)))

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("order mismatch")

    def scale_x(self, c) -> TruncatedEgf:
        """Substitute x -> c*x."""
        c = Fraction(c)
        return TruncatedEgf(self.order, tuple(
            _pscale(p, c**n) for n, p in enumerate(self.coeffs)))


def egf_mul(a: TruncatedEgf, b: TruncatedEgf) -> TruncatedEgf:
    return a * b


def egf_exp(f: TruncatedEgf) -> TruncatedEgf:
    """exp(f) for a series with zero constant coefficient, from E' = f' E:
    E_0 = 1 and E_n = sum_{k=1}^{n} C(n-1, k-1) f_k E_{n-k}."""
    if f.coeffs[0]:
        raise ValueError("exp needs zero constant coefficient")
    out: list[QPoly] = [(Fraction(1),)]
    for n in range(1, f.order + 1):
        out.append(_product_coeff(f.coeffs[1:], out, n - 1))
    return TruncatedEgf(f.order, tuple(out))


def egf_log(f: TruncatedEgf) -> TruncatedEgf:
    """log(f) for a series with constant coefficient 1: the integral of f'/f.

    On an EGF, d/dx and the integral shift the coefficients down and up one
    place; the top coefficient of f', unknown at this order, drops out.
    """
    if f.coeffs[0] != (Fraction(1),):
        raise ValueError("log needs constant coefficient 1")
    quotient = egf_div(TruncatedEgf(f.order, f.coeffs[1:] + ((),)), f)
    return TruncatedEgf(f.order, ((),) + quotient.coeffs[:-1])


def egf_sqrt(f: TruncatedEgf) -> TruncatedEgf:
    """Square root of a series with constant coefficient 1: exp(log(f) / 2)."""
    if f.coeffs[0] != (Fraction(1),):
        raise ValueError("sqrt needs constant coefficient 1")
    return egf_exp(TruncatedEgf(f.order, tuple(
        _pscale(c, Fraction(1, 2)) for c in egf_log(f).coeffs)))


def egf_div(f: TruncatedEgf, g: TruncatedEgf) -> TruncatedEgf:
    """f / g, defined only when g has a nonzero rational *constant* as its
    constant coefficient; keeps every coefficient in the polynomial ring."""
    f._check(g)
    g0 = g.coeffs[0]
    if len(g0) != 1:
        raise ValueError("divisor constant coefficient must be a rational constant")
    inv = 1 / g0[0]
    out: list[QPoly] = []
    for n in range(f.order + 1):
        # (f/g * g)_n = f_n, with the unknown (f/g)_n put as 0 in the product
        rest = _product_coeff(out + [()], g.coeffs, n)
        out.append(_pscale(_add(f.coeffs[n], _pscale(rest, -1)), inv))
    return TruncatedEgf(f.order, tuple(out))
