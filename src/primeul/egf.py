"""Truncated exponential generating series with polynomial coefficients.

A series sum_{n<=N} c_n(z) x^n / n! is stored as the tuple of coefficient
polynomials c_0..c_N, each a tuple of Fractions in z (low degree first).
Arithmetic is exact and truncated at the fixed order N; exp, log and sqrt
are composed from the nilpotent part, so all coefficients stay polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .intpoly import IntPoly

QPoly = tuple  # polynomial in z over Fraction, low degree first

DEFAULT_ORDER = 8


def _ptrim(c) -> QPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b) -> QPoly:
    n = max(len(a), len(b))
    a = tuple(a) + (Fraction(0),) * (n - len(a))
    b = tuple(b) + (Fraction(0),) * (n - len(b))
    return _ptrim(x + y for x, y in zip(a, b))


def _pmul(a, b) -> QPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, s) -> QPoly:
    s = Fraction(s)
    return _ptrim(x * s for x in a)


def _qpoly(p) -> QPoly:
    if isinstance(p, IntPoly):
        return tuple(Fraction(c) for c in p.coeffs)
    return _ptrim(Fraction(c) for c in p)


@dataclass(frozen=True)
class TruncatedEgf:
    """Exponential generating series truncated at a fixed order."""

    order: int
    coeffs: tuple[QPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(_ptrim(c) for c in self.coeffs))

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
            _padd(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: TruncatedEgf) -> TruncatedEgf:
        self._check(other)
        return TruncatedEgf(self.order, tuple(
            _padd(a, _pscale(b, -1)) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncatedEgf) -> TruncatedEgf:
        self._check(other)
        out = []
        for n in range(self.order + 1):
            acc: QPoly = ()
            for k in range(n + 1):
                term = _pmul(self.coeffs[k], other.coeffs[n - k])
                acc = _padd(acc, _pscale(term, comb(n, k)))
            out.append(acc)
        return TruncatedEgf(self.order, tuple(out))

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("order mismatch")

    def scale_x(self, c) -> TruncatedEgf:
        """Substitute x -> c*x."""
        c = Fraction(c)
        return TruncatedEgf(self.order, tuple(
            _pscale(p, c**n) for n, p in enumerate(self.coeffs)))

    def _nilpotent_powers(self):
        """Powers u^0..u^N of u = self - c_0 (which has zero constant term)."""
        u = TruncatedEgf(self.order, ((),) + self.coeffs[1:])
        powers = [TruncatedEgf.constant(1, self.order)]
        for _ in range(self.order):
            powers.append(powers[-1] * u)
        return powers


def egf_mul(a: TruncatedEgf, b: TruncatedEgf) -> TruncatedEgf:
    return a * b


def egf_exp(f: TruncatedEgf) -> TruncatedEgf:
    """exp(f) for a series with zero constant coefficient."""
    if f.coeffs[0]:
        raise ValueError("exp needs zero constant coefficient")
    out = TruncatedEgf.constant(0, f.order)
    factorial = 1
    for j, p in enumerate(f._nilpotent_powers()):
        if j:
            factorial *= j
        out = out + TruncatedEgf(f.order, tuple(
            _pscale(c, Fraction(1, factorial)) for c in p.coeffs))
    return out


def egf_log(f: TruncatedEgf) -> TruncatedEgf:
    """log(f) for a series with constant coefficient 1."""
    if f.coeffs[0] != (Fraction(1),):
        raise ValueError("log needs constant coefficient 1")
    out = TruncatedEgf.constant(0, f.order)
    for j, p in enumerate(f._nilpotent_powers()):
        if j == 0:
            continue
        sign = Fraction((-1) ** (j + 1), j)
        out = out + TruncatedEgf(f.order, tuple(_pscale(c, sign) for c in p.coeffs))
    return out


def egf_sqrt(f: TruncatedEgf) -> TruncatedEgf:
    """Square root of a series with constant coefficient 1 (binomial series)."""
    if f.coeffs[0] != (Fraction(1),):
        raise ValueError("sqrt needs constant coefficient 1")
    out = TruncatedEgf.constant(0, f.order)
    coef = Fraction(1)
    for j, p in enumerate(f._nilpotent_powers()):
        if j:
            coef *= (Fraction(1, 2) - (j - 1)) / j  # binomial(1/2, j) update
        out = out + TruncatedEgf(f.order, tuple(_pscale(c, coef) for c in p.coeffs))
    return out


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
        acc = f.coeffs[n]
        for k in range(n):
            acc = _padd(acc, _pscale(_pmul(out[k], g.coeffs[n - k]), -comb(n, k)))
        out.append(_pscale(acc, inv))
    return TruncatedEgf(f.order, tuple(out))
