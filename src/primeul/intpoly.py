"""Univariate polynomials with exact integer coefficients.

Coefficients are stored low degree first, e.g. ``IntPoly((0, 4, 1))`` is
``z**2 + 4*z``.  The trailing (highest-index) coefficient is nonzero unless
the polynomial is zero, so equal polynomials have equal coefficient tuples.

The arithmetic is written once, as kernels on such coefficient tuples that
serve ints and Fractions alike: ``_trim``, ``_add``, ``_mul`` and
``_deriv``.  ``IntPoly`` wraps them, ``egf`` runs them on its Fraction
coefficients and ``roots`` on its primitive integer ones.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


class Frozen:
    """An immutable value with the fields named in ``_fields``, set once through ``_set``.
    As for a frozen dataclass, ``==`` compares field tuples within one class."""

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _trim(c) -> tuple:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _mul(a, b) -> tuple:
    if not a or not b:
        return ()
    # A zero of the coefficients' type, so a slot the skipped zeros miss stays a Fraction.
    out = [a[-1] * b[-1] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _deriv(c) -> tuple:
    return tuple(i * x for i, x in enumerate(c) if i)


class IntPoly(Frozen):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @classmethod
    def from_counts(cls, exponents) -> IntPoly:
        """The sum of z**k over the given exponents: a statistic's
        distribution; the zero polynomial when there are none."""
        counts = Counter(exponents)
        if not counts:
            return cls()
        return cls(tuple(counts[k] for k in range(max(counts) + 1)))

    @classmethod
    def from_fractions(cls, coeffs) -> IntPoly:
        """Build from exact rationals; raises if any denominator is not 1."""
        out = []
        for c in coeffs:
            f = Fraction(c)
            if f.denominator != 1:
                raise ValueError(f"non-integer coefficient {f}")
            out.append(f.numerator)
        return cls(tuple(out))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> IntPoly:
        return IntPoly(_add(self.coeffs, _coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> IntPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> IntPoly:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> IntPoly:
        return IntPoly(_mul(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly(_deriv(self.coeffs))

    def reverse(self, degree: int | None = None) -> IntPoly:
        """Coefficient reversal z**d * p(1/z) at the given degree d.

        Defaults to the polynomial's own degree; d may exceed it, which
        shifts the reversal up by z**(d - deg p).
        """
        d = self.degree() if degree is None else degree
        if d < self.degree():
            raise ValueError("reversal degree below polynomial degree")
        out = [0] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return IntPoly(tuple(out))

    def format(self, var: str = "z") -> str:
        """Human-readable rendering, highest degree first: "z^3 + 10z^2 + 4z"."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = f"{var}" if mag == 1 else f"{mag}{var}"
            else:
                body = f"{var}^{k}" if mag == 1 else f"{mag}{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly((x,))
    raise TypeError(f"cannot coerce {type(x)} to IntPoly")


#: The monomial z.
Z = IntPoly((0, 1))
#: The binomial z - 1, ubiquitous in lattice reparametrizations.
ZM1 = IntPoly((-1, 1))
ONE = IntPoly((1,))
ZERO = IntPoly()
