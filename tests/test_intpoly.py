from fractions import Fraction

import pytest

from primeul.intpoly import IntPoly, ONE, Z, ZM1


def test_trailing_zeros_trimmed():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()


def test_zero_polynomial():
    p = IntPoly()
    assert p.degree() == -1
    assert not p
    assert p.format() == "0"


def test_arithmetic():
    p = IntPoly((0, 4, 1))  # z^2 + 4z
    assert p + 1 == IntPoly((1, 4, 1))
    assert p - p == IntPoly()
    assert (Z * Z + 4 * Z) == p
    assert ZM1 ** 2 == IntPoly((1, -2, 1))
    assert (p * 0) == IntPoly()


def test_evaluation():
    p = IntPoly((-1, 0, 1))  # z^2 - 1
    assert p(2) == 3
    assert p(Fraction(1, 2)) == Fraction(-3, 4)


def test_derivative():
    assert IntPoly((5, 3, 2)).derivative() == IntPoly((3, 4))
    assert ONE.derivative() == IntPoly()


def test_reverse():
    p = IntPoly((0, 4, 10, 1))  # z^3 + 10z^2 + 4z
    assert p.reverse() == IntPoly((1, 10, 4))
    assert p.reverse(4) == IntPoly((0, 1, 10, 4))
    with pytest.raises(ValueError):
        p.reverse(2)


def test_format():
    assert IntPoly((0, 4, 10, 1)).format() == "z^3 + 10z^2 + 4z"
    assert IntPoly((0, -1, 3, 1)).format() == "z^3 + 3z^2 - z"
    assert IntPoly((0, -3, 6, -4, 1)).format("t") == "t^4 - 4t^3 + 6t^2 - 3t"
    assert IntPoly((1,)).format() == "1"
    assert IntPoly((-2, 1)).format() == "z - 2"


def test_from_counts():
    assert IntPoly.from_counts([2, 0, 2, 3]) == IntPoly((1, 0, 2, 1))
    assert IntPoly.from_counts(iter([1, 1])) == IntPoly((0, 2))
    assert not IntPoly.from_counts([])


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        IntPoly((1.5, 2))


def test_power():
    assert ZM1 ** 0 == ONE
    assert ZM1 ** 3 == IntPoly((-1, 3, -3, 1))
    with pytest.raises(ValueError):
        Z ** -1
