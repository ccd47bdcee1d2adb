"""The value types: construction, equality, hash, repr and immutability.

``Arrangement``, ``IntPoly`` and ``TruncatedEgf`` behave as frozen records
of their fields; their reprs are pinned as exact strings.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from primeul.arrangement import Arrangement, build_flats
from primeul.egf import TruncatedEgf
from primeul.families import braid
from primeul.intpoly import IntPoly

FIELDS = {Arrangement: ("dim", "normals"), IntPoly: ("coeffs",), TruncatedEgf: ("order", "coeffs")}


def samples():
    a = Arrangement.from_normals([(1, 0), (0, 1), (1, -1)])
    return [
        (a, "Arrangement(dim=2, normals=((1, 0), (0, 1), (1, -1)))"),
        (Arrangement(3, ()), "Arrangement(dim=3, normals=())"),
        (IntPoly((0, 4, 1, 0)), "IntPoly(coeffs=(0, 4, 1))"),
        (IntPoly(), "IntPoly(coeffs=())"),
        (TruncatedEgf(1, ((), (Fraction(1, 2), 3, Fraction(0)))),
         "TruncatedEgf(order=1, coeffs=((), (Fraction(1, 2), 3)))"),
    ]


def test_repr():
    for value, text in samples():
        assert repr(value) == text


def test_equality_within_one_class_only():
    values = [value for value, _ in samples()]
    for value in values:
        fields = tuple(getattr(value, f) for f in FIELDS[type(value)])
        assert value == type(value)(*fields)
        assert value != fields and value.__eq__(fields) is NotImplemented
        for other in values:
            if type(other) is not type(value):
                assert value != other and value.__eq__(other) is NotImplemented
    assert IntPoly((1,)) != 1 and IntPoly((1,)) != (1,)


def test_hash_is_the_field_tuples():
    # Hash-dependent orders (sets of values) must not move.
    for value, _ in samples():
        assert hash(value) == hash(tuple(getattr(value, f) for f in FIELDS[type(value)]))


def test_assignment_and_deletion_raise():
    for value, _ in samples():
        for name in (FIELDS[type(value)][0], "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)


def test_keyword_construction():
    assert Arrangement(dim=2, normals=((1, 0),)) == Arrangement(2, ((1, 0),))
    assert IntPoly(coeffs=(1, 2)) == IntPoly((1, 2))
    assert IntPoly() == IntPoly(()) and not IntPoly()
    assert TruncatedEgf(order=0, coeffs=((1,),)) == TruncatedEgf(0, ((1,),))


def test_validation_messages():
    with pytest.raises(ValueError, match=r"^normal \(2, 0\) must be nonzero and primitive_signed$"):
        Arrangement(2, ((2, 0),))
    with pytest.raises(ValueError, match="^ambient dimension -1 must be >= 0$"):
        Arrangement(-1, ())
    with pytest.raises(ValueError, match="^hyperplane dimension mismatch$"):
        Arrangement(3, ((1, 0),))
    with pytest.raises(ValueError, match=r"^duplicate hyperplane \(1, 0\)$"):
        Arrangement(2, ((1, 0), (1, 0)))
    # The checks run in this order: every normal's form, the dimension,
    # then normal by normal its length and its repetition.
    with pytest.raises(ValueError, match=r"^normal \(2, 0\) must"):
        Arrangement(-1, ((1, 0, 0), (1, 0, 0), (2, 0)))
    with pytest.raises(ValueError, match="^ambient dimension -1"):
        Arrangement(-1, ((1, 0, 0), (1, 0)))
    with pytest.raises(ValueError, match=r"^duplicate hyperplane \(1, 0\)$"):
        Arrangement(2, ((1, 0), (1, 0), (1, 0, 0)))
    with pytest.raises(TypeError, match="^integer coefficient required, got 0.5$"):
        IntPoly((1, 0.5))
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        TruncatedEgf(-1, ())
    with pytest.raises(ValueError, match=r"^need exactly order \+ 1 coefficients$"):
        TruncatedEgf(1, ((),))


def test_lattice_cache_hits_an_equal_arrangement():
    a = braid(3)
    b = Arrangement(a.dim, tuple(tuple(list(n)) for n in a.normals))
    assert b is not a and b == a
    assert build_flats(b) is build_flats(a)


def test_copy_and_pickle_round_trip():
    for value, text in samples():
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == text
