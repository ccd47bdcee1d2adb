from fractions import Fraction

import pytest

from primeul.linalg import (Subspace, dot, in_rowspace, nullspace, primitive,
                            primitive_signed, rank, rref, rref_int,
                            subspace_intersect)


def test_rref_identity_fixed_point():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rref_int(ident, 3) == ident
    assert rref(ident, 3) == tuple(tuple(Fraction(x) for x in r) for r in ident)


def test_rref_dependent_rows_collapse():
    assert rref_int([(1, 1), (2, 2)], 2) == ((1, 1),)


def test_rref_scaling_normalization():
    assert rref_int([(0, 2), (3, 0)], 2) == ((1, 0), (0, 1))


def test_rref_idempotent_and_rowspace_preserving():
    rows = [(2, 4, 6), (1, 1, 1), (3, 5, 7)]
    red = rref_int(rows, 3)
    assert rref_int(red, 3) == red
    assert rank(rows, 3) == rank(red, 3)
    for r in rows:
        assert in_rowspace(r, red, 3)


def test_rref_fraction_input():
    red = rref_int([(Fraction(1, 2), Fraction(1, 3))], 2)
    assert red == ((3, 2),)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive_signed((-2, 4)) == (1, -2)
    assert primitive_signed((0, -5)) == (0, 1)


def test_nullspace():
    ns = nullspace([(1, -1, 0)], 3)
    assert len(ns) == 2
    for v in ns:
        assert dot(v, (1, -1, 0)) == 0
    assert nullspace([(1, 0), (0, 1)], 2) == ()
    assert nullspace([], 2) == ((1, 0), (0, 1))


def test_subspace_intersection_planes():
    # x = 0 and y = 0 in R^3 meet in the z-axis
    a = Subspace.from_normals([(1, 0, 0)], 3)
    b = Subspace.from_normals([(0, 1, 0)], 3)
    c = subspace_intersect(a, b)
    assert c.dim == 1
    assert c.basis() == ((0, 0, 1),)


def test_subspace_intersection_idempotent():
    s = Subspace.from_normals([(1, 2, 3)], 3)
    assert subspace_intersect(s, s) == s


def test_subspace_intersection_to_origin():
    a = Subspace.from_normals([(1, -1)], 2)  # x = y
    b = Subspace.from_normals([(1, 1)], 2)   # x = -y
    c = subspace_intersect(a, b)
    assert c.dim == 0


def test_subspace_contains():
    plane = Subspace.from_normals([(0, 0, 1)], 3)
    line = Subspace.from_normals([(0, 0, 1), (0, 1, 0)], 3)
    assert plane.contains(line)
    assert not line.contains(plane)
    assert plane.contains_vector((5, -2, 0))
    assert not plane.contains_vector((0, 0, 1))


def test_subspace_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).intersect(Subspace.full(3))
