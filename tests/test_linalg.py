import random
from fractions import Fraction
from math import gcd

import pytest

from primeul.arrangement import Arrangement
from primeul.linalg import dot, nullspace, primitive, primitive_signed, rref_int


def in_rowspace(vec, red_rows, ncols: int) -> bool:
    """True iff vec lies in the row space spanned by red_rows."""
    return len(rref_int(tuple(red_rows) + (tuple(vec),), ncols)) == len(red_rows)


def test_rref_identity_fixed_point():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rref_int(ident, 3) == ident


def test_rref_dependent_rows_collapse():
    assert rref_int([(1, 1), (2, 2)], 2) == ((1, 1),)


def test_rref_scaling_normalization():
    assert rref_int([(0, 2), (3, 0)], 2) == ((1, 0), (0, 1))


def test_rref_idempotent_and_rowspace_preserving():
    rows = [(2, 4, 6), (1, 1, 1), (3, 5, 7)]
    red = rref_int(rows, 3)
    assert rref_int(red, 3) == red
    assert len(rref_int(rows, 3)) == len(red)
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


@pytest.mark.parametrize("normal", [(0.5, 1), (1, 1.0), (Fraction(1, 2), 0.25)])
def test_float_entries_are_refused(normal):
    # int(c * m) truncated a float once the Fraction denominators were
    # cleared: (0.5, 1) became the normal (0, 1).  The refusal names the
    # first entry that is not an int or a Fraction.
    bad = next(c for c in normal if isinstance(c, float))
    with pytest.raises(ValueError, match=f"^entry {bad} is not an int or a Fraction$"):
        primitive(normal)
    with pytest.raises(ValueError, match=f"^entry {bad} is not an int or a Fraction$"):
        Arrangement.from_normals([normal, (1, 0)])
    assert Arrangement.from_normals([(Fraction(1, 2), 1), (1, 0)]).normals == ((1, 2), (1, 0))


def test_nullspace():
    ns = nullspace([(1, -1, 0)], 3)
    assert len(ns) == 2
    for v in ns:
        assert dot(v, (1, -1, 0)) == 0
    assert nullspace([(1, 0), (0, 1)], 2) == ()
    assert nullspace([], 2) == ((1, 0), (0, 1))


def _oracle_scale_to_int(vec):
    if all(type(c) is int for c in vec):
        return tuple(vec)
    m = 1
    for c in vec:
        if isinstance(c, Fraction):
            d = c.denominator
            m = m * d // gcd(m, d)
    return tuple(int(c * m) for c in vec)


def _oracle_primitive(vec):
    iv = _oracle_scale_to_int(vec)
    g = gcd(*iv)
    return iv if g <= 1 else tuple(c // g for c in iv)


def _oracle_rref(rows, ncols):
    """Row reduction with every row scaled to integers by a test for
    all-int entries, kept here as the reference for rref_int."""
    mat = [list(_oracle_primitive(r)) for r in rows if any(r)]
    nrows, r = len(mat), 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow, pval = mat[r], mat[r][c]
        for i in range(nrows):
            if i != r and mat[i][c]:
                v = mat[i][c]
                row = [pval * a - v * b for a, b in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == nrows:
            break
    out = []
    for row in mat[:r]:
        lead = next(c for c in row if c)
        out.append(tuple(row) if lead > 0 else tuple(-x for x in row))
    return tuple(out)


def _oracle_nullspace(rows, ncols):
    red = _oracle_rref(rows, ncols)
    pivots = [next(c for c in range(ncols) if row[c]) for row in red]
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for row, pc in zip(red, pivots):
                vec[pc] = -Fraction(row[free], row[pc])
            basis.append(tuple(vec))
    return _oracle_rref(basis, ncols)


def test_rref_and_nullspace_against_reference():
    # Integer rows take the gcd directly and only rows with a Fraction are
    # scaled first; the output must not depend on which way a row went.
    rng = random.Random(11)
    for trial in range(3000):
        ncols = rng.randint(1, 5)

        def entry():
            x = rng.randint(-6, 6)
            return Fraction(x, rng.randint(1, 4)) if trial % 2 else x

        rows = [tuple(entry() for _ in range(ncols)) for _ in range(rng.randint(0, 5))]
        assert rref_int(rows, ncols) == _oracle_rref(rows, ncols), rows
        assert nullspace(rows, ncols) == _oracle_nullspace(rows, ncols), rows


def test_rref_is_canonical():
    # Keys of flats are compared as tuples, so the output must depend on
    # the row space alone: not on row order, on a nonzero scale of
    # each row, or on zero and repeated rows.  Same draws as the oracle test.
    rng, edit = random.Random(11), random.Random(12)
    for trial in range(3000):
        ncols = rng.randint(1, 5)

        def entry():
            x = rng.randint(-6, 6)
            return Fraction(x, rng.randint(1, 4)) if trial % 2 else x

        rows = [tuple(entry() for _ in range(ncols)) for _ in range(rng.randint(0, 5))]
        scales = [edit.choice((-3, -2, -1, 1, 2, 5)) for _ in rows]
        variant = [tuple(k * x for x in r) for k, r in zip(scales, rows)]
        variant += [(0,) * ncols] * edit.randint(0, 2)
        variant += edit.sample(rows, min(len(rows), edit.randint(0, 2)))
        edit.shuffle(variant)
        assert rref_int(variant, ncols) == rref_int(rows, ncols), (rows, variant)
