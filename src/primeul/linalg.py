"""Exact integer linear algebra; rational vectors are scaled to integer ones.

Vectors are tuples of ints or Fractions.  A subspace is keyed by the
canonical primitive-integer reduced row echelon form of its *orthogonal
complement* (the "normal space"), a plain tuple of rows: flats of an
arrangement are intersections of hyperplanes, so accumulating normals keeps
every operation a single integer row reduction, and two subspaces are equal
iff their keys are identical tuples.  ``rref_int`` and the lattice build
share one elimination step, ``_reduce``; no other module takes a gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def rational(vec) -> tuple:
    """vec read once into a tuple; an entry not an int or a Fraction is refused."""
    vec = tuple(vec)
    for c in vec:
        if not isinstance(c, (int, Fraction)):
            raise ValueError(f"entry {c!r} is not an int or a Fraction")
    return vec


def primitive(vec) -> tuple[int, ...]:
    """Integer vector with content 1, same direction (zero stays zero)."""
    try:
        g = gcd(*vec)
    except TypeError:  # a non-integer entry: clear the denominators first
        vec = rational(vec)
        m = lcm(*(c.denominator for c in vec))
        vec = [int(c * m) for c in vec]
        g = gcd(*vec)
    return tuple(vec) if g <= 1 else tuple(c // g for c in vec)


def primitive_signed(vec) -> tuple[int, ...]:
    """Canonical representative of the line through vec: primitive, first nonzero entry positive."""
    p = primitive(vec)
    return tuple(-x for x in p) if next(filter(None, p), 0) < 0 else p


def _reduce(r, d, c) -> tuple[int, ...]:
    """r with column c eliminated by d, whose pivot is c; primitive_signed.
    () when r is a multiple of d."""
    a, b = d[c], r[c]
    v = [a * x - b * y for x, y in zip(r, d)]
    if g := gcd(*v) if next(filter(None, v), 0) > 0 else -gcd(*v):
        return tuple([x // g for x in v]) if g != 1 else tuple(v)
    return ()


def rref_int(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon form over the integers.

    Rows span the same space as the input; each output row is primitive with
    a positive pivot, pivot columns increase, and entries above and below
    every pivot are zero.  Unique for a given row space.
    """
    todo = [primitive_signed(r) for r in rows if any(r)]
    done = []
    for c in range(ncols):
        if not todo:
            break
        # Rows to place are zero left of c: the first with column c is the pivot.
        for i, d in enumerate(todo):
            if d[c]:
                break
        else:
            continue
        del todo[i]
        done = [_reduce(r, d, c) if r[c] else r for r in done] + [d]
        todo = [v for r in todo if (v := _reduce(r, d, c) if r[c] else r)]
    return tuple(done)


def nullspace(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {x : row . x = 0 for every row}, as integer RREF rows."""
    return rref_int(free_solutions(rref_int(rows, ncols), ncols), ncols)


def free_solutions(red, ncols: int) -> list[list[int]]:
    """A basis of the nullspace of the canonical RREF rows red, in any order:
    one integer solution per free column, nonzero there and zero at the
    other free ones."""
    pivots = [row.index(next(filter(None, row))) for row in red]  # first nonzero
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        # x[free] = m and x[pc] = -row[free] * m / row[pc] on each pivot row;
        # m, the lcm of the pivots of the rows touching the free column,
        # keeps x integral.
        m = lcm(*[row[pc] for row, pc in zip(red, pivots) if row[free]])
        vec = [0] * ncols
        vec[free] = m
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free] * (m // row[pc])
        basis.append(vec)
    return basis
