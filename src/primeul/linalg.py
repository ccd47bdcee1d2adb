"""Exact rational linear algebra on integer-scaled vectors.

Vectors are tuples of ints or Fractions.  Subspaces are represented by the
canonical primitive-integer reduced row echelon form of their *orthogonal
complement* (the "normal space"): flats of an arrangement are intersections
of hyperplanes, so accumulating normals keeps every operation a single
integer row reduction.  Two subspaces are equal iff their canonical forms
are identical tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

Vector = tuple


def dot(u, v):
    return sum(map(mul, u, v))


def scale_to_int(vec) -> tuple[int, ...]:
    """Clear denominators: integer vector pointing the same way."""
    if all(type(c) is int for c in vec):
        return tuple(vec)
    m = 1
    for c in vec:
        if isinstance(c, Fraction):
            d = c.denominator
            m = m * d // gcd(m, d)
    return tuple(int(c * m) for c in vec)


def primitive(vec) -> tuple[int, ...]:
    """Integer vector with content 1, same direction (zero stays zero)."""
    try:
        g = gcd(*vec)
    except TypeError:  # a non-integer entry: clear the denominators first
        vec = scale_to_int(vec)
        g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(c // g for c in vec)


def primitive_signed(vec) -> tuple[int, ...]:
    """Canonical representative of the line through vec: primitive, first nonzero entry positive."""
    p = primitive(vec)
    for c in p:
        if c:
            return p if c > 0 else tuple(-x for x in p)
    return p


def rref_int(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon form over the integers.

    Rows span the same space as the input; each output row is primitive with
    a positive pivot, pivot columns increase, and entries above and below
    every pivot are zero.  Unique for a given row space.
    """
    mat = [list(primitive(r)) for r in rows if any(r)]
    if not mat:
        return ()
    nrows = len(mat)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        pval = prow[c]
        for i in range(nrows):
            if i != r and mat[i][c]:
                v = mat[i][c]
                row = [pval * a - v * b for a, b in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == nrows:
            break
    # Rows changed by the elimination were divided by their gcd, so every
    # row is primitive already; only the pivot's sign is left to fix.
    out = []
    for row in mat[:r]:
        lead = next(c for c in row if c)
        out.append(tuple(row) if lead > 0 else tuple(-x for x in row))
    return tuple(out)


def rank(rows, ncols: int) -> int:
    return len(rref_int(rows, ncols))


def nullspace(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {x : row . x = 0 for every row}, as integer RREF rows."""
    red = rref_int(rows, ncols)
    pivots = []
    for row in red:
        pivots.append(next(c for c in range(ncols) if row[c]))
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -Fraction(row[free], row[pc])
        basis.append(tuple(vec))
    return rref_int(basis, ncols)


def in_rowspace(vec, red_rows, ncols: int) -> bool:
    """True iff vec lies in the row space spanned by red_rows."""
    if not any(vec):
        return True
    if not red_rows:
        return False
    return len(rref_int(tuple(red_rows) + (tuple(vec),), ncols)) == len(red_rows)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^ambient, canonically keyed by its normal space."""

    ambient: int
    normals: tuple[tuple[int, ...], ...]  # canonical integer RREF of the orthogonal complement

    @classmethod
    def from_normals(cls, vectors, ambient: int) -> Subspace:
        return cls(ambient, rref_int(vectors, ambient))

    @classmethod
    def full(cls, ambient: int) -> Subspace:
        return cls(ambient, ())

    @property
    def dim(self) -> int:
        return self.ambient - len(self.normals)

    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Canonical integer basis rows spanning the subspace."""
        return nullspace(self.normals, self.ambient)

    def contains_vector(self, vec) -> bool:
        return all(dot(n, vec) == 0 for n in self.normals)

    def contains(self, other: Subspace) -> bool:
        """True iff other is a subspace of self."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        merged = rref_int(other.normals + self.normals, self.ambient)
        return len(merged) == len(other.normals)

    def intersect(self, other: Subspace) -> Subspace:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient, rref_int(self.normals + other.normals, self.ambient))

