"""Exact strict-feasibility oracle for open polyhedral cones.

Decides whether the system  <a_i, x> > 0  for all i,  <b_j, x> = 0  for all j
has a solution, with no floating point anywhere.  Equalities are eliminated
through a nullspace chart; the remaining question "does A y > 0 have a
solution" becomes the homogeneous program

    max t   subject to   A y - t 1 >= 0,  t >= 0,

which is unbounded exactly when the open cone is nonempty.  The simplex runs
on an all-integer tableau (fraction-free pivoting with a shared denominator)
with Dantzig entering and lexicographic leaving, so it terminates and every
answer is certified: "yes" returns a rational interior point.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import dot, nullspace, primitive


def strict_feasible(strict, equalities=(), dim: int | None = None) -> bool:
    """True iff some x satisfies every strict inequality and every equality."""
    return strict_feasible_point(strict, equalities, dim) is not None


def strict_feasible_point(strict, equalities=(), dim: int | None = None):
    """A rational witness x with <a,x> > 0 and <b,x> = 0, or None if infeasible."""
    strict = [tuple(v) for v in strict]
    equalities = [tuple(v) for v in equalities]
    if dim is None:
        sample = strict or equalities
        if not sample:
            raise ValueError("dimension required for an empty system")
        dim = len(sample[0])
    for v in strict + equalities:
        if len(v) != dim:
            raise ValueError("constraint vector length differs from dimension")

    if equalities:
        chart = nullspace(equalities, dim)
    else:
        chart = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    if not strict:
        return tuple(Fraction(0) for _ in range(dim))
    if not chart:
        return None  # equalities pin x = 0, which satisfies no strict constraint

    reduced = []
    for a in strict:
        ai = primitive(a)
        row = tuple(dot(ai, b) for b in chart)
        if not any(row):
            return None  # <a, x> vanishes identically on the equality subspace
        reduced.append(row)

    y = _open_cone_point(reduced, len(chart))
    if y is None:
        return None
    x = tuple(sum(Fraction(c) * b[j] for c, b in zip(y, chart)) for j in range(dim))
    if not all(dot(a, x) > 0 for a in strict):
        raise RuntimeError("simplex point violates a strict constraint")
    return x


def _open_cone_point(rows, m: int):
    """Rational y with row . y > 0 for every row, or None.

    rows: nonzero integer k-vectors of length m >= 1.
    Column layout of the tableau: [t, y+_1..m, y-_1..m, s_1..k].
    """
    k = len(rows)
    ncols = 1 + 2 * m + k
    tab = []
    for i, a in enumerate(rows):
        row = [1] + [-c for c in a] + list(a) + [0] * k
        row[1 + 2 * m + i] = 1
        tab.append(row)
    zrow = [0] * ncols
    zrow[0] = 1  # objective: maximize t
    basis = [1 + 2 * m + i for i in range(k)]
    denom = 1

    while True:
        enter = -1
        best = 0
        for j in range(ncols):
            if zrow[j] > best:
                best = zrow[j]
                enter = j
        if enter < 0:
            return None  # optimum t = 0: the open cone is empty

        candidates = [i for i in range(k) if tab[i][enter] > 0]
        if not candidates:
            return _ray_point(tab, basis, denom, enter, m, k)

        leave = candidates[0]
        for i in candidates[1:]:
            if _lex_less(tab[i], tab[i][enter], tab[leave], tab[leave][enter]):
                leave = i

        # Fraction-free pivot: entries stay integer, shared denominator = old pivot.
        pil = tab[leave]
        p = pil[enter]
        for i in range(k):
            if i != leave:
                ri = tab[i]
                f = ri[enter]
                if f:
                    tab[i] = [(p * ri[j] - f * pil[j]) // denom for j in range(ncols)]
                elif p != denom:
                    tab[i] = [(p * x) // denom for x in ri]
        f = zrow[enter]
        if f:
            zrow = [(p * zrow[j] - f * pil[j]) // denom for j in range(ncols)]
        elif p != denom:
            zrow = [(p * x) // denom for x in zrow]
        basis[leave] = enter
        denom = p


def _lex_less(row_a, piv_a, row_b, piv_b) -> bool:
    """row_a / piv_a < row_b / piv_b lexicographically (both pivots positive)."""
    for x, y in zip(row_a, row_b):
        lhs = x * piv_b
        rhs = y * piv_a
        if lhs != rhs:
            return lhs < rhs
    return False


def _ray_point(tab, basis, denom, enter, m, k):
    """Witness y from the unbounded ray: entering variable 1, basics follow."""
    vals = {enter: Fraction(1)}
    for i in range(k):
        step = -tab[i][enter]
        if step:
            vals[basis[i]] = Fraction(step, denom)
    return tuple(vals.get(1 + j, 0) - vals.get(1 + m + j, 0) for j in range(m))
