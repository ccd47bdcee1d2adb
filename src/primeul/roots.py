"""Exact real-root counting and interlacing tests for integer polynomials.

All computations run on primitive integer coefficient lists.  Signed
remainder sequences are built with sign-preserving pseudo-remainders (each
step rescales by a positive integer and removes content), so sign-variation
counts are exact.  The sequence of (f, g) has Cauchy index
V(-inf) - V(+inf) equal to Ind(g/f), read off the leading coefficients
alone; with g = f' it counts the distinct real roots of f.  Root
multiplicity is recovered by repeated gcd with the derivative.  Nothing is
evaluated at a point: every answer is read off an index.
"""

from __future__ import annotations

from math import gcd

from .intpoly import IntPoly

Coeffs = tuple  # integer coefficients, low degree first, trailing nonzero


def _prim(c) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    g = gcd(*c)
    if g > 1:
        c = [x // g for x in c]
    return tuple(c)


def _deriv(c) -> Coeffs:
    return tuple(i * x for i, x in enumerate(c) if i)


def _neg(c) -> Coeffs:
    return tuple(-x for x in c)


def _positive(c) -> Coeffs:
    """c or -c, whichever has a positive leading coefficient."""
    return c if c[-1] > 0 else _neg(c)


def _pseudo_rem(f, g) -> Coeffs:
    """Remainder of f by g, up to a positive integer multiple; primitive."""
    f = list(f)
    lg = g[-1]
    dg = len(g) - 1
    scale = abs(lg)
    sign = 1 if lg > 0 else -1
    while len(f) - 1 >= dg and any(f):
        lf = f[-1]
        if lf == 0:
            f.pop()
            continue
        shift = len(f) - 1 - dg
        f = [scale * x for x in f]
        for j, gx in enumerate(g):
            f[shift + j] -= sign * lf * gx
        while f and f[-1] == 0:
            f.pop()
    return _prim(f)


def _sturm_sequence(f, g) -> list[Coeffs]:
    """f, g and the negated pseudo-remainders down to +-gcd(f, g), all
    primitive; just [f] when g is zero."""
    seq = [_prim(f)]
    g = _prim(g)
    if g:
        seq.append(g)
        while r := _pseudo_rem(seq[-2], seq[-1]):
            seq.append(_neg(r))
    return seq


def _sturm_chain(c) -> list[Coeffs]:
    return _sturm_sequence(c, _deriv(c))


def _gcd_chains(c):
    """Sturm chains of p, of gcd(p, p'), of that gcd's gcd with its own
    derivative, and so on down to a constant.

    An m-fold root of p is an (m-1)-fold root of gcd(p, p'), so summing
    distinct-root counts over the chains counts roots with multiplicity.
    """
    c = _prim(c)
    while len(c) > 1:
        chain = _sturm_chain(c)
        yield chain
        c = _positive(chain[-1])


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    prev = 0
    count = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _index(seq) -> int:
    """V(-inf) - V(+inf): the Cauchy index of seq[1]/seq[0] on the real line
    (0 for a one-element sequence)."""
    return (_variations(_sign(c[-1]) * (-1) ** (len(c) - 1) for c in seq)
            - _variations(_sign(c[-1]) for c in seq))


def distinct_real_roots(p: IntPoly) -> int:
    """Number of distinct real roots."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return _index(_sturm_chain(p.coeffs))


def real_root_count(p: IntPoly) -> int:
    """Number of real roots counted with multiplicity."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return sum(map(_index, _gcd_chains(p.coeffs)))


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every root of p is real (degree 0 is vacuously real-rooted)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return real_root_count(p) == p.degree()


def interlaces(g: IntPoly, f: IntPoly) -> bool:
    """True iff the roots of g weakly separate those of f.

    Requires f and g real-rooted with deg g = deg f - 1.  With roots
    a_1 <= ... <= a_d of f and b_1 <= ... <= b_{d-1} of g, the condition is
    a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d.  Let h = gcd(f, g), the last
    element of the signed remainder sequence of (f, g).  The sequence's
    Cauchy index Ind(g/f) = Ind((g/h)/(f/h)) sums +-1 or 0 over the distinct
    real roots of f/h.  Its absolute value reaches deg(f/h) exactly when the
    roots of f/h are real and simple and g/h changes sign between each
    consecutive pair, i.e. when the roots of g/h strictly separate those of
    f/h; putting back the common roots h gives weak interlacing of g and f.
    The absolute value covers leading coefficients of opposite signs.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("zero polynomial")
    if g.degree() != f.degree() - 1:
        raise ValueError("degree of g must be one below degree of f")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise ValueError("both polynomials must be real-rooted")
    seq = _sturm_sequence(f.coeffs, g.coeffs)
    return abs(_index(seq)) == f.degree() - (len(seq[-1]) - 1)
