"""Exact real-rootedness and interlacing tests for integer polynomials.

All computations run on primitive integer coefficient lists.  Signed
remainder sequences are built with sign-preserving pseudo-remainders (each
step rescales by a positive integer and removes content), so sign-variation
counts are exact.  The sequence of (f, g) ends in gcd(f, g) and has Cauchy
index V(-inf) - V(+inf) equal to Ind(g/f), read off the leading
coefficients alone.  Each answer compares one such index with the degree
of that gcd (``_separates``); nothing is evaluated at a point.  The kernels
are shared: ``_trim`` and ``_deriv`` from ``intpoly``, ``primitive`` from
``linalg``.
"""

from __future__ import annotations

from operator import ne

from .intpoly import IntPoly, _deriv, _trim
from .linalg import primitive

Coeffs = tuple  # integer coefficients, low degree first, trailing nonzero


def _prim(c) -> Coeffs:
    return primitive(_trim(c))


def _pseudo_rem(f, g) -> Coeffs:
    """Remainder of f by g, up to a positive integer multiple; primitive."""
    f = list(f)
    dg, lg = len(g) - 1, g[-1]
    scale, sign = abs(lg), (1 if lg > 0 else -1)
    while len(f) - 1 >= dg:
        lf = f[-1]
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
            seq.append(tuple(-x for x in r))
    return seq


def _index(seq) -> int:
    """V(-inf) - V(+inf): the Cauchy index of seq[1]/seq[0] on the real line
    (0 for a one-element sequence).  No element is zero, so V counts the
    sign changes between neighbours of the leading signs at +inf, and at
    -inf of those signs flipped for odd degree."""
    at_pos = [c[-1] > 0 for c in seq]
    at_neg = [s != (len(c) % 2 == 0) for s, c in zip(at_pos, seq)]
    return sum(map(ne, at_neg, at_neg[1:])) - sum(map(ne, at_pos, at_pos[1:]))


def _separates(f, g) -> bool:
    """True iff |Ind(g/f)| = deg f - deg gcd(f, g), for f nonzero.

    Let h = gcd(f, g), the last element of the signed remainder sequence of
    (f, g).  The sequence's Cauchy index Ind(g/f) = Ind((g/h)/(f/h)) sums
    +-1 or 0 over the distinct real roots of f/h.  Its absolute value
    reaches deg(f/h) exactly when the roots of f/h are real and simple and
    g/h changes sign between each consecutive pair, i.e. when the roots of
    g/h strictly separate those of f/h.  The absolute value covers leading
    coefficients of opposite signs.  With g = f' every distinct real root
    of f counts +1 and deg(f/h) is the number of distinct roots, so the
    test says f is real-rooted.
    """
    seq = _sturm_sequence(f, g)
    return abs(_index(seq)) == len(seq[0]) - len(seq[-1])


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every root of p is real (degree 0 is vacuously real-rooted)."""
    if not p:
        raise ValueError("zero polynomial")
    return _separates(p.coeffs, _deriv(p.coeffs))


def interlaces(g: IntPoly, f: IntPoly) -> bool:
    """True iff the roots of g weakly separate those of f.

    Requires f and g real-rooted with deg g = deg f - 1.  With roots
    a_1 <= ... <= a_d of f and b_1 <= ... <= b_{d-1} of g, the condition is
    a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d.  ``_separates(f, g)`` says
    the roots of g/h strictly separate those of f/h for h = gcd(f, g);
    putting back the common roots h gives weak interlacing of g and f.
    """
    if not f or not g:
        raise ValueError("zero polynomial")
    if g.degree() != f.degree() - 1:
        raise ValueError("degree of g must be one below degree of f")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise ValueError("both polynomials must be real-rooted")
    return _separates(f.coeffs, g.coeffs)
