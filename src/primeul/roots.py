"""Exact real-rootedness and interlacing tests for integer polynomials.

Real-rootedness is first tried by a certificate of sign changes
(``_certificate``).  Divide out z^m and make the leading coefficient
positive; if every coefficient of the result f is then positive, f(0) > 0,
f has sign (-1)^d at -inf (d = deg f), and points 0 > s_1 > ... > s_{d-1}
with sign f(s_i) = (-1)^i give a sign change in each of the d intervals
(s_1, 0), ..., (-inf, s_{d-1}).  By the intermediate value theorem f then
has d distinct negative roots, which are all its roots.  Floats only
propose the points (``_propose``), as dyadic rationals N/2^s; every sign
is found exactly, by integer Horner on 2^(sd) f(N/2^s).  The certificate
can only say True.

Sturm is the fallback and the only refuter.  Signed remainder sequences
are built with sign-preserving pseudo-remainders (each step rescales by a
positive integer and removes content), so sign-variation counts are exact.
The sequence of (f, g) ends in gcd(f, g) and has Cauchy index
V(-inf) - V(+inf) equal to Ind(g/f), read off the leading coefficients
alone.  Each Sturm answer compares one such index with the degree of that
gcd (``_separates``).  Interlacing is decided by Sturm alone.  The kernels
are shared: ``_trim`` and ``_deriv`` from ``intpoly``, ``primitive`` from
``linalg``.
"""

from __future__ import annotations

from math import floor, log2
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


def _propose(f) -> list[tuple[int, int]]:
    """Trial points for the certificate of f, whose coefficients are all
    positive, as pairs (a, e) for the dyadic rational a 2^e.  The roots of
    such an f, when real, lie near -f_{i-1}/f_i, so each gap between
    consecutive log2 ratios gets two log-spaced points -2^t, rounded to
    8-bit mantissas.  Floats only propose: no answer rests on them."""
    ts = sorted(log2(a) - log2(b) for a, b in zip(f, f[1:]))
    points = []
    for u, v in zip(ts, ts[1:]):
        for t in (u + (v - u) / 3, v - (v - u) / 3):
            e = floor(t) - 7
            points.append((-round(2 ** (t - e)), e))  # mantissa 128..256
    return points


def _certificate(c) -> tuple[list[int], int] | None:
    """Points 0 > N_1/2^s > ... > N_{d-1}/2^s, as (N, s), at which f has the
    signs -1, +1, ..., (-1)^(d-1), where f is c over its lowest power of z,
    negated if its leading coefficient is negative, and d = deg f.  None
    when f has a coefficient <= 0 or the proposed points show fewer sign
    changes.  Such points prove that f has d distinct negative roots
    (module docstring).

    The proposed points are put over one denominator 2^s, sorted and
    deduplicated as integers N, and the sign of f(N/2^s) is that of
    2^(sd) f(N/2^s) = sum_i f_i N^i 2^(s(d-i)), by integer Horner."""
    f = c[next(i for i, x in enumerate(c) if x):]
    if f[-1] < 0:
        f = tuple(-x for x in f)
    if min(f) <= 0:
        return None
    points = _propose(f)
    s = max([0] + [-e for _, e in points])
    d, witness, want = len(f) - 1, [], -1
    for n in sorted({a << e + s for a, e in points if a < 0}, reverse=True):
        if len(witness) >= d - 1:
            break
        h = f[-1]
        for k, x in enumerate(f[-2::-1], 1):
            h = h * n + (x << s * k)
        if h * want > 0:
            witness.append(n)
            want = -want
    return (witness, s) if len(witness) >= d - 1 else None


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every root of p is real (degree 0 is vacuously real-rooted).

    A certificate of sign changes settles p when it can; otherwise, and
    for every False, Sturm decides (module docstring)."""
    if not p:
        raise ValueError("zero polynomial")
    c = p.coeffs
    return _certificate(c) is not None or _separates(c, _deriv(c))


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
