"""Exact real-root counting and interlacing tests for integer polynomials.

All computations run on primitive integer coefficient lists.  Sturm chains
are built with sign-preserving pseudo-remainders (each step rescales by a
positive integer and removes content), so sign-variation counts are exact.
Root multiplicity is recovered by repeated gcd with the derivative; interval
work (isolation, counting up to a point) always evaluates chains of
square-free polynomials, where variation counts are well behaved even at
rational roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .intpoly import IntPoly

Coeffs = tuple  # integer coefficients, low degree first, trailing nonzero


def _content(c) -> int:
    g = 0
    for x in c:
        g = gcd(g, x)
    return g


def _prim(c) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    g = _content(c)
    if g > 1:
        c = [x // g for x in c]
    return tuple(c)


def _deriv(c) -> Coeffs:
    return tuple(i * x for i, x in enumerate(c) if i)


def _neg(c) -> Coeffs:
    return tuple(-x for x in c)


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


def _exact_div(f, g) -> Coeffs:
    """Quotient f / g for integer polynomials with g | f (raises otherwise)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        lf = f[-1]
        if lf % lg:
            raise ArithmeticError("inexact polynomial division")
        t = lf // lg
        shift = len(f) - 1 - dg
        q[shift] = t
        for j, gx in enumerate(g):
            f[shift + j] -= t * gx
        while f and f[-1] == 0:
            f.pop()
    if any(f):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _sturm_chain(c) -> list[Coeffs]:
    chain = [_prim(c)]
    d = _prim(_deriv(c))
    if d:
        chain.append(d)
        while True:
            r = _pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_neg(r))
    return chain


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
        c = chain[-1] if chain[-1][-1] > 0 else _neg(chain[-1])


def _gcd_with_deriv(c) -> Coeffs:
    """Primitive gcd(p, p') with positive leading coefficient."""
    chain = _sturm_chain(c)
    if len(chain) < 2:
        return (1,)
    g = chain[-1]  # last nonzero remainder is gcd(p, p') up to sign
    return g if g[-1] > 0 else _neg(g)


def _square_free_part(c) -> Coeffs:
    g = _gcd_with_deriv(c)
    if len(g) == 1:
        return _prim(c)
    return _prim(_exact_div(_prim(c), g))


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


def _var_at_minus_inf(chain) -> int:
    return _variations(_sign(c[-1]) * (-1) ** (len(c) - 1) for c in chain)


def _var_at_plus_inf(chain) -> int:
    return _variations(_sign(c[-1]) for c in chain)


def _eval(c, x: Fraction):
    acc = 0
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _var_at(chain, x: Fraction) -> int:
    return _variations(_sign(_eval(c, x)) for c in chain)


def distinct_real_roots(p: IntPoly) -> int:
    """Number of distinct real roots."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    c = _prim(p.coeffs)
    if len(c) == 1:
        return 0
    chain = _sturm_chain(c)
    return _var_at_minus_inf(chain) - _var_at_plus_inf(chain)


def real_root_count(p: IntPoly) -> int:
    """Number of real roots counted with multiplicity."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return sum(_var_at_minus_inf(chain) - _var_at_plus_inf(chain)
               for chain in _gcd_chains(p.coeffs))


def is_real_rooted(p: IntPoly) -> bool:
    """True iff every root of p is real (degree 0 is vacuously real-rooted)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return real_root_count(p) == p.degree()


def _cauchy_bound(c) -> Fraction:
    lead = abs(c[-1])
    return 1 + max(Fraction(abs(x), lead) for x in c)


def isolate_real_roots(p: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b], one per distinct real root of p.

    Bisection driven by Sturm counts on the square-free part of p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = _square_free_part(p.coeffs)
    if len(sf) == 1:
        return []
    chain = _sturm_chain(sf)
    bound = _cauchy_bound(sf)
    out = []
    stack = [(-bound, bound, _var_at(chain, -bound), _var_at(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _var_at(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


def _root_count_leq(p: IntPoly, x: Fraction) -> int:
    """Real roots of p in (-inf, x], with multiplicity; x must not be a root
    of p (the iterated gcds then cannot vanish at x either)."""
    return sum(_var_at_minus_inf(chain) - _var_at(chain, x)
               for chain in _gcd_chains(p.coeffs))


def interlaces(g: IntPoly, f: IntPoly) -> bool:
    """True iff the roots of g weakly separate those of f.

    Requires f and g real-rooted with deg g = deg f - 1.  With roots
    a_1 <= ... <= a_d of f and b_1 <= ... <= b_{d-1} of g, the condition is
    a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d, which holds iff
    N_f(t) - 1 <= N_g(t) <= N_f(t) for every real t, where N_p(t) counts the
    roots of p in (-inf, t] with multiplicity.  Both count functions are
    constant between consecutive distinct roots of f*g, so it suffices to
    test one rational non-root point inside each such interval.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("zero polynomial")
    if g.degree() != f.degree() - 1:
        raise ValueError("degree of g must be one below degree of f")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise ValueError("both polynomials must be real-rooted")
    if g.degree() == 0:
        return True

    product = f * g
    intervals = isolate_real_roots(product)
    sf = _square_free_part(product.coeffs)
    chain = _sturm_chain(sf)

    def halve(iv):
        a, b = iv
        mid = (a + b) / 2
        if _var_at(chain, a) - _var_at(chain, mid) == 1:
            return a, mid
        return mid, b

    # Shrink until consecutive intervals have a strict gap between them, so
    # that midpoints of the gaps are guaranteed non-roots.
    changed = True
    while changed:
        changed = False
        for i in range(len(intervals) - 1):
            if intervals[i][1] >= intervals[i + 1][0]:
                intervals[i] = halve(intervals[i])
                intervals[i + 1] = halve(intervals[i + 1])
                changed = True

    points = [intervals[0][0]]
    for i in range(len(intervals) - 1):
        points.append((intervals[i][1] + intervals[i + 1][0]) / 2)
    points.append(intervals[-1][1] + 1)

    for t in points:
        nf = _root_count_leq(f, t)
        ng = _root_count_leq(g, t)
        if not (nf - 1 <= ng <= nf):
            return False
    return True
