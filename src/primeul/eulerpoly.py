"""The primitive Eulerian polynomial of an arrangement by four routes:

1. mobius:    sum of |mu(bot, X)| (z-1)^corank over the lattice of flats;
2. recursive: deletion-style recursion over a pivot hyperplane, run on
              intervals of the one lattice of flats;
3. halfspace: graded face count of a very generic halfspace, reparametrized;
4. descents:  descent statistic over the regions inside such a halfspace.

Also the cocharacteristic polynomial, the f-to-h transform check, and the
descent polynomial over all regions (the Eulerian polynomial of the
arrangement).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arrangement import (Arrangement, build_flats, is_very_generic_vector,
                          very_generic_failure)
from .faces import (enumerate_faces, enumerate_regions, faces_in_halfspace,
                    is_simplicial)
from .intpoly import IntPoly, Z, ZM1
from .linalg import dot, rref_int
from .weakorder import WeakOrder

__all__ = [
    "primitive_eulerian_mobius", "cocharacteristic", "peul_from_cochar",
    "primitive_eulerian_recursive", "cochar_via_halfspace",
    "primitive_eulerian_descents", "h_poly_relation_check", "eulerian_poly",
    "find_very_generic", "perturb_blocked_vector", "base_region_of",
]


def primitive_eulerian_mobius(a: Arrangement) -> IntPoly:
    """sum_X |mu(bot, X)| (z-1)^{corank of X}; monic of degree rank(a)."""
    return peul_from_cochar(cocharacteristic(a), build_flats(a).rank)


def cocharacteristic(a: Arrangement) -> IntPoly:
    """sum_X |mu(bot, X)| z^{grade of X above bot} (nonnegative coefficients)."""
    lattice = build_flats(a)
    coeffs = [0] * (lattice.rank + 1)
    for i in range(len(lattice.flats)):
        coeffs[lattice.grade(i)] += abs(lattice.mobius_bottom[i])
    return IntPoly(tuple(coeffs))


def peul_from_cochar(psi: IntPoly, r: int) -> IntPoly:
    """Exact expansion of (z-1)^r psi(1/(z-1))."""
    if psi.degree() > r:
        raise ValueError("cocharacteristic degree exceeds the rank")
    out = IntPoly()
    for k, c in enumerate(psi.coeffs):
        out = out + c * ZM1 ** (r - k)
    return out


def primitive_eulerian_recursive(a: Arrangement) -> IntPoly:
    """Recursion P = (z-1) P_{restriction} + sum over rank-1 flats off the
    pivot of P_{localization}, on intervals [lo, hi] of the lattice of flats:
    the pivot is the first coatom C of [lo, hi], its restriction is [lo, C],
    and the localization at an atom X not below C is [X, hi].  An interval
    with as many coatoms as its rank is Boolean, with P = z^rank."""
    lattice = build_flats(a)
    leq = lattice.leq
    memo: dict[tuple[int, int], IntPoly] = {}

    def peul(lo: int, hi: int) -> IntPoly:
        if (lo, hi) not in memo:
            coatoms = [c for c in lattice.covers_below[hi] if leq(lo, c)]
            r = lattice.grade(hi) - lattice.grade(lo)
            if len(coatoms) == r:
                memo[lo, hi] = Z ** r
            else:
                pivot = coatoms[0]
                memo[lo, hi] = sum((peul(x, hi) for x in lattice.covers_above[lo]
                                    if leq(x, hi) and not leq(x, pivot)),
                                   ZM1 * peul(lo, pivot))
        return memo[lo, hi]

    return peul(lattice.bottom_index, lattice.top_index)


def _canonical_halfspace_candidates(a: Arrangement):
    n = a.dim
    yield tuple(2 ** i for i in range(n))
    blocked = tuple([-1] * (n - 1) + [n - 1])
    tilt = tuple(range(1, n + 1))
    v = perturb_blocked_vector(a, blocked, tilt)
    if v is not None:
        yield v


def perturb_blocked_vector(a: Arrangement, v, direction):
    """v + eps * direction with eps > 0 rational, small enough that no sign
    of v against a hyperplane normal or a rank-1 flat direction changes.

    Returns None when the direction cannot clear a blocked sign (both dot
    products vanish somewhere).
    """
    lattice = build_flats(a)
    tests = [h.normal for h in a.hyperplanes]
    tests += lattice.grade_one_directions()
    eps = None
    for u in tests:
        pv = dot(u, v)
        pd = dot(u, direction)
        if pv == 0:
            if pd == 0:
                return None
            continue
        if pd == 0:
            continue
        bound = Fraction(abs(pv), abs(pd))
        if eps is None or bound < eps:
            eps = bound
    eps = Fraction(1) if eps is None else eps / 2
    return tuple(Fraction(x) + eps * d for x, d in zip(v, direction))


def find_very_generic(a: Arrangement, seed: int = 0):
    """A deterministic very generic vector: canonical candidates first, then
    seeded random integer combinations of the span of the normals."""
    for v in _canonical_halfspace_candidates(a):
        if is_very_generic_vector(a, v):
            return v
    span = rref_int(a.normals, a.dim)
    if not span:
        raise ValueError("trivial arrangement has no very generic vector")
    rng = random.Random(seed)
    for _ in range(10000):
        coeffs = [rng.randint(-99, 99) for _ in span]
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, span))
                  for j in range(a.dim))
        if is_very_generic_vector(a, v):
            return v
    raise RuntimeError("no very generic vector found")


def base_region_of(a: Arrangement, v) -> tuple:
    """Sign vector of the region containing a generic point v."""
    signs = []
    for h in a.hyperplanes:
        s = dot(h.normal, v)
        if s == 0:
            raise ValueError("v lies on a hyperplane")
        signs.append(1 if s > 0 else -1)
    return tuple(signs)


def cochar_via_halfspace(a: Arrangement, v) -> IntPoly:
    """Graded count of the faces inside the halfspace {<v, x> <= 0}."""
    failure = very_generic_failure(a, v)
    if failure is not None:
        raise ValueError(f"v not very generic: {failure}")
    fan = enumerate_faces(a)
    return IntPoly.from_counts(fan.grade(f) for f in faces_in_halfspace(fan, v))


class UpperSetError(ValueError):
    """The regions inside the halfspace fail to be an upper set."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"regions in the halfspace are not an upper set: region {witness[0]} "
            f"is inside but its cover {witness[1]} is not")


def primitive_eulerian_descents(a: Arrangement, v=None, seed: int = 0) -> IntPoly:
    """sum of z^{descents(C)} over regions inside the halfspace of v, with
    base region the one containing v.

    Requires a simplicial arrangement and a very generic v; the upper-set
    property of the contained regions is checked, not assumed.
    """
    if not is_simplicial(a):
        raise ValueError("descent path requires a simplicial arrangement")
    if v is None:
        v = find_very_generic(a, seed)
    else:
        failure = very_generic_failure(a, v)
        if failure is not None:
            raise ValueError(f"v not very generic: {failure}")
    base = base_region_of(a, v)
    order = WeakOrder(a, base)
    contained = list(filter(enumerate_faces(a).halfspace_test(v), order.regions))
    witness = order.upper_set_failure(contained)
    if witness is not None:
        raise UpperSetError(witness)
    return IntPoly.from_counts(order.descents(c) for c in contained)


def h_poly_relation_check(a: Arrangement, v=None, seed: int = 0) -> bool:
    """Verify z^r h(Sigma(h), 1/z) equals the mobius-path polynomial, with h
    computed from the face counts of the halfspace complex by the standard
    f-to-h transform at rank r."""
    if not is_simplicial(a):
        raise ValueError("h-polynomial check requires a simplicial arrangement")
    if v is None:
        v = find_very_generic(a, seed)
    psi = cochar_via_halfspace(a, v)
    r = build_flats(a).rank
    # h(y) = sum_k f_{k-1} y^k (1-y)^{r-k}, where f_{k-1} counts grade-k faces.
    one_minus_y = IntPoly((1, -1))
    h = IntPoly()
    for k, fk in enumerate(psi.coeffs):
        h = h + fk * Z ** k * one_minus_y ** (r - k)
    lhs = h.reverse(r)  # z^r h(1/z)
    return lhs == primitive_eulerian_mobius(a)


def eulerian_poly(a: Arrangement, base=None) -> IntPoly:
    """Descent generating polynomial over all regions; base-independent for
    simplicial arrangements."""
    if not is_simplicial(a):
        raise ValueError("descent polynomial requires a simplicial arrangement")
    regions = enumerate_regions(a)
    if base is None:
        base = regions[0]
    order = WeakOrder(a, base)
    return IntPoly.from_counts(order.descents(c) for c in regions)
