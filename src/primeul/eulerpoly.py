"""The primitive Eulerian polynomial of an arrangement by four routes:

1. mobius:    sum of |mu(bot, X)| (z-1)^corank over the lattice of flats;
2. recursive: deletion-style recursion over a pivot hyperplane, run on
              intervals of the one lattice of flats, with each interval's
              polynomial kept as a tuple of integer coefficients;
3. halfspace: graded face count of a very generic halfspace, reparametrized:
              the fan's faces by flat minus the closure of the rays
              outside the halfspace;
4. descents:  descents in the weak order based at the region of v, over
              the regions inside such a halfspace.

Also the cocharacteristic polynomial, the f-to-h transform check, and the
descent polynomial over all regions (the Eulerian polynomial of the
arrangement).  Regions stay packed as ``faces`` encodes them; only the
witness of an ``UpperSetError`` is decoded to sign tuples.
"""

from __future__ import annotations

import random

from .arrangement import (Arrangement, build_flats, is_very_generic_vector,
                          very_generic_failure)
from .faces import WeakOrder, base_region_of, enumerate_faces, is_simplicial
from .intpoly import IntPoly, Z, ZM1

def primitive_eulerian_mobius(a: Arrangement) -> IntPoly:
    """sum_X |mu(bot, X)| (z-1)^{corank of X}; monic of degree rank(a)."""
    return peul_from_cochar(cocharacteristic(a), build_flats(a).rank)


def cocharacteristic(a: Arrangement) -> IntPoly:
    """sum_X |mu(bot, X)| z^{grade of X above bot} (nonnegative coefficients)."""
    lattice = build_flats(a)
    coeffs = [0] * (lattice.rank + 1)
    for dim, mu in zip(lattice.dims, lattice.mobius_bottom):
        coeffs[dim - lattice.bottom_dim] += abs(mu)
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
    with as many coatoms as its rank is Boolean, with P = z^rank.  Each
    interval's P is memoized as a coefficient tuple, low degree first; flat
    x lies below flat y iff the mask of y is a subset of the mask of x."""
    lattice = build_flats(a)
    masks, below, above, dims = (lattice.masks, lattice.covers_below,
                                 lattice.covers_above, lattice.dims)
    memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def peul(lo: int, hi: int) -> tuple[int, ...]:
        if (lo, hi) not in memo:
            coatoms = [c for c in below[hi] if masks[c] & masks[lo] == masks[c]]
            r = dims[hi] - dims[lo]
            if len(coatoms) == r:
                memo[lo, hi] = (0,) * r + (1,)
            else:
                q = peul(lo, coatoms[0])
                out = [-q[0]] + [x - y for x, y in zip(q, q[1:])] + [q[-1]]  # (z-1) q
                m_hi, m_pivot = masks[hi], masks[coatoms[0]]
                for x in above[lo]:
                    if masks[x] & m_hi == m_hi and masks[x] & m_pivot != m_pivot:
                        for k, c in enumerate(peul(x, hi)):
                            out[k] += c
                memo[lo, hi] = tuple(out)
        return memo[lo, hi]

    return IntPoly(peul(lattice.bottom_index, lattice.top_index))


def find_very_generic(a: Arrangement):
    """A deterministic very generic vector: the first very generic one among
    integer combinations of the key rows of ⊥ (spanning the normals) drawn
    from random.Random(0).  With no hyperplanes the span is empty and v is 0."""
    span = build_flats(a).keys[0]
    rng = random.Random(0)
    for _ in range(10000):
        coeffs = [rng.randint(-99, 99) for _ in span]
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, span))
                  for j in range(a.dim))
        if is_very_generic_vector(a, v):
            return v
    raise RuntimeError("no very generic vector found")


def _very_generic(a: Arrangement, v):
    """v once it is checked to be very generic, or a found one if v is None."""
    if v is None:
        return find_very_generic(a)
    failure = very_generic_failure(a, v)
    if failure is not None:
        raise ValueError(f"v not very generic: {failure}")
    return v


def cochar_via_halfspace(a: Arrangement, v=None) -> IntPoly:
    """Graded count of the faces inside the halfspace {<v, x> <= 0}: each
    grade's faces less those with a ray outside it (``FanIndex.f_vector_inside``)."""
    v = _very_generic(a, v)
    fan = enumerate_faces(a)
    return IntPoly(fan.f_vector_inside(fan.halfspace_mask(v)))


class UpperSetError(ValueError):
    """The regions inside the halfspace fail to be an upper set."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"regions in the halfspace are not an upper set: region {witness[0]} "
            f"is inside but its cover {witness[1]} is not")


def primitive_eulerian_descents(a: Arrangement, v=None) -> IntPoly:
    """sum of z^{descents(C)} over regions inside the halfspace of v, with
    base region the one containing v.

    Requires a simplicial arrangement and a very generic v; the upper-set
    property of the contained regions is checked, not assumed.
    """
    if not is_simplicial(a):
        raise ValueError("descent path requires a simplicial arrangement")
    v = _very_generic(a, v)
    order = WeakOrder(a, base_region_of(a, v))
    fan = enumerate_faces(a)
    up = fan.halfspace_mask(v)
    contained = [c for c in fan.packed_regions if not fan.ray_mask(c) & up]
    witness = order.packed_failure(contained)
    if witness is not None:
        raise UpperSetError(tuple(map(fan.unpack, witness)))
    return IntPoly.from_counts(map(order.packed_descents, contained))


def h_poly_relation_check(a: Arrangement, v=None) -> bool:
    """Verify z^r h(Sigma(h), 1/z) equals the mobius-path polynomial, with h
    computed from the face counts of the halfspace complex by the standard
    f-to-h transform at rank r."""
    if not is_simplicial(a):
        raise ValueError("h-polynomial check requires a simplicial arrangement")
    psi = cochar_via_halfspace(a, v)
    r = build_flats(a).rank
    # h(y) = sum_k f_{k-1} y^k (1-y)^{r-k}, where f_{k-1} counts grade-k faces.
    one_minus_y = IntPoly((1, -1))
    h = IntPoly()
    for k, fk in enumerate(psi.coeffs):
        h = h + fk * Z ** k * one_minus_y ** (r - k)
    lhs = h.reverse(r)  # z^r h(1/z)
    return lhs == primitive_eulerian_mobius(a)


def eulerian_poly(a: Arrangement) -> IntPoly:
    """Descent generating polynomial over all regions from the first one in
    fan order: the h-polynomial of the simplicial fan, whatever the base."""
    if not is_simplicial(a):
        raise ValueError("descent polynomial requires a simplicial arrangement")
    fan = enumerate_faces(a)
    order = WeakOrder(a, fan.packed_regions[0])
    return IntPoly.from_counts(map(order.packed_descents, fan.packed_regions))
