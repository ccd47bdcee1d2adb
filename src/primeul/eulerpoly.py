"""The primitive Eulerian polynomial of an arrangement by four routes:

1. mobius:    sum of |mu(bot, X)| (z-1)^corank over the lattice of flats;
2. recursive: deletion-style recursion over a pivot coatom, on intervals
              of the one lattice of flats, with one table per upper end;
3. halfspace: graded face count of a very generic halfspace, reparametrized:
              the fan's faces by flat minus the closure of the rays
              outside the halfspace;
4. descents:  descents in the weak order based at the region of v, over
              the regions inside such a halfspace.

Routes 1 and 3 share the reparametrization ``peul_from_cochar``; on route
3's face counts of a simplicial arrangement it is the f-to-h transform
z^r h(1/z) of the complex of faces in the halfspace.

The module also gives the cocharacteristic polynomial, and the descent
polynomial over all regions (the Eulerian polynomial of the arrangement).
Routes 3 and 4 read v once; ``arrangement`` draws, checks and masks it.
Regions stay packed; only the message of an ``UpperSetError`` decodes them.
"""

from __future__ import annotations

from math import comb

from .arrangement import (Arrangement, _very_generic_mask, build_flats, find_very_generic,
                          read_vector)
from .faces import WeakOrder, base_region_of, enumerate_faces, is_simplicial
from .intpoly import IntPoly

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
    """(z-1)^r psi(1/(z-1)) = sum_k psi_k (z-1)^(r-k), expanded on ints by binomials; on the
    face counts psi_k = f_{k-1} of a simplicial complex, z^r h(1/z) for its h-polynomial."""
    if psi.degree() > r:
        raise ValueError("cocharacteristic degree exceeds the rank")
    out = [0] * (r + 1)
    for k, c in enumerate(psi.coeffs):
        for j in range(r - k + 1):
            out[j] += (-1) ** (r - k - j) * comb(r - k, j) * c
    return IntPoly(tuple(out))


def primitive_eulerian_recursive(a: Arrangement) -> IntPoly:
    """P = (z-1) P_{restriction} + sum of P_{localization} at the atoms off the pivot, on
    intervals [lo, hi] of the lattice of flats: the pivot, the coatom C of largest mask, gives
    [lo, C], and an atom X not below C gives [X, hi].  Boolean intervals close as z^rank, rank
    2 with k coatoms as z^2 + (k-2) z.  The cover groups of hi (the hyperplanes cutting hi in
    one cover) each lie wholly in or off masks[lo], so one bit of each tests a coatom."""
    lattice = build_flats(a)
    return IntPoly(_interval_peuls(lattice)[lattice.bottom_index, lattice.top_index])


def _interval_peuls(lattice) -> dict[tuple[int, int], tuple[int, ...]]:
    """The recursion's memo by (lo, hi), low degree first; rank 1 is met only as [⊥, top].
    reps[hi], built on the first visit of hi, ORs the lowest bit of each cover group of hi.
    Groups are disjoint, so the coatom of largest mask, the pivot, is the one whose group has
    the highest bit b of masks[lo] off hi, and an atom of [lo, hi] is below it iff it has b."""
    masks, below, above, dims = (lattice.masks, lattice.covers_below,
                                 lattice.covers_above, lattice.dims)
    reps: dict[int, int] = {}
    memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def peul(lo: int, hi: int) -> tuple[int, ...]:
        m_lo, m_hi, r = masks[lo], masks[hi], dims[hi] - dims[lo]
        if (rep := reps.get(hi)) is None:
            rep = reps[hi] = sum((m := masks[c] & ~m_hi) & -m for c in below[hi])
        k = (m_lo & rep).bit_count()  # the coatoms of [lo, hi]
        if r == 2:
            p = (0, k - 2, 1)
        elif k == r:
            p = (0,) * r + (1,)
        else:
            b = 1 << (m_lo & ~m_hi).bit_length() - 1
            for pivot in reversed(below[hi]):
                if masks[pivot] & b:
                    break
            q = memo.get((lo, pivot)) or peul(lo, pivot)
            out = [-q[0]] + [x - y for x, y in zip(q, q[1:])] + [q[-1]]  # (z-1) q
            for x in above[lo]:
                if (m := masks[x]) & m_hi == m_hi and not m & b:
                    for j, c in enumerate(memo.get((x, hi)) or peul(x, hi)):
                        out[j] += c
            p = tuple(out)
        memo[lo, hi] = p
        return p

    peul(lattice.bottom_index, lattice.top_index)
    return memo


def _very_generic(a: Arrangement, v):
    """v read once (or found if None) and checked to be very generic, and its halfspace mask."""
    v = find_very_generic(a) if v is None else read_vector(a, v)
    up, failure = _very_generic_mask(a, v)
    if failure is not None:
        raise ValueError(f"v not very generic: {failure}")
    return v, up


def cochar_via_halfspace(a: Arrangement, v=None) -> IntPoly:
    """Graded count of the faces inside the halfspace {<v, x> <= 0}: each
    grade's faces less those with a ray outside it (``FanIndex.f_vector_inside``)."""
    return IntPoly(enumerate_faces(a).f_vector_inside(_very_generic(a, v)[1]))


class UpperSetError(ValueError):
    """The regions inside the halfspace fail to be an upper set: the packed
    cover pair witness = (c, d) has c inside and d not, shown by unpack."""

    def __init__(self, witness, unpack):
        self.witness = witness
        c, d = map(unpack, witness)
        super().__init__(f"regions in the halfspace are not an upper set: region {c} "
                         f"is inside but its cover {d} is not")


def primitive_eulerian_descents(a: Arrangement, v=None) -> IntPoly:
    """sum of z^{descents(C)} over regions inside the halfspace of v, with
    base region the one containing v.

    Requires a simplicial arrangement and a very generic v; the upper-set
    property of the contained regions is checked, not assumed.
    """
    if not is_simplicial(a):
        raise ValueError("descent path requires a simplicial arrangement")
    v, up = _very_generic(a, v)
    order = WeakOrder(a, base_region_of(a, v))
    fan = enumerate_faces(a)
    contained = [c for c in fan.packed_regions if not fan.ray_mask(c) & up]
    witness = order.packed_failure(contained)
    if witness is not None:
        raise UpperSetError(witness, fan.unpack)
    return IntPoly.from_counts(map(order.packed_descents, contained))


def eulerian_poly(a: Arrangement) -> IntPoly:
    """Descent generating polynomial over all regions from the first one in
    fan order: the h-polynomial of the simplicial fan, whatever the base."""
    if not is_simplicial(a):
        raise ValueError("descent polynomial requires a simplicial arrangement")
    fan = enumerate_faces(a)
    order = WeakOrder(a, fan.packed_regions[0])
    return IntPoly.from_counts(map(order.packed_descents, fan.packed_regions))
