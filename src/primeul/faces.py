"""Faces and regions of an arrangement as sign vectors, with the Tits
product, separation sets, rays, walls, simpliciality and sharpness tests.

A sign vector assigns -1, 0 or +1 to every hyperplane in arrangement order.
The faces are the covectors of the arrangement's oriented matroid: all
compositions of its cocircuits, which are the sign vectors of the two rays
along each rank-1 flat, ± its direction.  The directions and the basis of ⊥
that the halfspace test reads come from the lattice of flats.  The closure
packs a sign vector into one int, plus | minus << m, from its masks of +
and - hyperplanes; composing f with a cocircuit c rewrites f only on its
zero mask z: (p | c.p & z, n | c.n & z).  Each face keeps the mask of the
cocircuits (rays) in its closure, the AND over the hyperplanes h of those
allowed by f's sign at h; each region keeps its walls, the h for which the
region with 0 at h is a face.  Every geometric test reads these, so no
linear program is solved.  Regions are the faces without zeros.  The order
used everywhere sorts sign vectors by entry with 0 < + < -.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, getitem

from .arrangement import Arrangement, build_flats, very_generic_failure
from .linalg import dot

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane

_SORT = {0: 0, 1: 1, -1: 2}


def sign_key(signs: SignVector) -> tuple[int, ...]:
    return tuple(_SORT[s] for s in signs)


def _compositions(cocircuits, m: int) -> set[int]:
    """Closure of the zero vector under composition with the packed
    cocircuits.  Composing f with c rewrites f only on its zero mask z:
    (p | c.p & z, n | c.n & z), one ``|`` and ``&`` on the packed ints.  The
    distinct restrictions of the cocircuits are taken once per zero mask."""
    full = (1 << m) - 1
    found = {0}
    stack = [0]
    restrictions: dict[int, set[int]] = {}
    while stack:
        f = stack.pop()
        z = full & ~(f | f >> m)
        parts = restrictions.get(z)
        if parts is None:
            parts = restrictions[z] = {c & (z | z << m) for c in cocircuits}
        for c in parts:
            g = f | c
            if g not in found:
                found.add(g)
                stack.append(g)
    return found


class FanIndex:
    """Complete list of faces of an arrangement, indexed by sign vector,
    with the rays in the closure of each face as a bitmask over
    ``directions`` and the walls of each region."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        lattice = build_flats(arrangement)
        normals = arrangement.normals
        m = len(normals)
        full = (1 << m) - 1
        bits = f"0{m}b"

        def order(f: int) -> int:
            """sign_key on packed sign vectors: the decimal digit for
            hyperplane h, most significant first, is 0, 1 or 2."""
            return int(format(f & full, bits)[::-1]) + 2 * int(format(f >> m, bits)[::-1])

        self.bottom_basis = lattice.bottom_basis
        directions: dict[int, tuple[int, ...]] = {}
        for d in lattice.atom_directions:
            for r in (d, tuple(-x for x in d)):
                dots = [dot(n, r) for n in normals]
                directions[sum(1 << h + (x < 0) * m for h, x in enumerate(dots) if x)] = r
        cocircuits = sorted(directions, key=order)
        self.directions = tuple(map(directions.get, cocircuits))
        # on[b]: the rays with bit b set (+ at b, or - at b - m).  allowed[h][s]:
        # the rays whose sign at h is 0 or s (only 0 for s = 0); a ray lies
        # in the closure of f iff f allows it at every h.
        all_rays = (1 << len(cocircuits)) - 1
        on = [sum(1 << i for i, c in enumerate(cocircuits) if c >> b & 1)
              for b in range(2 * m)]
        zero = [all_rays ^ on[h] ^ on[h + m] for h in range(m)]
        allowed = [(z, z | on[h], z | on[h + m]) for h, z in enumerate(zero)]
        found = _compositions(cocircuits, m)
        ordered = sorted(found, key=order)
        self.faces: tuple[SignVector, ...] = tuple(
            tuple([(f >> h & 1) - (f >> h + m & 1) for h in range(m)]) for f in ordered)
        dim_of = dict(zip(lattice.masks, (flat.dim for flat in lattice.flats)))
        self.dims: tuple[int, ...] = tuple(dim_of[full & ~(f | f >> m)]
                                           for f in ordered)
        self.ray_masks: tuple[int, ...] = tuple(
            reduce(and_, map(getitem, allowed, f), all_rays) for f in self.faces)
        self.index: dict[SignVector, int] = {f: i for i, f in enumerate(self.faces)}
        # Regions have no zeros, so their flat is the whole space; h is a
        # wall of a region iff the region with 0 at h is a face.
        tops = [i for i, d in enumerate(self.dims) if d == arrangement.dim]
        self._regions = tuple(self.faces[i] for i in tops)
        self.walls: tuple[tuple[int, ...], ...] = tuple(
            tuple(h for h in range(m) if ordered[i] & ~(1 << h | 1 << h + m) in found)
            for i in tops)
        self.bottom_dim = lattice.bottom_dim
        self.rank = lattice.rank

    def __len__(self) -> int:
        return len(self.faces)

    def grade(self, f: SignVector) -> int:
        return self.dims[self.index[f]] - self.bottom_dim

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by lattice grade, grade 0 (the central face) first."""
        out = [0] * (self.rank + 1)
        for i in range(len(self.faces)):
            out[self.dims[i] - self.bottom_dim] += 1
        return tuple(out)

    def regions(self) -> tuple[SignVector, ...]:
        return self._regions

    def rays_of(self, f: SignVector) -> tuple[tuple[int, ...], ...]:
        """Directions of the rays in the closure of f, in fan order."""
        r = self.ray_masks[self.index[f]]
        return tuple(d for i, d in enumerate(self.directions) if r >> i & 1)

    def halfspace_test(self, v):
        """Predicate on faces: True iff the closed face lies in
        {x : <v, x> <= 0}.

        The closed face is ⊥ plus the cone over its rays, so it lies in the
        halfspace iff v is orthogonal to ⊥ and none of its rays has
        <v, d> > 0; both are settled here, once per v.
        """
        if len(v) != self.arrangement.dim:
            raise ValueError("vector dimension mismatch")
        if any(dot(v, b) for b in self.bottom_basis):
            return lambda f: False
        up = sum(1 << i for i, d in enumerate(self.directions) if dot(v, d) > 0)
        return lambda f: not self.ray_masks[self.index[f]] & up

    @property
    def center(self) -> SignVector:
        return (0,) * len(self.arrangement.hyperplanes)


@lru_cache(maxsize=None)
def enumerate_faces(a: Arrangement) -> FanIndex:
    return FanIndex(a)


def enumerate_regions(a: Arrangement) -> tuple[SignVector, ...]:
    """All full-dimensional sign vectors, sorted."""
    return enumerate_faces(a).regions()


def tits_product(fan: FanIndex, f: SignVector, g: SignVector) -> SignVector:
    """Entrywise "first nonzero wins" product; always a face of the fan."""
    prod = tuple(x if x else y for x, y in zip(f, g))
    if prod not in fan.index:
        raise AssertionError(
            "Tits product missing from the fan: face enumeration bug")
    return prod


def opposite(f: SignVector) -> SignVector:
    return tuple(-x for x in f)


def separation_set(c: SignVector, d: SignVector) -> frozenset[int]:
    """Hyperplanes carrying strictly opposite signs on the two faces."""
    return frozenset(i for i, (x, y) in enumerate(zip(c, d)) if x and y and x != y)


def face_leq(f: SignVector, g: SignVector) -> bool:
    """Face order: f lies in the closure of g."""
    return all(x == 0 or x == y for x, y in zip(f, g))


def rays_of_region(fan: FanIndex, c: SignVector) -> tuple[tuple[int, ...], ...]:
    """Primitive integer spanning vectors of the rays of a region."""
    if fan.bottom_dim != 0:
        raise ValueError("rays are only defined for essential arrangements")
    return fan.rays_of(c)


def is_simplicial(a: Arrangement) -> bool:
    """True iff every region has exactly rank(a) rays."""
    fan = enumerate_faces(a)
    return all(fan.ray_masks[fan.index[c]].bit_count() == fan.rank
               for c in fan.regions())


def is_sharp(a: Arrangement) -> bool:
    """Simplicial, with every region's facet angles at most pi/2.

    With rays r_1..r_d of a region c and the dual vectors n_i in their span
    (<n_i, r_j> = delta_ij), the angle condition is <n_i, n_j> <= 0 off the
    diagonal.  n_i is a positive multiple of the inward normal c[h] v_h of
    the wall h of c opposite r_i (walls come from the fan); normals lie in
    the span of the rays, so no essentializing is needed.
    """
    fan = enumerate_faces(a)
    if fan.rank <= 1:
        return True
    if not is_simplicial(a):
        return False
    normals = a.normals
    for c, walls in zip(fan.regions(), fan.walls):
        for x, h in enumerate(walls):
            for k in walls[x + 1:]:
                if c[h] * c[k] * dot(normals[h], normals[k]) > 0:
                    return False
    return True


def region_in_halfspace(a: Arrangement, c: SignVector, v) -> bool:
    """True iff the closed region lies in {x : <v, x> <= 0}."""
    return enumerate_faces(a).halfspace_test(v)(c)


def faces_in_halfspace(fan: FanIndex, v) -> tuple[SignVector, ...]:
    """All faces whose closed cone lies in {x : <v, x> <= 0}.

    Requires a very generic v; the central face is always included since the
    bounding hyperplane contains the minimum flat.
    """
    failure = very_generic_failure(fan.arrangement, v)
    if failure is not None:
        raise ValueError(f"v not very generic: {failure}")
    return tuple(filter(fan.halfspace_test(v), fan.faces))
