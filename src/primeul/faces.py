"""Faces and regions of an arrangement as packed sign vectors, with rays,
walls, simpliciality and sharpness tests.

A sign vector assigns -1, 0 or +1 to every hyperplane in arrangement order.
The fan, the weak order and the geometric routes hold it packed into one
int, plus | minus << m, from its masks of + and - hyperplanes.  The faces
are built grade by grade along the covers of the lattice of flats.  A face
f with flat X is 0 exactly on mask(X) (zz, both halves); the faces just
above it are f | ±c & zz, one pair per flat Y covering X, for the cocircuit
c of a ray (± a rank-1 flat's direction) below Y and not below X, whose
zero set is mask(X ∨ ray) = mask(Y).  Near f the hyperplanes through X cut
Y in two, and the lattice is graded by dimension, so these are all the
faces above f and each face is reached once per facet.  A ray c lies in
the closure of f iff c & ~f == 0, so ray masks are read from tables over
8-bit chunks of f.  The regions are the top grade; a face one grade down is
0 at one h only and is the wall at h of the two regions beside it.  No
linear program is solved.  The fan order sorts sign vectors by entry with
0 < + < -.  Sign tuples remain only at the edge that perfbench reads:
``enumerate_regions``, ``region_in_halfspace`` and ``FanIndex.pack``,
``unpack`` and ``key``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .arrangement import Arrangement, build_flats, set_bits
from .linalg import dot

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane


class FanIndex:
    """Complete list of faces of an arrangement as packed sign vectors, with
    the rays in the closure of each face as a bitmask over ``directions`` and
    the walls of each region.

    ``packed_faces`` is the closure, ``packed_regions`` its regions in fan
    order and ``wall_masks`` their walls as masks of hyperplanes.
    """

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        lattice = build_flats(arrangement)
        normals = arrangement.normals
        self.m = m = len(normals)
        self._full = full = (1 << m) - 1
        self.bottom_basis = lattice.bottom_basis
        self.bottom_dim = lattice.bottom_dim
        self.rank = lattice.rank
        self._dim_of = dict(zip(lattice.masks, lattice.dims))
        # The rays of a rank-1 flat are ±d; negating swaps a packed vector's halves.
        atom_rays = [self.pack([dot(n, d) for n in normals]) for d in lattice.atom_directions]
        directions = {}
        for c, d in zip(atom_rays, lattice.atom_directions):
            directions[c], directions[c >> m | (c & full) << m] = d, tuple(-x for x in d)
        cocircuits = sorted(directions, key=self._order)
        self.directions = tuple(map(directions.get, cocircuits))
        # A ray c lies in the closure of f iff c & ~f == 0.  _chunks[k][x]:
        # the rays with no bit among the sign bits 8k..8k+7 outside x; a
        # face's ray mask is the AND of its chunks' entries.
        self._rays = (1 << len(cocircuits)) - 1
        on = [sum(1 << i for i, c in enumerate(cocircuits) if c >> b & 1)
              for b in range(2 * m)]
        self._chunks = []
        for k in range(0, 2 * m, 8):
            hit = [0]  # hit[x]: the rays with a bit of the chunk in x
            for rays in on[k:k + 8]:
                hit += [h | rays for h in hit]
            self._chunks.append((k, [self._rays ^ hit[x ^ len(hit) - 1]
                                     for x in range(len(hit))]))
        below = [0] * len(lattice.masks)  # the rank-1 flats below each flat, over the atoms
        for k, i in enumerate(lattice.covers_above[0]):
            below[i] = 1 << k
        for i, covers in enumerate(lattice.covers_below):
            for j in covers:
                below[i] |= below[j]
        # steps[mask(X)]: ±c & zz_X, c a ray below each Y covering X, not below X.
        steps = {}
        for x, up, low in zip(lattice.masks, lattice.covers_above, below):
            cs = [atom_rays[((t := below[y] & ~low) & -t).bit_length() - 1] & (x | x << m)
                  for y in up]
            steps[x] = cs + [c >> m | (c & full) << m for c in cs]
        found = self.packed_faces = {0}
        facets, regions = set(), {0}
        for _ in range(self.rank):
            facets, regions = regions, set()
            for f in facets:
                regions.update(map(f.__or__, steps[full & ~(f | f >> m)]))
            found |= regions
        walls = dict.fromkeys(regions, 0)
        for f in facets:  # z = 1 << h: f is the wall at h of f | z and f | z << m
            z = full & ~(f | f >> m)
            walls[f | z] |= z
            walls[f | z << m] |= z
        # On regions, the fan order is the order of the bit-reversed - mask.
        self.packed_regions: tuple[int, ...] = tuple(sorted(
            regions, key=lambda f, digits=f"0{m}b": int(format(f >> m, digits)[::-1], 2)))
        self.wall_masks: tuple[int, ...] = tuple(map(walls.get, self.packed_regions))

    def __len__(self) -> int:
        return len(self.packed_faces)

    def _order(self, f: int) -> int:
        """The fan order on packed sign vectors: the decimal digit for
        hyperplane h, most significant first, is 0, 1 or 2 for 0, + or -."""
        digits = f"0{self.m}b"
        return (int(format(f & self._full, digits)[::-1])
                + 2 * int(format(f >> self.m, digits)[::-1]))

    def pack(self, f) -> int:
        """plus | minus << m for the sign vector f."""
        return sum(1 << h + (s < 0) * self.m for h, s in enumerate(f) if s)

    def unpack(self, f: int) -> SignVector:
        m = self.m
        return tuple([(f >> h & 1) - (f >> h + m & 1) for h in range(m)])

    # key and _regions serve only the sign-tuple edge that perfbench reads.
    def key(self, f: SignVector) -> int:
        """The packed form of the face f; KeyError if f is not a face."""
        p = self.pack(f)
        if p not in self.packed_faces or self.unpack(p) != f:
            raise KeyError(f)
        return p

    @cached_property
    def _regions(self) -> tuple[SignVector, ...]:
        return tuple(map(self.unpack, self.packed_regions))

    def ray_mask(self, f: int) -> int:
        """The rays in the closure of the packed face f."""
        rays = self._rays
        for k, table in self._chunks:
            rays &= table[f >> k & 255]
        return rays

    def packed_grade(self, f: int) -> int:
        return self._dim_of[self._full & ~(f | f >> self.m)] - self.bottom_dim

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by lattice grade, grade 0 (the central face) first."""
        out = [0] * (self.rank + 1)
        for f in self.packed_faces:
            out[self.packed_grade(f)] += 1
        return tuple(out)

    def halfspace_mask(self, v) -> int | None:
        """The rays d with <v, d> > 0, or None if v is not orthogonal to ⊥.

        The closed face is ⊥ plus the cone over its rays, so it lies in
        {x : <v, x> <= 0} iff v is orthogonal to ⊥ and its ray mask misses
        this mask; both are settled here, once per v.
        """
        if len(v) != self.arrangement.dim:
            raise ValueError("vector dimension mismatch")
        if any(dot(v, b) for b in self.bottom_basis):
            return None
        return sum(1 << i for i, d in enumerate(self.directions) if dot(v, d) > 0)


@lru_cache(maxsize=None)
def enumerate_faces(a: Arrangement) -> FanIndex:
    return FanIndex(a)


# perfbench reads the regions as sign tuples; no route does.
def enumerate_regions(a: Arrangement) -> tuple[SignVector, ...]:
    """All full-dimensional sign vectors, sorted."""
    return enumerate_faces(a)._regions


def is_simplicial(a: Arrangement) -> bool:
    """True iff every region has exactly rank(a) walls: a pointed cone of
    rank r has at least r facets, and exactly r when it is simplicial."""
    fan = enumerate_faces(a)
    return all(w.bit_count() == fan.rank for w in fan.wall_masks)


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
    for c, wall_mask in zip(fan.packed_regions, fan.wall_masks):
        walls = set_bits(wall_mask)
        for x, h in enumerate(walls):
            for k in walls[x + 1:]:
                # c[h] * c[k] is -1 iff the plus bits of c differ at h and k
                sign = 1 - 2 * ((c >> h ^ c >> k) & 1)
                if sign * dot(normals[h], normals[k]) > 0:
                    return False
    return True


# perfbench checks a declined route's witness with it; no route calls it.
def region_in_halfspace(a: Arrangement, c: SignVector, v) -> bool:
    """True iff the closed region lies in {x : <v, x> <= 0}."""
    fan = enumerate_faces(a)
    up = fan.halfspace_mask(v)
    return up is not None and not fan.ray_mask(fan.key(c)) & up
