"""Faces and regions of an arrangement as packed sign vectors, with rays,
walls, simpliciality and sharpness tests, and the weak order on regions.

A sign vector assigns -1, 0 or +1 to every hyperplane in arrangement order.
This module alone encodes it, packed into one int, plus | minus << m, from
its masks of + and - hyperplanes; the fan, the base region of a point, the
weak order and the geometric routes all hold it so.  The faces are grouped
by flat: a face with flat X is 0 exactly on mask(X) (zz, both halves).  The
faces just above it are f | ±c & zz, one pair per flat Y covering X, for
the cocircuit c of a ray (± a rank-1 flat's direction) below Y and not
below X, whose zero set is mask(X ∨ ray) = mask(Y).  Near f the hyperplanes
through X cut Y in two, and the lattice is graded by dimension, so these
are all the faces above f and each face is reached once per facet.  One
sweep of the flats in lattice order closes the fan: each flat's whole set
of faces is composed with each cover's two steps at once, and frozen to a
tuple once every flat below it is done.  A closed face lies in a halfspace
iff all its facets do, since every ray of a pointed cone lies in a facet,
so the faces outside are the closure of the rays outside under the same
steps, and the halfspace route counts the faces by flat minus that closure.
The regions are the top flat's faces; a face of a hyperplane's flat is 0 at
that h only and is the wall at h of the two regions beside it, so the walls
are one dict from region to mask.  The rays are the cocircuits in lattice
order; a ray c lies in the closure of f iff c & ~f == 0, so ray masks are
read from tables over 8-bit chunks of f.  The walls and the ray tables are
built on first use: the halfspace route needs neither.  No linear program
is solved.  The fan order sorts sign vectors by entry with 0 < + < -.  Sign
tuples remain only at the edge that perfbench reads: ``enumerate_regions``,
``region_in_halfspace``, ``WeakOrder.covers_above`` and ``FanIndex.pack``,
``unpack`` and ``key``, which finds a face in its own flat's group.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import sub

from .arrangement import Arrangement, build_flats, set_bits
from .linalg import dot

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane


def _pack(signs, m: int) -> int:
    """plus | minus << m for numbers whose signs are a sign vector."""
    return sum(1 << h + (s < 0) * m for h, s in enumerate(signs) if s)


class FanIndex:
    """Complete list of faces of an arrangement as packed sign vectors,
    grouped by flat, with the rays in the closure of each face as a bitmask
    over ``directions`` and the walls of each region.

    ``packed_regions`` holds the regions in fan order and ``walls`` maps
    each region to its walls as a mask of hyperplanes; both are built on
    first use.
    """

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        lattice = build_flats(arrangement)
        normals = arrangement.normals
        self.m = m = len(normals)
        self._full = full = (1 << m) - 1
        self.bottom_basis = lattice.bottom_basis
        self.rank = lattice.rank
        self._grades = tuple(d - lattice.bottom_dim for d in lattice.dims)
        self._at = {mask: i for i, mask in enumerate(lattice.masks)}
        # The rays of a rank-1 flat are ±d, in lattice order; negating swaps
        # a packed vector's halves.
        atom_rays, directions, cocircuits = [], [], []
        for i, d in zip(lattice.covers_above[0], lattice.atom_directions):
            c = _pack([dot(n, d) for n in normals], m)
            atom_rays.append(c)
            directions += d, tuple(-x for x in d)
            cocircuits += (i, c), (i, c >> m | (c & full) << m)
        self.directions = tuple(directions)
        self._cocircuits = tuple(cocircuits)
        self._rays = (1 << len(directions)) - 1
        below = [0] * len(lattice.masks)  # the rank-1 flats below each flat, over the atoms
        for k, i in enumerate(lattice.covers_above[0]):
            below[i] = 1 << k
        for i, covers in enumerate(lattice.covers_below):
            for j in covers:
                below[i] |= below[j]
        # _steps[i]: c & zz for each flat j in _covers[i] (the flats
        # covering flat i), c a ray below j and not below i.
        self._covers = lattice.covers_above
        self._last = [covers[-1] if covers else 0 for covers in lattice.covers_below]
        self._steps = tuple(
            tuple(atom_rays[((t := below[y] & ~low) & -t).bit_length() - 1] & (x | x << m)
                  for y in up)
            for x, up, low in zip(lattice.masks, lattice.covers_above, below))
        # _faces[i]: the faces whose zero mask is mask(flat i).
        self._faces = [group for _, group in self._sweep({0: {0}})]

    def _sweep(self, found: dict[int, set[int]]):
        """Close the sets of faces in found, keyed by flat, under the
        steps: one pass over the flats in lattice order, which ascends by
        grade, so a flat's set is whole when the pass reaches it.  A set is
        frozen to a tuple once the last flat below it is done, and yielded
        with its flat and forgotten when the pass reaches it."""
        m, full, last = self.m, self._full, self._last
        for i, (up, steps) in enumerate(zip(self._covers, self._steps)):
            group = tuple(found.pop(i, ()))
            if group:
                for j, c in zip(up, steps):
                    faces = found.setdefault(j, set())
                    faces.update(map(c.__or__, group),
                                 map((c >> m | (c & full) << m).__or__, group))
                    if last[j] == i:  # the last flat below j
                        found[j] = tuple(faces)
            yield i, group

    def __len__(self) -> int:
        return sum(map(len, self._faces))

    def pack(self, f) -> int:
        """plus | minus << m for the sign vector f."""
        return _pack(f, self.m)

    def unpack(self, f: int) -> SignVector:
        """Entry h is bit h of the + half minus bit h of the - half, as
        ASCII digits of their binary forms, lowest bit first; bit m is set
        in both so that each form is m + 1 digits wide."""
        top = 1 << self.m
        return tuple(map(sub, format(f & self._full | top, "b").encode()[:0:-1],
                         format(f >> self.m | top, "b").encode()[:0:-1]))

    @cached_property
    def packed_regions(self) -> tuple[int, ...]:
        """The top flat's faces in fan order, which on regions is the order
        of the - mask's binary digits read lowest bit first."""
        return tuple(sorted(self._faces[-1], key=lambda f, digits=f"0{self.m}b":
                            format(f >> self.m, digits)[::-1]))

    @cached_property
    def walls(self) -> dict[int, int]:
        """The walls of each region as a mask of hyperplanes: a face of the
        flat of hyperplane h is 0 at h only, and the wall at h of f | z and
        f | z << m, z = 1 << h."""
        walls = dict.fromkeys(self._faces[-1], 0)
        for h in range(self.m):
            z = 1 << h
            for f in self._faces[self._at[z]]:
                walls[f | z] |= z
                walls[f | z << self.m] |= z
        return walls

    # key and _regions serve only the sign-tuple edge that perfbench reads.
    def key(self, f: SignVector) -> int:
        """The packed form of the face f, found in its flat's group;
        KeyError if f is not a face."""
        p = self.pack(f)
        i = self._at.get(self._full & ~(p | p >> self.m))
        if i is None or p not in self._faces[i] or self.unpack(p) != f:
            raise KeyError(f)
        return p

    @cached_property
    def _regions(self) -> tuple[SignVector, ...]:
        return tuple(map(self.unpack, self.packed_regions))

    @cached_property
    def _chunks(self) -> list[tuple[int, list[int]]]:
        """_chunks[k][x]: the rays with no bit among the sign bits 8k..8k+7
        outside x; a face's ray mask is the AND of its chunks' entries."""
        on = [sum(1 << i for i, (_, c) in enumerate(self._cocircuits) if c >> b & 1)
              for b in range(2 * self.m)]
        chunks = []
        for k in range(0, 2 * self.m, 8):
            hit = [0]  # hit[x]: the rays with a bit of the chunk in x
            for rays in on[k:k + 8]:
                hit += [h | rays for h in hit]
            # x's complement in the chunk is len(hit) - 1 - x
            chunks.append((k, [self._rays ^ h for h in reversed(hit)]))
        return chunks

    def ray_mask(self, f: int) -> int:
        """The rays in the closure of the packed face f."""
        rays = self._rays
        for k, table in self._chunks:
            rays &= table[f >> k & 255]
        return rays

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by lattice grade, grade 0 (the central face) first."""
        out = [0] * (self.rank + 1)
        for group, grade in zip(self._faces, self._grades):
            out[grade] += len(group)
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

    def f_vector_inside(self, up: int) -> tuple[int, ...]:
        """Face counts by grade, as ``f_vector``, of the faces whose ray
        mask misses up.  A face of grade >= 2 has a ray in up iff one of its
        facets has, so the faces outside are the rays in up closed under
        the steps of the fan, one flat's set at a time."""
        outside: dict[int, set[int]] = {}
        for k, (i, c) in enumerate(self._cocircuits):
            if up >> k & 1:
                outside.setdefault(i, set()).add(c)
        out = list(self.f_vector())
        for i, gone in self._sweep(outside):
            out[self._grades[i]] -= len(gone)
        return tuple(out)


@lru_cache(maxsize=None)
def enumerate_faces(a: Arrangement) -> FanIndex:
    return FanIndex(a)


# perfbench reads the regions as sign tuples; no route does.
def enumerate_regions(a: Arrangement) -> tuple[SignVector, ...]:
    """All full-dimensional sign vectors, sorted."""
    return enumerate_faces(a)._regions


def is_simplicial(a: Arrangement) -> bool:
    """True iff every region has exactly rank(a) walls: a pointed cone of
    rank r has at least r facets, and exactly r when it is simplicial.
    Each face of grade r - 1 is a wall of exactly two regions, so the
    regions have 2 f_{r-1} walls in all, which is r f_r iff each has r."""
    fan = enumerate_faces(a)
    f = fan.f_vector()
    return fan.rank == 0 or 2 * f[-2] == fan.rank * f[-1]


def is_sharp(a: Arrangement) -> bool:
    """Simplicial, with every region's facet angles at most pi/2.

    With rays r_1..r_d of a region c and the dual vectors n_i in their span
    (<n_i, r_j> = delta_ij), the angle condition is <n_i, n_j> <= 0 off the
    diagonal.  n_i is a positive multiple of the inward normal c[h] v_h of
    the wall h of c opposite r_i (walls come from the fan); normals lie in
    the span of the rays, so no essentializing is needed.  The signs of
    <v_h, v_k> are read once into masks: c[h] c[k] <v_h, v_k> > 0 iff c has
    equal signs at h and k and <v_h, v_k> > 0, or opposite signs and < 0.
    """
    fan = enumerate_faces(a)
    if fan.rank <= 1:
        return True
    if not is_simplicial(a):
        return False
    normals = a.normals
    acute, obtuse = [], []  # the k != h with <v_h, v_k> > 0, < 0
    for h, n in enumerate(normals):
        signs = [dot(n, v) for v in normals]
        acute.append(sum(1 << k for k, s in enumerate(signs) if s > 0 and k != h))
        obtuse.append(sum(1 << k for k, s in enumerate(signs) if s < 0))
    for c, walls in fan.walls.items():
        plus, minus = walls & c, walls & ~c
        for h in set_bits(walls):
            same, other = (plus, minus) if c >> h & 1 else (minus, plus)
            if acute[h] & same or obtuse[h] & other:
                return False
    return True


def base_region_of(a: Arrangement, v) -> int:
    """The packed region containing a generic point v."""
    if len(v) != a.dim:
        raise ValueError("vector dimension mismatch")
    signs = [dot(normal, v) for normal in a.normals]
    if 0 in signs:
        raise ValueError("v lies on a hyperplane")
    return _pack(signs, len(signs))


class WeakOrder:
    """Order C <= D iff sep(B, C) is a subset of sep(B, D).

    The unique minimum is the packed base region B and the unique maximum
    is its opposite.  Covers are realized by wall crossings: D covers C
    exactly when they share a facet and the crossed hyperplane separates D
    from B.  The walls are ``FanIndex.walls``, read as they are: a
    separation set is the mask minus ^ base_minus, a descent count the
    popcount of walls & sep, and a cover the flip of one wall h,
    f ^ (1 << h | 1 << h + m).
    """

    def __init__(self, arrangement: Arrangement, base: int):
        fan = enumerate_faces(arrangement)
        if base not in fan.walls:
            raise ValueError("base is not a region of the arrangement")
        self._fan, self._walls, self._b = fan, fan.walls, base

    def packed_descents(self, c: int) -> int:
        """Number of walls of the packed region c separating it from the
        base region."""
        return (self._walls[c] & (c ^ self._b) >> self._fan.m).bit_count()

    # perfbench checks a declined route's witness with it; no route calls it.
    def covers_above(self, c: SignVector) -> list[SignVector]:
        """Regions covering c: wall flips that grow the separation set."""
        return list(map(self._fan.unpack, self._flips_up(self._fan.key(c))))

    def _flips_up(self, c: int) -> list[int]:
        """The packed region c flipped across each wall that does not
        separate it from the base region."""
        m = self._fan.m
        return [c ^ (1 << h | 1 << h + m)
                for h in set_bits(self._walls[c] & ~((c ^ self._b) >> m))]

    def packed_failure(self, inside: list[int]):
        """None if the packed regions inside are upward closed under
        covers, else the first cover pair (c, d) with c inside and d not,
        in the order of inside."""
        members = set(inside)
        for c in inside:
            for d in self._flips_up(c):
                if d not in members:
                    return c, d
        return None


# perfbench checks a declined route's witness with it; no route calls it.
def region_in_halfspace(a: Arrangement, c: SignVector, v) -> bool:
    """True iff the closed region lies in {x : <v, x> <= 0}."""
    fan = enumerate_faces(a)
    up = fan.halfspace_mask(v)
    return up is not None and not fan.ray_mask(fan.key(c)) & up
