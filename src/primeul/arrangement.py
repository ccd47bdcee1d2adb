"""Central hyperplane arrangements and their lattices of flats.

A hyperplane is its normal, a primitive integer tuple with its first nonzero
entry positive, which fixes the orientation of the two halfspaces and makes
duplicates detectable; an arrangement is its dimension and its normals.
Flats are keyed by the int bitmask of the hyperplanes containing them; since
a flat equals the intersection of exactly that set, containment of flats is
containment of masks in reverse.  A flat is its position in the lattice,
which orders flats by (grade, mask) and holds their masks and dimensions;
there is no separate flat object.  The flats just below a flat X are the
classes of the hyperplanes off X, grouped by their restriction to X: a
line, kept as a normal reduced modulo the normal space of X, and interned
as an int.  The image of a line under a cover's line, its pivot line,
depends on the two alone and recurs across many flats, so each is computed
once per build, by ``linalg``'s elimination step ``_reduce``, the one
``rref_int`` runs on.  Mobius values come from the covers.  The key of a
flat, the canonical RREF of its normal space, is computed only when read:
the key of the flat it was first found below, reduced by its line, plus
that line.  Only this module reads keys, those of ⊥ and the rank-1 flats:
a basis of ⊥ and each rank-1 flat's direction.  It alone reads, draws and
checks a vector v, and ``halfspace_mask`` packs v's side of each direction.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce
from operator import or_

from .intpoly import Frozen, IntPoly
from .linalg import _reduce, dot, free_solutions, nullspace, primitive_signed, rational, rref_int


class Arrangement(Frozen):
    _fields = ("dim", "normals")

    def __init__(self, dim: int, normals: tuple[tuple[int, ...], ...]):
        normals = tuple(normals)
        for normal in normals:
            if not any(normal) or normal != primitive_signed(normal):
                raise ValueError(f"normal {normal} must be nonzero and primitive_signed")
        if dim < 0:
            raise ValueError(f"ambient dimension {dim} must be >= 0")
        seen = set()
        for normal in normals:
            if len(normal) != dim:
                raise ValueError("hyperplane dimension mismatch")
            if normal in seen:
                raise ValueError(f"duplicate hyperplane {normal}")
            seen.add(normal)
        self._set(dim, normals)

    @classmethod
    def from_normals(cls, normals, dim: int | None = None) -> Arrangement:
        normals = list(normals)
        if dim is None:
            if not normals:
                raise ValueError("dimension required for an empty arrangement")
            dim = len(normals[0])
        return cls(dim, tuple(map(primitive_signed, normals)))


class FlatLattice:
    """All intersections of hyperplane subsets, with Mobius values from ⊥.

    Flat i is ``masks[i]`` and ``dims[i]``; ``covers_below[i]`` are the flats it covers.
    Positions, the handles used everywhere else, are sorted by (grade, mask), where grade
    is the lattice height above ⊥.  ``keys[i]``, the canonical RREF of the normal space
    of flat i, ``covers_above`` and ``mobius_bottom`` are computed on first access.
    """

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        n = arrangement.dim

        # Grade by grade down from the ambient space, whose restricted lines
        # are the normals.  A line is an int, the index of its vector in
        # ``_vecs``, where each vector is interned once.  The hyperplanes on
        # one line d of a flat make one cover; ``down`` keeps them all.  The
        # cover's lines are the flat's other lines with the pivot column c
        # of d eliminated, those landing on one image joining their masks.
        # One pair (r, d) meets many flats, so ``_images[d]`` holds c and
        # the image of every line r met so far: each is reduced once per
        # build.  ``_via`` keeps the flat and line each cover was first
        # found from, which is all a key is computed from.
        self._vecs = list(arrangement.normals)
        self._ids = {v: j for j, v in enumerate(self._vecs)}
        self._images: dict[int, tuple[int, dict[int, int]]] = {}
        self._via: dict[int, tuple[int, int]] = {}
        self._keys: dict[int, tuple[int, ...]] = {0: ()}
        images, via, vecs = self._images, self._via, self._vecs
        down: dict[int, list[int]] = {}
        grades = []
        level = {0: {j: 1 << j for j in range(len(vecs))}}
        while level:
            grades.append(sorted(level))
            below = {}
            for mask, lines in level.items():
                covers = down[mask] = []
                for d, group in lines.items():
                    cover = mask | group
                    covers.append(cover)
                    if cover in below:
                        continue
                    via[cover] = mask, d
                    image = (images.get(d) or images.setdefault(
                        d, (next(i for i, x in enumerate(vecs[d]) if x), {})))[1]
                    cut = below[cover] = {}
                    for r, m in lines.items():
                        if r != d:
                            v = image.get(r)
                            if v is None:
                                v = self._image(r, d)
                            cut[v] = cut.get(v, 0) | m
            level = below

        # Bit j of a flat's mask is set iff hyperplane j contains the flat;
        # Y <= X in the lattice iff mask(Y) is a superset of mask(X).  The
        # k-th grade found has codimension k.
        self.masks = tuple(m for grade in reversed(grades) for m in grade)
        self.dims = tuple(n - k for k in reversed(range(len(grades))) for _ in grades[k])
        self.bottom_dim = self.dims[0]
        self.rank = n - self.bottom_dim
        at = {m: i for i, m in enumerate(self.masks)}
        self.covers_below = tuple(tuple(sorted(map(at.__getitem__, down[m]))) for m in self.masks)

    def _image(self, r: int, d: int) -> int:
        """The line of vector r with the pivot column c of line d
        eliminated, interned, and remembered in d's image table."""
        c, image = self._images[d]
        v = self._vecs[r]
        if not v[c]:
            image[r] = r
            return r
        v = _reduce(v, self._vecs[d], c)
        j = image[r] = self._ids.setdefault(v, len(self._vecs))
        if j == len(self._vecs):
            self._vecs.append(v)
        return j

    def _key_rows(self, mask: int) -> tuple[int, ...]:
        """The rows of the key of the flat with this mask, as lines, in no
        order: those of the flat it was found from, with the pivot column
        of its line d eliminated, and d."""
        keys, via, images = self._keys, self._via, self._images
        chain = []
        while mask not in keys:
            chain.append(mask)
            mask = via[mask][0]
        rows = keys[mask]
        for mask in reversed(chain):
            d = via[mask][1]
            image = images[d][1]
            rows = keys[mask] = (d, *[image[r] if r in image else self._image(r, d)
                                      for r in rows])
        return rows

    @property
    def keys(self) -> _Keys:
        """``keys[i]`` is the canonical RREF of the normal space of flat i,
        computed on first access, with the keys it is built from."""
        return _Keys(self)

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self.masks) - 1

    def flats_by_grade(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for i, dim in enumerate(self.dims):
            out[dim - self.bottom_dim].append(i)
        return out

    @cached_property
    def covers_above(self) -> tuple[tuple[int, ...], ...]:
        """Positions of the flats covering flat i, from ``covers_below`` on first read."""
        above = [[] for _ in self.masks]
        for i, below in enumerate(self.covers_below):
            for j in below:
                above[j].append(i)
        return tuple(map(tuple, above))

    @cached_property
    def mobius_bottom(self) -> tuple[int, ...]:
        """mu(bottom, X) for every flat X, computed on first use."""
        return _mobius_bottom(self.covers_below, self.dims)

    @cached_property
    def bottom_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of ⊥, read off its key; a vector is orthogonal to ⊥ iff it
        lies in the span of the normals."""
        return nullspace(self.keys[self.bottom_index], self.arrangement.dim)

    @cached_property
    def atom_directions(self) -> tuple[tuple[int, ...], ...]:
        """For each flat in ``covers_above[bottom_index]``, the primitive vector spanning it
        in the span of the normals: the solution of its key, joined by ⊥'s basis if ⊥ ≠ 0.
        The key rows need no order, so they are not sorted."""
        n, vecs = self.arrangement.dim, self._vecs
        keys = [[vecs[r] for r in self._key_rows(self.masks[i])]
                for i in self.covers_above[self.bottom_index]]
        if bottom := self.bottom_basis:
            keys = [rref_int([*k, *bottom], n) for k in keys]
        return tuple(primitive_signed(free_solutions(k, n)[0]) for k in keys)


class _Keys(Sequence):
    """The keys of a lattice's flats by position, each computed on first access."""

    def __init__(self, lattice: FlatLattice):
        self._lattice = lattice

    def __len__(self) -> int:
        return len(self._lattice.masks)

    def __getitem__(self, i: int) -> tuple[tuple[int, ...], ...]:
        lattice = self._lattice
        return tuple(sorted(map(lattice._vecs.__getitem__, lattice._key_rows(lattice.masks[i])),
                            reverse=True))


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _mobius_bottom(covers_below, dims) -> tuple[int, ...]:
    """mu(bottom, X) = -(sum of mu(bottom, Y) over Y below X): -1 on grade 1 and (atoms
    below X) - 1 on grade 2.  Above, the flats below X form its down-set, a bitmask over
    positions joining those of its covers one grade down, whose down-sets alone are kept;
    positions of one Mobius value share a bitmask, so a sum is a popcount each."""
    mu, by_value, prev, cur = [], {}, {}, {}
    for i, (below, dim) in enumerate(zip(covers_below, dims)):
        if i and dim != dims[i - 1]:
            prev, cur = cur, {}
        ds = reduce(or_, [prev[c] for c in below], 0)
        mu.append((1, -1, len(below) - 1)[g] if (g := dim - dims[0]) < 3 else
                  -sum(v * (ds & s).bit_count() for v, s in by_value.items()))
        cur[i] = ds | 1 << i
        by_value[mu[i]] = by_value.get(mu[i], 0) | 1 << i
    return tuple(mu)


@lru_cache(maxsize=None)
def build_flats(a: Arrangement) -> FlatLattice:
    return FlatLattice(a)


def product(a: Arrangement, b: Arrangement) -> Arrangement:
    """Block-diagonal juxtaposition of the two arrangements."""
    za, zb = (0,) * a.dim, (0,) * b.dim
    return Arrangement(a.dim + b.dim, tuple([n + zb for n in a.normals]
                                            + [za + n for n in b.normals]))


def _pack(signs, m: int) -> int:
    """plus | minus << m for numbers whose signs are a sign vector."""
    return sum(1 << h + (s < 0) * m for h, s in enumerate(signs) if s)


def read_vector(a: Arrangement, v) -> tuple:
    """v read once, as a tuple of ints and Fractions of length a.dim."""
    if len(v := rational(v)) != a.dim:
        raise ValueError("vector dimension mismatch")
    return v


def halfspace_mask(a: Arrangement, v) -> int | None:
    """The rays d with <v, d> > 0, or None if v is not orthogonal to ⊥: the
    rays are ``atom_directions`` and then their negatives, so the mask packs
    the signs of v's products with the directions as a sign vector."""
    v = read_vector(a, v)
    lattice = build_flats(a)
    if any(dot(v, b) for b in lattice.bottom_basis):
        return None
    directions = lattice.atom_directions
    return _pack([dot(v, d) for d in directions], len(directions))


def is_very_generic_vector(a: Arrangement, v) -> bool:
    """True iff v avoids every hyperplane and the halfspace {<v,x> <= 0} is
    generic: its boundary contains ⊥ but no other flat."""
    return very_generic_failure(a, v) is None


def very_generic_failure(a: Arrangement, v):
    """None if v is very generic, else a human-readable reason."""
    return _very_generic_mask(a, v)[1]


def _very_generic_mask(a: Arrangement, v):
    """(halfspace_mask(a, v), very_generic_failure(a, v)); no mask if v is on a hyperplane."""
    v = read_vector(a, v)
    for normal in a.normals:
        if dot(normal, v) == 0:
            return None, f"v lies on the hyperplane with normal {normal}"
    return (up := halfspace_mask(a, v)), _halfspace_failure(a, up)


def halfspace_failure(a: Arrangement, v):
    """None if the halfspace {<v,x> <= 0} is generic (its boundary contains ⊥
    and no other flat), else a human-readable reason; v on a hyperplane is not checked."""
    return _halfspace_failure(a, halfspace_mask(a, v))


def _halfspace_failure(a: Arrangement, up):
    """``halfspace_failure`` read off v's halfspace mask."""
    if up is None:
        return "v is not orthogonal to the minimum flat"
    # A rank-1 flat on the boundary has both its bits clear: name the least key.
    lattice = build_flats(a)
    directions, atoms = lattice.atom_directions, lattice.covers_above[lattice.bottom_index]
    if on := set_bits(~(up | up >> len(atoms)) & (1 << len(atoms)) - 1):
        d = directions[min(on, key=lambda i: lattice.keys[atoms[i]])]
        return f"bounding hyperplane contains the rank-1 flat spanned by {d}"
    return None


def find_very_generic(a: Arrangement) -> tuple[int, ...]:
    """A deterministic very generic vector: the first very generic one among
    integer combinations of the key rows of ⊥ (spanning the normals) drawn
    from random.Random(0).  With no hyperplanes the span is empty and v is 0."""
    span = build_flats(a).keys[0]
    rng = random.Random(0)
    for _ in range(10000):
        coeffs = [rng.randint(-99, 99) for _ in span]
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, span)) for j in range(a.dim))
        if is_very_generic_vector(a, v):
            return v
    raise RuntimeError("no very generic vector found")


def characteristic_polynomial(a: Arrangement) -> IntPoly:
    """chi(t) = sum over flats of mu(V, X) t^dim(X), Mobius taken in the
    geometric lattice of reverse inclusion (minimum V = ambient space).  By
    Weisner's theorem mu(V, X) is minus the sum of mu(V, Y) over the flats Y
    covering X off H_j, the lowest hyperplane containing X."""
    lattice = build_flats(a)
    masks = lattice.masks
    mu = [0] * len(masks)
    coeffs = [0] * (a.dim + 1)
    for i in reversed(range(len(masks))):
        low = masks[i] & -masks[i]
        mu[i] = -sum(mu[y] for y in lattice.covers_above[i]
                     if not masks[y] & low) if low else 1
        coeffs[lattice.dims[i]] += mu[i]
    return IntPoly(tuple(coeffs))


def count_regions_zaslavsky(a: Arrangement) -> int:
    """Number of regions: (-1)^dim chi(-1)."""
    chi = characteristic_polynomial(a)
    return (-1) ** a.dim * chi(-1)
