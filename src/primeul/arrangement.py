"""Central hyperplane arrangements and their lattices of flats.

A hyperplane is its normal, a primitive integer tuple with its first nonzero
entry positive, which fixes the orientation of the two halfspaces and makes
duplicates detectable; an arrangement is its dimension and its normals.
Flats are keyed by the int bitmask of the hyperplanes containing them; since
a flat equals the intersection of exactly that set, containment of flats is
containment of masks in reverse.  The flats just below a flat X are the
classes of the hyperplanes off X, grouped by their restriction to X: a line,
kept as a normal reduced modulo the key of X (the canonical RREF of its
normal space), which is the one new row of its cover's key.  The image of a
line or key row under a cover's line, its pivot line, depends on the two
alone and recurs across many flats, so each is computed once per build, by
``linalg``'s elimination step ``_reduce``, the one ``rref_int`` runs on.
Mobius values come from the covers.  A flat is its position in the lattice,
which holds its mask, dimension and key; there is no separate flat object.
The lattice also owns a basis of the minimum flat ⊥ and the direction of
each rank-1 flat inside the span of the normals; the very generic test and
the fan read them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import or_

from .intpoly import Frozen, IntPoly
from .linalg import _reduce, dot, free_solutions, nullspace, primitive_signed, rref_int


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

    Flats are sorted by (grade, canonical key), where grade is the lattice
    height above the minimum flat; positions are the handles used everywhere
    else.  Flat i is ``masks[i]``, ``dims[i]`` and ``keys[i]`` (the canonical
    RREF of its normal space).
    """

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        n = arrangement.dim
        normals = arrangement.normals

        # Grade by grade down from the ambient space, whose restricted lines
        # are the normals.  The hyperplanes on one line of a flat make one
        # cover; ``down`` keeps them all.  ``keys`` maps every mask found to
        # its flat's key: the parent's rows with column c eliminated by the
        # line d of pivot c, plus d, in pivot order (descending tuples).  The
        # cover's lines are the parent's other lines reduced the same way,
        # those landing on one image joining their masks.  One pair (r, d)
        # meets many flats, so ``images[d]`` holds d's pivot c and the image
        # of every row or line r with r[c] != 0 met so far: each is reduced
        # once per build.
        keys = {0: ()}
        down: dict[int, list[int]] = {}
        images: dict[tuple[int, ...], tuple[int, dict]] = {}
        level = {0: {v: 1 << j for j, v in enumerate(normals)}}
        while level:
            below = {}
            for mask, lines in level.items():
                covers = down[mask] = []
                for d, group in lines.items():
                    cover = mask | group
                    covers.append(cover)
                    if cover in below:
                        continue
                    c, image = images.get(d) or images.setdefault(
                        d, (next(i for i, x in enumerate(d) if x), {}))
                    keys[cover] = tuple(sorted([
                        image.get(r) or image.setdefault(r, _reduce(r, d, c)) if r[c] else r
                        for r in keys[mask]] + [d], reverse=True))
                    cut = below[cover] = {}
                    for r, m in lines.items():
                        if r is not d:
                            v = image.get(r) or image.setdefault(r, _reduce(r, d, c)) if r[c] else r
                            cut[v] = cut.get(v, 0) | m
            level = below

        # Bit j of a flat's mask is set iff hyperplane j contains the flat;
        # Y <= X in the lattice iff mask(Y) is a superset of mask(X).
        self.dims, self.keys, self.masks = zip(*sorted(
            (n - len(key), key, mask) for mask, key in keys.items()))
        self.bottom_dim = self.dims[0]
        self.rank = n - self.bottom_dim
        # Positions of the flats that flat i covers / that cover flat i.
        at = {m: i for i, m in enumerate(self.masks)}
        self.covers_below = tuple(tuple(sorted(at[c] for c in down[m]))
                                  for m in self.masks)
        above: list[list[int]] = [[] for _ in self.masks]
        for i, below_i in enumerate(self.covers_below):
            for j in below_i:
                above[j].append(i)
        self.covers_above = tuple(map(tuple, above))

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
    def mobius_bottom(self) -> tuple[int, ...]:
        """mu(bottom, X) for every flat X, computed on first use."""
        return _mobius_bottom(self.covers_below, self.dims)

    @cached_property
    def bottom_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of ⊥, read off its key; a vector is orthogonal to ⊥ iff it
        lies in the span of the normals."""
        return nullspace(self.keys[0], self.arrangement.dim)

    @cached_property
    def atom_directions(self) -> tuple[tuple[int, ...], ...]:
        """For each flat in ``covers_above[bottom_index]``, the primitive vector spanning it
        in the span of the normals: the solution of its key, joined by ⊥'s basis if ⊥ ≠ 0."""
        n = self.arrangement.dim
        keys = [self.keys[i] for i in self.covers_above[self.bottom_index]]
        if bottom := self.bottom_basis:
            keys = [rref_int(k + bottom, n) for k in keys]
        return tuple(primitive_signed(free_solutions(k, n)[0]) for k in keys)


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _mobius_bottom(covers_below, dims) -> tuple[int, ...]:
    """mu(bottom, X) = -(sum of mu(bottom, Y) over Y below X).  The flats
    below X form its down-set, a bitmask over positions joining those of its
    covers, which lie one grade down: only that grade's down-sets are kept.
    Positions of one Mobius value share a bitmask: a sum is a popcount each."""
    mu, by_value, prev, cur = [], {}, {}, {}
    for i, (below, dim) in enumerate(zip(covers_below, dims)):
        if i and dim != dims[i - 1]:
            prev, cur = cur, {}
        ds = reduce(or_, [prev[c] for c in below], 0)
        mu.append(-sum(v * (ds & s).bit_count() for v, s in by_value.items()) if i else 1)
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


def is_very_generic_vector(a: Arrangement, v) -> bool:
    """True iff v avoids every hyperplane and the halfspace {<v,x> <= 0} is
    generic: its boundary contains ⊥ but no other flat."""
    return very_generic_failure(a, v) is None


def very_generic_failure(a: Arrangement, v):
    """None if v is very generic, else a human-readable reason."""
    v = tuple(v)
    if len(v) != a.dim:
        raise ValueError("vector dimension mismatch")
    for normal in a.normals:
        if dot(normal, v) == 0:
            return f"v lies on the hyperplane with normal {normal}"
    return halfspace_failure(a, v)


def halfspace_failure(a: Arrangement, v):
    """None if the halfspace {<v,x> <= 0} is generic (its boundary contains
    the minimum flat and no other flat), else a human-readable reason; v
    lying on hyperplanes of the arrangement is not checked."""
    v = tuple(v)
    if len(v) != a.dim:
        raise ValueError("vector dimension mismatch")
    lattice = build_flats(a)
    if any(dot(v, b) for b in lattice.bottom_basis):
        return "v is not orthogonal to the minimum flat"
    for d in lattice.atom_directions:
        if dot(d, v) == 0:
            return f"bounding hyperplane contains the rank-1 flat spanned by {d}"
    return None


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
