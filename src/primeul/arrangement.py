"""Central hyperplane arrangements and their lattices of flats.

A hyperplane is stored as a primitive integer normal with its first nonzero
entry positive, which fixes the orientation of the two halfspaces and makes
duplicates detectable.  Flats are keyed by the int bitmask of the
hyperplanes containing them; since a flat equals the intersection of exactly
that set, containment of flats is containment of masks in reverse.  The
flats just below a flat X are the classes of the hyperplanes off X, grouped
by their restriction to X: a line, kept as a normal reduced modulo the key
of X (the canonical RREF of its normal space), which is the one new row of
its cover's key.  Mobius values come from the covers.  The lattice also
owns a basis of the minimum flat ⊥ and the direction of each rank-1 flat
inside the span of the normals; the very generic test and the fan read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import or_

from .intpoly import IntPoly
from .linalg import Subspace, dot, nullspace, primitive_signed, rref_int


@dataclass(frozen=True)
class Hyperplane:
    normal: tuple[int, ...]

    def __post_init__(self):
        if not any(self.normal) or self.normal != primitive_signed(self.normal):
            raise ValueError(f"normal {self.normal} must be nonzero and primitive_signed")

    @classmethod
    def from_vector(cls, vec) -> Hyperplane:
        return cls(primitive_signed(vec))

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"ambient dimension {self.dim} must be >= 0")
        seen = set()
        for h in self.hyperplanes:
            if len(h.normal) != self.dim:
                raise ValueError("hyperplane dimension mismatch")
            if h.normal in seen:
                raise ValueError(f"duplicate hyperplane {h.normal}")
            seen.add(h.normal)

    @classmethod
    def from_normals(cls, normals, dim: int | None = None) -> Arrangement:
        normals = list(normals)
        if dim is None:
            if not normals:
                raise ValueError("dimension required for an empty arrangement")
            dim = len(normals[0])
        return cls(dim, tuple(Hyperplane.from_vector(v) for v in normals))

    @property
    def normals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(h.normal for h in self.hyperplanes)

    def rank(self) -> int:
        return len(rref_int(self.normals, self.dim))


@dataclass(frozen=True)
class Flat:
    subspace: Subspace
    containing: frozenset[int]

    @property
    def dim(self) -> int:
        return self.subspace.dim


class FlatLattice:
    """All intersections of hyperplane subsets, with Mobius values from ⊥.

    Flats are sorted by (grade, canonical key), where grade is the lattice
    height above the minimum flat; positions in ``flats`` are the handles
    used everywhere else.
    """

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        n = arrangement.dim
        normals = arrangement.normals

        # Grade by grade down from the ambient space, whose restricted lines
        # are the normals.  The hyperplanes on one line of a flat make one
        # cover; ``down`` keeps them all.  ``keys`` maps every mask found to
        # its flat's key: the parent's rows with column c eliminated by the
        # line d of pivot c, plus d, in pivot order (descending tuples), and
        # ``containing`` to its set bits, the parent's joined with the line's.
        keys = {0: ()}
        containing = {0: frozenset()}
        down: dict[int, list[int]] = {}
        level = {0: {v: 1 << j for j, v in enumerate(normals)}}
        while level:
            below = {}
            for mask, lines in level.items():
                covers = down[mask] = []
                for d, group in lines.items():
                    cover = mask | group
                    covers.append(cover)
                    if cover not in below:
                        c = next(i for i, x in enumerate(d) if x)
                        keys[cover] = tuple(sorted([_reduce(r, d, c) if r[c] else r
                                                    for r in keys[mask]] + [d], reverse=True))
                        containing[cover] = containing[mask].union(set_bits(group))
                        below[cover] = _cut(lines, d, c)
            level = below

        flats = sorted((n - len(key), key, mask) for mask, key in keys.items())
        self.flats: tuple[Flat, ...] = tuple(
            Flat(Subspace(n, key), containing[mask]) for _, key, mask in flats)
        # Bit j of a flat's mask is set iff hyperplane j contains the flat;
        # Y <= X in the lattice iff mask(Y) is a superset of mask(X).
        self.masks = tuple(mask for _, _, mask in flats)
        self.bottom_dim = flats[0][0]
        self.rank = n - self.bottom_dim
        self._pos = {f.subspace: i for i, f in enumerate(self.flats)}
        # Positions of the flats that flat i covers / that cover flat i.
        at = {m: i for i, m in enumerate(self.masks)}
        self.covers_below = tuple(tuple(sorted(at[c] for c in down[m]))
                                  for m in self.masks)
        above: list[list[int]] = [[] for _ in flats]
        for i, below_i in enumerate(self.covers_below):
            for j in below_i:
                above[j].append(i)
        self.covers_above = tuple(map(tuple, above))

    def __len__(self) -> int:
        return len(self.flats)

    def grade(self, i: int) -> int:
        return self.flats[i].dim - self.bottom_dim

    def leq(self, i: int, j: int) -> bool:
        """True iff flat i is contained in flat j."""
        return self.masks[i] & self.masks[j] == self.masks[j]

    def position(self, subspace: Subspace) -> int:
        return self._pos[subspace]

    def find(self, subspace: Subspace) -> int | None:
        return self._pos.get(subspace)

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self.flats) - 1

    def flats_by_grade(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for i in range(len(self.flats)):
            out[self.grade(i)].append(i)
        return out

    @cached_property
    def mobius_bottom(self) -> tuple[int, ...]:
        """mu(bottom, X) for every flat X, computed on first use."""
        return _mobius_bottom(self.covers_below, [f.dim for f in self.flats])

    @cached_property
    def bottom_basis(self) -> tuple[tuple[int, ...], ...]:
        """Basis of ⊥, read off its key; a vector is orthogonal to ⊥ iff it
        lies in the span of the normals."""
        return nullspace(self.flats[0].subspace.normals, self.arrangement.dim)

    @cached_property
    def atom_directions(self) -> tuple[tuple[int, ...], ...]:
        """For each flat in ``covers_above[bottom_index]``, the primitive
        vector spanning it inside the span of the normals."""
        return tuple(nullspace(self.flats[i].subspace.normals + self.bottom_basis,
                               self.arrangement.dim)[0]
                     for i in self.covers_above[self.bottom_index])


def _reduce(r, d, c):
    """r with column c eliminated by d, whose pivot is c; primitive_signed.
    r is off the line of d, so the result is nonzero."""
    a, b = d[c], r[c]
    v = [a * x - b * y for x, y in zip(r, d)]
    g = gcd(*v) if next(filter(None, v)) > 0 else -gcd(*v)
    return tuple([x // g for x in v]) if g != 1 else tuple(v)


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _cut(lines, d, c):
    """The lines of the cover cut out by the line d with pivot c, reduced
    modulo the cover's key; lines landing on one image join their masks."""
    out: dict[tuple[int, ...], int] = {}
    for r, m in lines.items():
        if r != d:
            v = _reduce(r, d, c) if r[c] else r
            out[v] = out.get(v, 0) | m
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


def restriction(a: Arrangement, x: Flat) -> Arrangement:
    """The arrangement induced inside the flat x, in chart coordinates."""
    _require_flat(a, x)
    chart = x.subspace.basis()
    normals = dict.fromkeys(
        primitive_signed(tuple(dot(h.normal, b) for b in chart))
        for i, h in enumerate(a.hyperplanes) if i not in x.containing)
    return Arrangement.from_normals(normals, len(chart))


def localization(a: Arrangement, x: Flat) -> Arrangement:
    """Subarrangement of the hyperplanes containing x, in the same space."""
    _require_flat(a, x)
    return Arrangement(a.dim, tuple(a.hyperplanes[i] for i in sorted(x.containing)))


def _require_flat(a: Arrangement, x: Flat):
    lattice = build_flats(a)
    i = lattice.find(x.subspace)
    if i is None or lattice.flats[i] != x:
        raise ValueError("not a flat of the arrangement")


def essentialize(a: Arrangement) -> Arrangement:
    """A combinatorially isomorphic arrangement of full rank.

    Coordinates come from the canonical basis of the span of the normals, so
    the result is deterministic; the chart is not an isometry, so metric
    properties (sharpness) must be read off the original coordinates.
    """
    chart = rref_int(a.normals, a.dim)
    return Arrangement.from_normals(
        [tuple(dot(h.normal, b) for b in chart) for h in a.hyperplanes], len(chart))


def product(a: Arrangement, b: Arrangement) -> Arrangement:
    """Block-diagonal juxtaposition of the two arrangements."""
    za, zb = (0,) * a.dim, (0,) * b.dim
    return Arrangement.from_normals([h.normal + zb for h in a.hyperplanes]
                                    + [za + h.normal for h in b.hyperplanes], a.dim + b.dim)


def is_very_generic_vector(a: Arrangement, v) -> bool:
    """True iff v avoids every hyperplane and the halfspace {<v,x> <= 0} is
    generic: its boundary contains ⊥ but no other flat."""
    return very_generic_failure(a, v) is None


def very_generic_failure(a: Arrangement, v):
    """None if v is very generic, else a human-readable reason."""
    v = tuple(v)
    if len(v) != a.dim:
        raise ValueError("vector dimension mismatch")
    for h in a.hyperplanes:
        if dot(h.normal, v) == 0:
            return f"v lies on the hyperplane with normal {h.normal}"
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
        coeffs[lattice.flats[i].dim] += mu[i]
    return IntPoly(tuple(coeffs))


def count_regions_zaslavsky(a: Arrangement) -> int:
    """Number of regions: (-1)^dim chi(-1)."""
    chi = characteristic_polynomial(a)
    return (-1) ** a.dim * chi(-1)
