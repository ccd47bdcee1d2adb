"""Central hyperplane arrangements and their lattices of flats.

A hyperplane is stored as a primitive integer normal with its first nonzero
entry positive, which fixes the orientation of the two halfspaces and makes
duplicates detectable.  Flats are keyed by the int bitmask of the
hyperplanes containing them; since a flat equals the intersection of exactly
that set, containment of flats is containment of masks in reverse, and Mobius
values come from bitmask subset tests.  The flats just below a flat X are
the classes of the hyperplanes off X, grouped by their restriction to X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intpoly import IntPoly
from .linalg import Subspace, dot, in_rowspace, primitive, primitive_signed, rref_int


@dataclass(frozen=True)
class Hyperplane:
    normal: tuple[int, ...]

    @classmethod
    def from_vector(cls, vec) -> Hyperplane:
        n = primitive_signed(vec)
        if not any(n):
            raise ValueError("hyperplane normal must be nonzero")
        return cls(n)

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
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

    def bottom(self) -> Subspace:
        """The minimum flat: intersection of all hyperplanes."""
        return Subspace.from_normals(self.normals, self.dim)


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

        # Grade by grade down from the ambient space, each flat of a level
        # with an integer basis.  ``gens`` maps every mask found to hyperplanes
        # whose normals span the flat's normal space, reduced once at the end.
        gens = {0: ()}
        level = {0: tuple(tuple(int(i == j) for j in range(n)) for i in range(n))}
        while level:
            below = {}
            for mask, basis in level.items():
                groups: dict[tuple[int, ...], list[int]] = {}
                for j, v in enumerate(normals):
                    if not mask >> j & 1:
                        d = primitive_signed(tuple(dot(v, b) for b in basis))
                        groups.setdefault(d, []).append(j)
                for d, group in groups.items():
                    cover = mask + sum(1 << j for j in group)
                    if cover not in below:
                        gens[cover] = gens[mask] + (group[0],)
                        below[cover] = _cut(basis, d)
            level = below

        bottom_dim = n - max(len(g) for g in gens.values())
        flats = []
        for mask, g in gens.items():
            key = rref_int([normals[j] for j in g], n)
            flats.append((n - len(key), key, mask))
        flats.sort()
        self.flats: tuple[Flat, ...] = tuple(
            Flat(Subspace(n, key), frozenset(j for j in range(len(normals))
                                             if mask >> j & 1))
            for _, key, mask in flats)
        # Bit j of a flat's mask is set iff hyperplane j contains the flat;
        # Y <= X in the lattice iff mask(Y) is a superset of mask(X).
        self._masks = tuple(mask for _, _, mask in flats)
        self.bottom_dim = bottom_dim
        self.rank = n - bottom_dim
        self._pos = {f.subspace.normals: i for i, f in enumerate(self.flats)}
        self.mobius_bottom: tuple[int, ...] = _mobius_from_first(self._masks)

    def __len__(self) -> int:
        return len(self.flats)

    def grade(self, i: int) -> int:
        return self.flats[i].dim - self.bottom_dim

    def leq(self, i: int, j: int) -> bool:
        """True iff flat i is contained in flat j."""
        return self._masks[i] & self._masks[j] == self._masks[j]

    def position(self, subspace: Subspace) -> int:
        return self._pos[subspace.normals]

    def find(self, subspace: Subspace) -> int | None:
        return self._pos.get(subspace.normals)

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

    def grade_one_directions(self) -> list[tuple[int, ...]]:
        """For each grade-1 flat, an integer vector spanning it modulo ⊥."""
        bottom = self.flats[0].subspace
        dirs = []
        for i in range(len(self.flats)):
            if self.grade(i) != 1:
                continue
            basis = self.flats[i].subspace.basis()
            d = next(r for r in basis if not bottom.contains_vector(r))
            dirs.append(d)
        return dirs


def _cut(basis, d):
    """Integer basis of the vectors sum c_i basis[i] with <d, c> = 0: the
    pivot row is eliminated from the others in one integer step."""
    i0 = next(i for i, c in enumerate(d) if c)
    a0, pivot = d[i0], basis[i0]
    return tuple(b if not c else primitive(tuple(a0 * x - c * y for x, y in zip(b, pivot)))
                 for i, (b, c) in enumerate(zip(basis, d)) if i != i0)


def _mobius_from_first(masks) -> tuple[int, ...]:
    """mu(first, X) for masks listed along a linear extension of the order
    Y <= X iff mask(Y) is a superset of mask(X)."""
    mu: list[int] = []
    for m in masks:
        mu.append(-sum(v for mj, v in zip(masks, mu) if mj & m == m) if mu else 1)
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
    if lattice.find(x.subspace) is None:
        raise ValueError("not a flat of the arrangement")


def essentialize(a: Arrangement) -> Arrangement:
    """A combinatorially isomorphic arrangement of full rank.

    Coordinates come from the canonical basis of the span of the normals, so
    the result is deterministic; the chart is not an isometry, so metric
    properties (sharpness) must be read off the original coordinates.
    """
    chart = rref_int(a.normals, a.dim)
    normals = []
    seen = set()
    for h in a.hyperplanes:
        v = primitive_signed(tuple(dot(h.normal, b) for b in chart))
        if v in seen:
            raise AssertionError("essentialization collapsed distinct hyperplanes")
        seen.add(v)
        normals.append(v)
    return Arrangement.from_normals(normals, len(chart)) if normals else Arrangement(0, ())


def product(a: Arrangement, b: Arrangement) -> Arrangement:
    """Block-diagonal juxtaposition of the two arrangements."""
    za = (0,) * a.dim
    zb = (0,) * b.dim
    normals = [h.normal + zb for h in a.hyperplanes]
    normals += [za + h.normal for h in b.hyperplanes]
    return Arrangement(a.dim + b.dim,
                       tuple(Hyperplane.from_vector(v) for v in normals))


def is_very_generic_vector(a: Arrangement, v) -> bool:
    """True iff v avoids every hyperplane and the halfspace {<v,x> <= 0} is
    generic: its boundary contains ⊥ but no other flat."""
    v = tuple(v)
    if len(v) != a.dim:
        raise ValueError("vector dimension mismatch")
    return (very_generic_failure(a, v) is None)


def very_generic_failure(a: Arrangement, v):
    """None if v is very generic, else a human-readable reason."""
    v = tuple(v)
    for h in a.hyperplanes:
        if dot(h.normal, v) == 0:
            return f"v lies on the hyperplane with normal {h.normal}"
    return halfspace_failure(a, v)


def halfspace_failure(a: Arrangement, v):
    """None if the halfspace {<v,x> <= 0} is generic (its boundary contains
    the minimum flat and no other flat), else a human-readable reason; v
    lying on hyperplanes of the arrangement is not checked."""
    # Orthogonality to ⊥ is membership in the span of the normals.
    span = rref_int(a.normals, a.dim)
    if not in_rowspace(v, span, a.dim):
        return "v is not orthogonal to the minimum flat"
    lattice = build_flats(a)
    for d in lattice.grade_one_directions():
        if dot(d, v) == 0:
            return f"bounding hyperplane contains the rank-1 flat spanned by {d}"
    return None


def characteristic_polynomial(a: Arrangement) -> IntPoly:
    """chi(t) = sum over flats of mu(top, X) t^dim(X), Mobius taken in the
    order by reverse inclusion (minimum = ambient space)."""
    lattice = build_flats(a)
    # Complemented masks, top first, list the reverse-inclusion order.
    full = (1 << len(a.hyperplanes)) - 1
    mu = _mobius_from_first([full ^ m for m in reversed(lattice._masks)])[::-1]
    coeffs = [0] * (a.dim + 1)
    for flat, m in zip(lattice.flats, mu):
        coeffs[flat.dim] += m
    return IntPoly(tuple(coeffs))


def count_regions_zaslavsky(a: Arrangement) -> int:
    """Number of regions: (-1)^dim chi(-1)."""
    chi = characteristic_polynomial(a)
    return (-1) ** a.dim * chi(-1)
