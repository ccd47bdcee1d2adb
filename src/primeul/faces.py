"""Faces and regions of an arrangement as sign vectors, with the Tits
product, separation sets, rays, simpliciality and sharpness tests.

A sign vector assigns -1, 0 or +1 to every hyperplane in arrangement order.
The faces are the covectors of the arrangement's oriented matroid: all
compositions of its cocircuits, which are the sign vectors of the two rays
along each rank-1 flat.  Every face stores the directions of the rays in its
closure, and every geometric test here reads those directions, so no linear
program is solved.  Regions are the faces without zeros.  The deterministic
order used everywhere sorts sign vectors by entry with 0 < + < -.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .arrangement import Arrangement, build_flats, is_very_generic_vector
from .linalg import dot, nullspace, primitive

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane

_SORT = {0: 0, 1: 1, -1: 2}


def sign_key(signs: SignVector) -> tuple[int, ...]:
    return tuple(_SORT[s] for s in signs)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _zero_set(f: SignVector) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(f) if s == 0)


def _compositions(cocircuits, m: int) -> set[SignVector]:
    """Closure of the zero vector under composition with the cocircuits.

    Composing f with c ("x or y" entrywise) only rewrites f on its zero set,
    so the distinct restrictions of the cocircuits are taken once per zero
    set.
    """
    zero = (0,) * m
    found = {zero}
    stack = [zero]
    restrictions: dict[tuple[int, ...], set] = {}
    while stack:
        f = stack.pop()
        zeros = _zero_set(f)
        parts = restrictions.get(zeros)
        if parts is None:
            parts = {tuple([c[i] for i in zeros]) for c in cocircuits}
            restrictions[zeros] = parts
        for part in parts:
            g = list(f)
            for i, s in zip(zeros, part):
                g[i] = s
            g = tuple(g)
            if g not in found:
                found.add(g)
                stack.append(g)
    return found


class FanIndex:
    """Complete list of faces of an arrangement, indexed by sign vector,
    with the rays in the closure of each face."""

    def __init__(self, arrangement: Arrangement):
        self.arrangement = arrangement
        lattice = build_flats(arrangement)
        normals = arrangement.normals
        # Basis of ⊥; a vector is orthogonal to ⊥ iff it lies in the span of
        # the normals, where the ray directions are taken.
        self.bottom_basis = nullspace(normals, arrangement.dim)
        directions: dict[SignVector, tuple[int, ...]] = {}
        for i in lattice.covers_above[lattice.bottom_index]:
            flat = lattice.flats[i]
            line = nullspace(flat.subspace.normals + self.bottom_basis,
                             arrangement.dim)
            d = primitive(line[0])
            for r in (d, tuple(-x for x in d)):
                directions[tuple(_sign(dot(n, r)) for n in normals)] = r
        cocircuits = sorted(directions, key=sign_key)
        # A ray lies in the closure of f iff it lies in f's flat (vanishes on
        # f's zero set) and f agrees with it on its support.
        checks = []
        for c in cocircuits:
            pick = itemgetter(*[i for i, s in enumerate(c) if s])
            checks.append((frozenset(_zero_set(c)), pick, pick(c), directions[c]))
        dim_of = {flat.containing: flat.dim for flat in lattice.flats}
        in_flat: dict[frozenset, list] = {}
        ordered = sorted(_compositions(cocircuits, len(normals)), key=sign_key)
        dims, rays = [], []
        for f in ordered:
            zeros = frozenset(_zero_set(f))
            if zeros not in in_flat:
                in_flat[zeros] = [t for t in checks if t[0] >= zeros]
            dims.append(dim_of[zeros])
            rays.append(tuple(d for _, pick, signs, d in in_flat[zeros]
                              if pick(f) == signs))
        self.faces: tuple[SignVector, ...] = tuple(ordered)
        self.dims: tuple[int, ...] = tuple(dims)
        self.rays: tuple[tuple[tuple[int, ...], ...], ...] = tuple(rays)
        self.index: dict[SignVector, int] = {f: i for i, f in enumerate(ordered)}
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
        return tuple(f for f in self.faces if 0 not in f)

    def rays_of(self, f: SignVector) -> tuple[tuple[int, ...], ...]:
        """Directions of the rays in the closure of f, in fan order."""
        return self.rays[self.index[f]]

    def closure_in_halfspace(self, f: SignVector, v) -> bool:
        """True iff the closed face f lies in {x : <v, x> <= 0}.

        The closed face is ⊥ plus the cone over its rays, so it lies in the
        halfspace iff v is orthogonal to ⊥ and no ray points to <v, x> > 0.
        """
        return (all(dot(v, b) == 0 for b in self.bottom_basis)
                and all(dot(v, d) <= 0 for d in self.rays_of(f)))

    @property
    def center(self) -> SignVector:
        return (0,) * len(self.arrangement.hyperplanes)


@lru_cache(maxsize=None)
def enumerate_faces(a: Arrangement) -> FanIndex:
    return FanIndex(a)


@lru_cache(maxsize=None)
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
    return all(len(fan.rays_of(c)) == fan.rank for c in fan.regions())


def is_sharp(a: Arrangement) -> bool:
    """Simplicial, with every region's facet angles at most pi/2.

    With rays r_1..r_d of a region c and the dual vectors n_i in their span
    (<n_i, r_j> = delta_ij), the angle condition is <n_i, n_j> <= 0 off the
    diagonal.  n_i is a positive multiple of the inward normal c[h] v_h of
    the wall h opposite r_i, where h is a wall iff c with 0 at h is a face;
    normals lie in the span of the rays, so no essentializing is needed.
    """
    fan = enumerate_faces(a)
    if fan.rank <= 1:
        return True
    if not is_simplicial(a):
        return False
    normals = a.normals
    for c in fan.regions():
        walls = [h for h in range(len(c)) if c[:h] + (0,) + c[h + 1:] in fan.index]
        for x, h in enumerate(walls):
            for k in walls[x + 1:]:
                if c[h] * c[k] * dot(normals[h], normals[k]) > 0:
                    return False
    return True


def region_in_halfspace(a: Arrangement, c: SignVector, v) -> bool:
    """True iff the closed region lies in {x : <v, x> <= 0}."""
    return enumerate_faces(a).closure_in_halfspace(c, v)


def faces_in_halfspace(fan: FanIndex, v) -> tuple[SignVector, ...]:
    """All faces whose closed cone lies in {x : <v, x> <= 0}.

    Requires a very generic v; the central face is always included since the
    bounding hyperplane contains the minimum flat.
    """
    if not is_very_generic_vector(fan.arrangement, v):
        raise ValueError("vector is not very generic")
    return tuple(f for f in fan.faces if fan.closure_in_halfspace(f, v))
