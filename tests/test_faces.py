import random

import pytest

from primeul.arrangement import (Arrangement, build_flats, count_regions_zaslavsky,
                                 essentialize, is_very_generic_vector)
from primeul.faces import (enumerate_faces, enumerate_regions, face_leq,
                           faces_in_halfspace, is_sharp, is_simplicial,
                           opposite, rays_of_region, region_in_halfspace,
                           separation_set, sign_key, tits_product)
from primeul.families import braid, generic_gn, graphic, rank2, type_b, type_d, type_dnk
from primeul.linalg import rref_int

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
COORD2 = Arrangement.from_normals([(1, 0), (0, 1)], 2)
SKEW2 = Arrangement.from_normals([(1, 0), (1, 1)], 2)


def test_region_counts():
    assert len(enumerate_regions(braid(4))) == 24
    assert len(enumerate_regions(type_b(3))) == 48
    assert len(enumerate_regions(Arrangement(2, ()))) == 1


def test_regions_match_zaslavsky():
    for a in (braid(3), braid(4), type_b(2), type_b(3), type_d(3), rank2(5),
              FOUR_CYCLE, generic_gn(3), type_dnk(3, 1)):
        assert len(enumerate_regions(a)) == count_regions_zaslavsky(a)


def test_regions_sorted_deterministically():
    regions = enumerate_regions(type_b(2))
    assert list(regions) == sorted(regions, key=sign_key)
    assert all(0 not in r for r in regions)


def test_face_counts_rank1():
    a = Arrangement.from_normals([(1, 0)], 2)
    fan = enumerate_faces(a)
    assert sorted(fan.faces, key=sign_key) == [(0,), (1,), (-1,)]


def test_face_counts_braid4():
    fan = enumerate_faces(essentialize(braid(4)))
    assert fan.f_vector() == (1, 14, 36, 24)
    # grade-by-grade totals equal region counts of the restrictions
    lattice = build_flats(essentialize(braid(4)))
    from primeul.arrangement import restriction

    for g, flats in enumerate(lattice.flats_by_grade()):
        total = sum(len(enumerate_regions(restriction(lattice.arrangement, lattice.flats[i])))
                    for i in flats)
        assert fan.f_vector()[g] == total


def test_face_counts_i23():
    fan = enumerate_faces(rank2(3))
    assert fan.f_vector() == (1, 6, 6)
    assert len(fan) == 13


def test_tits_identity_properties():
    fan = enumerate_faces(rank2(3))
    center = fan.center
    for f in fan.faces:
        assert tits_product(fan, center, f) == f
        assert tits_product(fan, f, center) == f
        assert tits_product(fan, f, f) == f


def test_tits_left_regular_band_exhaustive():
    # fans below 200 faces get the full check
    for a in (rank2(2), rank2(4), essentialize(braid(4)), type_b(3)):
        fan = enumerate_faces(a)
        assert len(fan) <= 200
        for f in fan.faces:
            for g in fan.faces:
                fg = tits_product(fan, f, g)
                assert face_leq(f, fg)
                assert tits_product(fan, fg, f) == fg
                assert tits_product(fan, f, fg) == fg


def test_tits_rank2_example():
    fan = enumerate_faces(COORD2)
    # first nonzero wins entrywise: (+,0) * (0,-) lands in the region (+,-)
    assert tits_product(fan, (1, 0), (0, -1)) == (1, -1)
    # opposite rays on the same line absorb: (+,0) * (-,0) stays (+,0)
    assert tits_product(fan, (1, 0), (-1, 0)) == (1, 0)


def test_opposite():
    fan = enumerate_faces(type_b(2))
    assert opposite(fan.center) == fan.center
    for f in fan.faces:
        assert opposite(opposite(f)) == f
    region = (1,) * 4
    assert opposite(region) == (-1,) * 4


def test_separation():
    regions = enumerate_regions(braid(3))
    c = regions[0]
    assert separation_set(c, c) == frozenset()
    assert separation_set(c, opposite(c)) == frozenset(range(3))
    # adjacent regions are separated by exactly the flipped hyperplane
    for c in regions:
        for h in range(3):
            d = c[:h] + (-c[h],) + c[h + 1:]
            if d in regions:
                assert separation_set(c, d) == {h}


def test_adjacent_regions_share_facet():
    fan = enumerate_faces(type_b(2))
    regions = enumerate_regions(type_b(2))
    for c in regions:
        for h in range(4):
            d = c[:h] + (-c[h],) + c[h + 1:]
            if d in regions:
                wall = c[:h] + (0,) + c[h + 1:]
                assert wall in fan.index
                assert fan.grade(wall) == fan.rank - 1


def test_rays_first_quadrant():
    fan = enumerate_faces(COORD2)
    rays = rays_of_region(fan, (1, 1))
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_rays_counts():
    fan = enumerate_faces(rank2(3))
    for c in enumerate_regions(rank2(3)):
        assert len(rays_of_region(fan, c)) == 2
    fan4 = enumerate_faces(essentialize(braid(4)))
    for c in enumerate_regions(essentialize(braid(4))):
        assert len(rays_of_region(fan4, c)) == 3


def test_rays_need_essential():
    fan = enumerate_faces(braid(3))
    with pytest.raises(ValueError):
        rays_of_region(fan, enumerate_regions(braid(3))[0])


def test_simplicial():
    assert is_simplicial(type_b(3))
    assert is_simplicial(braid(4))
    assert is_simplicial(type_d(3))
    assert is_simplicial(type_dnk(3, 2))
    assert not is_simplicial(FOUR_CYCLE)
    assert not is_simplicial(generic_gn(4))
    assert is_simplicial(Arrangement(2, ()))


def test_sharp():
    assert is_sharp(type_b(3))
    assert is_sharp(COORD2)
    assert is_sharp(braid(4))  # reflection arrangements are sharp
    assert not is_sharp(SKEW2)  # combinatorially the coordinate fan, metrically not


def test_region_in_halfspace():
    b3 = type_b(3)
    v = (1, 2, 4)
    regions = enumerate_regions(b3)
    base = tuple(1 if sum(n * x for n, x in zip(h.normal, v)) > 0 else -1
                 for h in b3.hyperplanes)
    assert not region_in_halfspace(b3, base, v)  # contains v itself
    assert region_in_halfspace(b3, opposite(base), v)
    contained = [c for c in regions if region_in_halfspace(b3, c, v)]
    assert len(contained) == 15  # Greene-Zaslavsky: |mu(bot, top)|
    # a ray on the bounding hyperplane keeps the closed quadrant inside
    assert region_in_halfspace(COORD2, (1, 1), (0, -1))
    assert not region_in_halfspace(COORD2, (1, 1), (1, -1))


def test_faces_in_halfspace_rank1():
    a = Arrangement.from_normals([(1, 0)], 2)
    fan = enumerate_faces(a)
    inside = faces_in_halfspace(fan, (1, 0))
    assert sorted(inside, key=sign_key) == [(0,), (-1,)]


def test_faces_in_halfspace_graded_counts():
    fan = enumerate_faces(essentialize(braid(4)))
    from primeul.eulerpoly import find_very_generic

    v = find_very_generic(essentialize(braid(4)))
    inside = faces_in_halfspace(fan, v)
    counts = [0, 0, 0, 0]
    for f in inside:
        counts[fan.grade(f)] += 1
    assert counts == [1, 7, 12, 6]
    full = [f for f in inside if fan.grade(f) == 3]
    assert len(full) == 6  # |mu(bot, top)| of the rank-3 braid lattice


def test_faces_in_halfspace_requires_very_generic():
    fan = enumerate_faces(type_b(2))
    with pytest.raises(ValueError):
        faces_in_halfspace(fan, (1, 1))


def _signed(a, signs):
    return [tuple(s * x for x in h.normal)
            for s, h in zip(signs, a.hyperplanes) if s]


def _zero_normals(a, signs):
    return [h.normal for s, h in zip(signs, a.hyperplanes) if s == 0]


def _random_very_generic(a, rng):
    span = rref_int(a.normals, a.dim)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in span]
        v = tuple(sum(c * row[j] for c, row in zip(coeffs, span))
                  for j in range(a.dim))
        if is_very_generic_vector(a, v):
            return v


def test_regions_against_brute_force():
    # The strict-feasibility oracle is the independent certificate: faces,
    # dims, regions and halfspace containment are decided here by one linear
    # program per sign vector and compared with the cocircuit fan.
    from itertools import product as iproduct

    from primeul.cli import _PATH_BUILTINS
    from primeul.eulerpoly import find_very_generic
    from primeul.families import parse_family
    from primeul.feasibility import strict_feasible

    for a in (rank2(4), braid(3), type_b(2), type_d(3),
              Arrangement.from_normals([(1, 2, 0), (0, 1, 1), (1, 0, -1)], 3),
              SKEW2,
              Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
              Arrangement(2, ())):
        m = len(a.hyperplanes)
        brute = []
        for signs in iproduct((1, 0, -1), repeat=m):
            if strict_feasible(_signed(a, signs), _zero_normals(a, signs), a.dim):
                brute.append(signs)
        brute.sort(key=sign_key)
        fan = enumerate_faces(a)
        assert fan.faces == tuple(brute)
        assert fan.dims == tuple(
            a.dim - len(rref_int(_zero_normals(a, f), a.dim)) for f in brute)
        assert enumerate_regions(a) == tuple(f for f in brute if 0 not in f)

    # the vector the routes pick by default, and two random ones
    rng = random.Random(3)
    for family in _PATH_BUILTINS:
        a = parse_family(family)
        assert a.rank() <= 4
        fan = enumerate_faces(a)
        for v in (find_very_generic(a), _random_very_generic(a, rng),
                  _random_very_generic(a, rng)):
            certified = tuple(
                f for f in fan.faces
                if not strict_feasible(_signed(a, f) + [v], _zero_normals(a, f), a.dim))
            assert faces_in_halfspace(fan, v) == certified, (family, v)

    # v not orthogonal to the minimum flat: no closed region fits in the
    # halfspace, since each contains the whole minimum flat
    a = braid(3)
    for c in enumerate_regions(a):
        assert strict_feasible(_signed(a, c) + [(1, 1, 1)], (), a.dim)
        assert not region_in_halfspace(a, c, (1, 1, 1))


def test_empty_arrangement_fan():
    fan = enumerate_faces(Arrangement(3, ()))
    assert fan.faces == ((),)
    assert fan.f_vector() == (1,)
    assert fan.regions() == ((),)
