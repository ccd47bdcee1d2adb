from collections import Counter

import pytest

from primeul.arrangement import Arrangement, set_bits
from primeul.faces import (WeakOrder, base_region_of, enumerate_faces,
                           enumerate_regions, region_in_halfspace)
from primeul.families import braid, type_b
from test_faces import (faces_in_halfspace, opposite, packed_faces, packed_grade,
                        tits_product)


def hexagon():
    return braid(3)


def sep(c, d):
    """The hyperplanes separating the regions c and d, given as sign tuples."""
    return {h for h, (x, y) in enumerate(zip(c, d)) if x != y}


def ranks(w, base):
    """Each region's rank in the graded weak order: its distance from the
    base region, a sign tuple, along covers_above."""
    rank, level, r = {}, {base}, 0
    while level:
        rank.update(dict.fromkeys(level, r))
        level = {d for c in level for d in w.covers_above(c)}
        r += 1
    return rank


def top_star(fan, f, b):
    """The packed regions whose closure holds the face f, with the minimum
    f * B and the maximum f * -B of that interval of the weak order based
    at the packed region b."""
    regions = [c for c in fan.packed_regions if not f & ~c]
    lo, hi = tits_product(fan, f, b), tits_product(fan, f, opposite(fan, b))
    for c in regions:  # sep(B, lo) <= sep(B, c) <= sep(B, hi)
        assert not (lo ^ b) & ~(c ^ b) and not (c ^ b) & ~(hi ^ b), "top-star bounds"
    return regions, lo, hi


def descent_set(fan, delta, b):
    """The packed faces F of the subcomplex delta with F * -B in delta."""
    return {f for f in delta if tits_product(fan, f, opposite(fan, b)) in delta}


def test_min_max():
    # The base region is the unique minimum and its opposite the unique
    # maximum: every region lies above the base along covers, and only the
    # opposite has no cover above it.
    a = hexagon()
    regions = enumerate_regions(a)
    w = WeakOrder(a, enumerate_faces(a).packed_regions[0])
    assert set(ranks(w, regions[0])) == set(regions)
    assert [c for c in regions if not w.covers_above(c)] == [tuple(-x for x in regions[0])]


def test_hexagon_rank_profile():
    a = hexagon()
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, enumerate_faces(a).pack(base))
    rank = ranks(w, base)
    assert sorted(rank.values()) == [0, 1, 1, 2, 2, 3]
    assert all(r == len(sep(base, c)) for c, r in rank.items())


def test_base_must_be_region():
    # The base is a packed region: a lower face, a packed vector with both
    # signs at a hyperplane and a region given as a sign tuple are refused.
    a = hexagon()
    fan = enumerate_faces(a)
    c, m = fan.packed_regions[0], fan.m
    for base in (0, fan.pack((0, 1, 1)), c | (c & (1 << m) - 1) << m, enumerate_regions(a)[0]):
        with pytest.raises(ValueError, match="base is not a region"):
            WeakOrder(a, base)


def test_descents():
    a = hexagon()
    fan = enumerate_faces(a)
    regions = enumerate_regions(a)
    b = fan.packed_regions[0]
    w = WeakOrder(a, b)
    assert w.packed_descents(b) == 0
    assert w.packed_descents(opposite(fan, b)) == 2  # hexagon top covers two regions
    # a descent count is the number of regions covered
    for c in regions:
        assert w.packed_descents(fan.pack(c)) == sum(c in w.covers_above(d) for d in regions)
    # total distribution is the Eulerian polynomial of the symmetric group
    dist = Counter(map(w.packed_descents, fan.packed_regions))
    assert dist == {0: 1, 1: 4, 2: 1}


def test_descents_empty_arrangement():
    a = Arrangement(2, ())
    w = WeakOrder(a, 0)
    assert w.packed_descents(0) == 0


def test_covers_grow_by_one_wall():
    a = type_b(2)
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, enumerate_faces(a).pack(base))
    for c in enumerate_regions(a):
        for d in w.covers_above(c):
            assert sep(base, c) < sep(base, d)
            assert len(sep(base, d) - sep(base, c)) == 1


def test_upper_sets():
    a = hexagon()
    fan = enumerate_faces(a)
    base = enumerate_regions(a)[0]
    b = fan.pack(base)
    w = WeakOrder(a, b)
    assert w.packed_failure([opposite(fan, b)]) is None
    assert w.packed_failure(list(fan.packed_regions)) is None
    assert w.packed_failure([]) is None
    c, d = w.packed_failure([b])
    assert c == b and fan.unpack(d) in w.covers_above(base)


def test_upper_set_halfspace_b3():
    b3 = type_b(3)
    v = (1, 2, 4)
    w = WeakOrder(b3, base_region_of(b3, v))
    fan = enumerate_faces(b3)
    contained = [c for c in fan.packed_regions if region_in_halfspace(b3, fan.unpack(c), v)]
    assert len(contained) == 15
    assert w.packed_failure(contained) is None


def test_top_star():
    a = hexagon()
    fan = enumerate_faces(a)
    b = fan.packed_regions[0]
    regions, lo, hi = top_star(fan, 0, b)  # 0 is the central face
    assert regions == list(fan.packed_regions)
    assert lo == b and hi == opposite(fan, b)
    # a region's own top-star is itself
    c = fan.packed_regions[2]
    assert top_star(fan, c, b) == ([c], c, c)
    # a facet-dimension face has exactly its two adjacent regions
    facet = next(f for f in packed_faces(fan) if packed_grade(fan, f) == fan.rank - 1)
    regions, lo, hi = top_star(fan, facet, b)
    assert len(regions) == 2 and lo != hi


def test_boolean_interval_of_descents():
    # faces G <= C with G * opposite(base) = C number exactly 2^descents(C)
    for a in (braid(4), type_b(3)):
        fan = enumerate_faces(a)
        b = fan.packed_regions[0]
        w = WeakOrder(a, b)
        opp = opposite(fan, b)
        faces = packed_faces(fan)
        for c in fan.packed_regions:
            count = sum(1 for g in faces
                        if not g & ~c and tits_product(fan, g, opp) == c)
            assert count == 2 ** w.packed_descents(c)


def test_descent_set_fixed_point_characterization():
    # Des(Delta) = Delta holds for the halfspace complex of a sharp
    # arrangement, and fails after puncturing the complex.
    from primeul.eulerpoly import find_very_generic

    b3 = type_b(3)
    v = find_very_generic(b3)
    fan = enumerate_faces(b3)
    b = base_region_of(b3, v)
    delta = faces_in_halfspace(fan, v)
    assert descent_set(fan, delta, b) == delta
    # puncture: drop one full-dimensional member but keep its boundary
    region = next(f for f in delta if packed_grade(fan, f) == fan.rank)
    punctured = delta - {region}
    assert descent_set(fan, punctured, b) != punctured


def test_walls_against_flip_rule():
    # The fan derives the walls of a region c as the h for which c with 0
    # at h is a face; the reference is the flip rule: h is a wall iff c
    # with h flipped is a region.
    from primeul.cli import _PATH_BUILTINS
    from primeul.families import parse_family

    arrangements = [parse_family(f) for f in _PATH_BUILTINS + ("B 4", "F4")]
    for a in arrangements + [braid(3), Arrangement(2, ())]:
        fan = enumerate_faces(a)
        regions = enumerate_regions(a)
        inside = set(regions)
        assert len(fan.walls) == len(regions)
        for c in regions:
            assert set_bits(fan.walls[fan.pack(c)]) == [
                h for h in range(len(c)) if c[:h] + (-c[h],) + c[h + 1:] in inside]
