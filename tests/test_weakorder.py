import pytest

from primeul.arrangement import Arrangement
from primeul.faces import (enumerate_faces, enumerate_regions, face_leq,
                           opposite, region_in_halfspace, tits_product)
from primeul.families import braid, type_b
from primeul.weakorder import WeakOrder, descent_set, top_star


def hexagon():
    return braid(3)


def test_min_max():
    a = hexagon()
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    assert w.minimum() == base
    assert w.maximum() == opposite(base)
    assert all(w.leq(base, c) for c in w.regions)
    assert all(w.leq(c, opposite(base)) for c in w.regions)


def test_hexagon_rank_profile():
    a = hexagon()
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    sizes = sorted(len(w.sep[w.position(c)]) for c in w.regions)
    assert sizes == [0, 1, 1, 2, 2, 3]
    assert len(w.sep[w.position(opposite(base))]) == 3


def test_base_must_be_region():
    with pytest.raises(ValueError):
        WeakOrder(hexagon(), (0, 1, 1))


def test_descents():
    a = hexagon()
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    assert w.descents(base) == 0
    assert w.descents(opposite(base)) == 2  # hexagon top covers two regions
    # total distribution is the Eulerian polynomial of the symmetric group
    from collections import Counter

    dist = Counter(w.descents(c) for c in w.regions)
    assert dist == {0: 1, 1: 4, 2: 1}


def test_descents_empty_arrangement():
    a = Arrangement(2, ())
    w = WeakOrder(a, ())
    assert w.descents(()) == 0


def test_covers_grow_by_one_wall():
    a = type_b(2)
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    for c in w.regions:
        for d in w.covers_above(c):
            grown = w.sep[w.position(d)] - w.sep[w.position(c)]
            assert len(grown) == 1


def test_upper_sets():
    a = hexagon()
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    assert w.is_upper_set([opposite(base)])
    assert w.is_upper_set(list(w.regions))
    assert w.is_upper_set([])
    lower = [base]
    assert not w.is_upper_set(lower)
    witness = w.upper_set_failure(lower)
    assert witness is not None and witness[0] == base


def test_upper_set_halfspace_b3():
    b3 = type_b(3)
    v = (1, 2, 4)
    base = tuple(1 if sum(n * x for n, x in zip(h.normal, v)) > 0 else -1
                 for h in b3.hyperplanes)
    w = WeakOrder(b3, base)
    contained = [c for c in w.regions if region_in_halfspace(b3, c, v)]
    assert w.is_upper_set(contained)


def test_top_star():
    a = hexagon()
    fan = enumerate_faces(a)
    base = enumerate_regions(a)[0]
    w = WeakOrder(a, base)
    regions, lo, hi = top_star(fan, fan.center, w)
    assert set(regions) == set(w.regions)
    assert lo == base and hi == opposite(base)
    # a region's own top-star is itself
    c = w.regions[2]
    regions, lo, hi = top_star(fan, c, w)
    assert regions == (c,) and lo == c and hi == c
    # a facet-dimension face has exactly its two adjacent regions
    facet = next(f for f in fan.faces if fan.grade(f) == fan.rank - 1)
    regions, lo, hi = top_star(fan, facet, w)
    assert len(regions) == 2 and lo != hi


def test_boolean_interval_of_descents():
    # faces G <= C with G * opposite(base) = C number exactly 2^descents(C)
    for a in (braid(4), type_b(3)):
        fan = enumerate_faces(a)
        base = enumerate_regions(a)[0]
        w = WeakOrder(a, base)
        opp = opposite(base)
        for c in w.regions:
            count = sum(1 for g in fan.faces
                        if face_leq(g, c) and tits_product(fan, g, opp) == c)
            assert count == 2 ** w.descents(c)


def test_descent_set_fixed_point_characterization():
    # Des(Delta) = Delta holds for the halfspace complex of a sharp
    # arrangement, and fails after puncturing the complex.
    from primeul.eulerpoly import find_very_generic
    from primeul.faces import faces_in_halfspace

    b3 = type_b(3)
    v = find_very_generic(b3)
    fan = enumerate_faces(b3)
    base = tuple(1 if sum(n * x for n, x in zip(h.normal, v)) > 0 else -1
                 for h in b3.hyperplanes)
    delta = faces_in_halfspace(fan, v)
    assert set(descent_set(fan, delta, base)) == set(delta)
    # puncture: drop one full-dimensional member but keep its boundary
    region = next(f for f in delta if fan.grade(f) == fan.rank)
    punctured = tuple(f for f in delta if f != region)
    assert set(descent_set(fan, punctured, base)) != set(punctured)


def test_walls_against_flip_rule():
    # The fan derives the walls of a region c as the h for which c with 0
    # at h is a face; the reference is the flip rule: h is a wall iff c
    # with h flipped is a region.
    from primeul.cli import _PATH_BUILTINS
    from primeul.families import parse_family

    arrangements = [parse_family(f) for f in _PATH_BUILTINS + ("B 4", "F4")]
    for a in arrangements + [braid(3), Arrangement(2, ())]:
        fan = enumerate_faces(a)
        regions = fan.regions()
        inside = set(regions)
        assert len(fan.walls) == len(regions)
        for c, walls in zip(regions, fan.walls):
            assert walls == tuple(h for h in range(len(c))
                                  if c[:h] + (-c[h],) + c[h + 1:] in inside)
        assert WeakOrder(a, regions[0]).walls == fan.walls
