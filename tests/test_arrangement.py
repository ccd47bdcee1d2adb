from fractions import Fraction

import pytest

from primeul.arrangement import (Arrangement, Hyperplane, build_flats,
                                 characteristic_polynomial,
                                 count_regions_zaslavsky, essentialize,
                                 halfspace_failure,
                                 is_very_generic_vector, localization,
                                 product, restriction)
from primeul.cli import _PATH_BUILTINS
from primeul.families import (braid, graphic, parse_family, rank2, root_system,
                              type_b, type_d)
from primeul.intpoly import IntPoly
from primeul.linalg import Subspace, in_rowspace, rref_int

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def flat_of(a, normals):
    lattice = build_flats(a)
    return lattice.flats[lattice.position(Subspace.from_normals(normals, a.dim))]


def test_hyperplane_normalization():
    assert Hyperplane.from_vector((-2, 4, 0)).normal == (1, -2, 0)
    assert Hyperplane.from_vector((Fraction(1, 2), Fraction(-1, 3))).normal == (3, -2)
    with pytest.raises(ValueError):
        Hyperplane.from_vector((0, 0))


def test_duplicate_hyperplanes_rejected():
    with pytest.raises(ValueError):
        Arrangement.from_normals([(1, 0), (2, 0)], 2)


def test_single_hyperplane_lattice():
    a = Arrangement.from_normals([(1, 0)], 2)
    lattice = build_flats(a)
    assert len(lattice.flats) == 2
    assert lattice.rank == 1
    assert lattice.mobius_bottom[lattice.bottom_index] == 1


def _oracle_lattice(a):
    """Brute-force lattice: closure of the ambient space under intersection
    with every hyperplane, keyed by canonical RREF, containing sets by one
    row-space test per hyperplane, Mobius values by the defining recursion."""
    n, normals = a.dim, a.normals
    found = {(): frozenset()}
    queue = [()]
    while queue:
        key = queue.pop()
        for v in normals:
            new = rref_int(key + (v,), n)
            if new not in found:
                found[new] = frozenset(j for j, w in enumerate(normals)
                                       if in_rowspace(w, new, n))
                queue.append(new)
    keys = sorted(found, key=lambda k: (n - len(k), k))
    mobius = []
    for i, k in enumerate(keys):
        mobius.append(-sum(mobius[j] for j in range(i) if found[keys[j]] > found[k])
                      if i else 1)
    return keys, [found[k] for k in keys], mobius, n - max(map(len, found))


def test_lattice_against_brute_force_closure():
    cases = [parse_family(f) for f in _PATH_BUILTINS]
    cases += [root_system("F4"), product(rank2(3), braid(3)),
              Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
              Arrangement(3, ())]
    for a in cases:
        lattice = build_flats(a)
        keys, containing, mobius, bottom_dim = _oracle_lattice(a)
        assert [f.subspace.normals for f in lattice.flats] == keys, a
        assert [f.containing for f in lattice.flats] == containing, a
        assert list(lattice.mobius_bottom) == mobius, a
        assert lattice.bottom_dim == bottom_dim, a
        assert [lattice.grade(i) for i in range(len(keys))] == \
               [a.dim - len(k) - bottom_dim for k in keys], a
        below = [tuple(j for j, kj in enumerate(keys) if len(kj) == len(k) + 1
                       and containing[j] > containing[i])
                 for i, k in enumerate(keys)]
        assert lattice.covers_below == tuple(below), a
        assert lattice.covers_above == tuple(
            tuple(i for i in range(len(keys)) if j in below[i])
            for j in range(len(keys))), a


def test_e6_flat_count():
    assert len(build_flats(root_system("E6"))) == 4598


def test_rank2_mobius():
    for k in (2, 3, 5):
        lattice = build_flats(rank2(k))
        by_grade = lattice.flats_by_grade()
        assert [len(g) for g in by_grade] == [1, k, 1]
        assert all(lattice.mobius_bottom[i] == -1 for i in by_grade[1])
        assert lattice.mobius_bottom[lattice.top_index] == k - 1


def test_four_cycle_mobius():
    lattice = build_flats(FOUR_CYCLE)
    values = {}
    for g, idx in enumerate(lattice.flats_by_grade()):
        values[g] = sorted(lattice.mobius_bottom[i] for i in idx)
    assert values == {0: [1], 1: [-1] * 6, 2: [2] * 4, 3: [-3]}


def test_mobius_sums_vanish():
    for a in (type_b(3), braid(4), FOUR_CYCLE):
        lattice = build_flats(a)
        for i in range(1, len(lattice.flats)):
            total = sum(lattice.mobius_bottom[j]
                        for j in range(len(lattice.flats)) if lattice.leq(j, i))
            assert total == 0


def test_restriction_braid3():
    a = braid(3)
    x = flat_of(a, [(1, -1, 0)])
    sub = restriction(a, x)
    assert sub.dim == 2
    assert len(sub.hyperplanes) == 1  # the two other hyperplanes merge


def test_restriction_to_top_and_bottom():
    a = type_b(2)
    lattice = build_flats(a)
    top = lattice.flats[lattice.top_index]
    assert restriction(a, top) == a
    bottom = lattice.flats[lattice.bottom_index]
    sub = restriction(a, bottom)
    assert sub.hyperplanes == () and sub.dim == 0


def test_restriction_rank_is_interval_rank():
    a = type_b(3)
    lattice = build_flats(a)
    for i, flat in enumerate(lattice.flats):
        assert restriction(a, flat).rank() == lattice.grade(i)


def test_localization():
    a = type_b(3)
    lattice = build_flats(a)
    assert localization(a, lattice.flats[lattice.bottom_index]) == a
    assert localization(a, lattice.flats[lattice.top_index]).hyperplanes == ()
    # at the line x1 = x2 = x3: exactly the three braid hyperplanes
    x = flat_of(a, [(1, -1, 0), (0, 1, -1)])
    loc = localization(a, x)
    assert len(loc.hyperplanes) == 3
    assert loc.rank() == 2


def test_localization_rank_is_corank():
    a = type_b(3)
    lattice = build_flats(a)
    for i, flat in enumerate(lattice.flats):
        assert localization(a, flat).rank() == lattice.rank - lattice.grade(i)


def test_not_a_flat_rejected():
    a = braid(3)
    fake = flat_of(type_b(3), [(1, 0, 0)])
    with pytest.raises(ValueError):
        restriction(a, fake)


def test_flat_of_another_arrangement_rejected():
    # Same subspace as a flat of ``a``, but another containing set.
    a = Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], 3)
    b = Arrangement.from_normals([(0, 1, 0), (1, 0, 0), (0, 0, 1)], 3)
    x = next(f for f in build_flats(b).flats if f.containing == {0})
    with pytest.raises(ValueError, match="not a flat"):
        localization(a, x)
    with pytest.raises(ValueError, match="not a flat"):
        restriction(a, x)


def test_essentialize():
    a = braid(4)
    ess = essentialize(a)
    assert ess.dim == 3 and ess.rank() == 3
    assert len(ess.hyperplanes) == 6
    # lattice preserved: equal graded Mobius multisets
    la, le = build_flats(a), build_flats(ess)
    for ga, ge in zip(la.flats_by_grade(), le.flats_by_grade()):
        assert sorted(la.mobius_bottom[i] for i in ga) == \
               sorted(le.mobius_bottom[i] for i in ge)
    essential = type_b(2)
    again = essentialize(essential)
    assert again.rank() == essential.rank()
    assert len(again.hyperplanes) == len(essential.hyperplanes)
    empty = essentialize(Arrangement(3, ()))
    assert empty.dim == 0 and empty.hyperplanes == ()


def test_product():
    one = Arrangement.from_normals([(1,)], 1)
    empty0 = Arrangement(0, ())
    assert product(one, empty0).dim == 1
    assert len(product(one, one).hyperplanes) == 2
    p = product(rank2(3), one)
    assert p.dim == 3 and p.rank() == 3


def test_characteristic_polynomial():
    assert characteristic_polynomial(FOUR_CYCLE) == IntPoly((0, -3, 6, -4, 1))
    assert characteristic_polynomial(Arrangement(3, ())) == IntPoly((0, 0, 0, 1))
    a = Arrangement.from_normals([(1, 0, 0)], 3)
    assert characteristic_polynomial(a) == IntPoly((0, 0, -1, 1))


def test_zaslavsky_counts():
    assert count_regions_zaslavsky(rank2(5)) == 10
    assert count_regions_zaslavsky(braid(4)) == 24
    assert count_regions_zaslavsky(type_b(3)) == 48
    assert count_regions_zaslavsky(FOUR_CYCLE) == 14


def test_very_generic_vector():
    b3 = type_b(3)
    assert is_very_generic_vector(b3, (1, 2, 4))
    assert not is_very_generic_vector(b3, (1, 1, 2))  # on x1 = x2
    a4 = braid(4)
    v = (-1, -1, -1, 3)
    assert not is_very_generic_vector(a4, v)  # v itself on a wall
    assert halfspace_failure(a4, v) is None  # halfspace fine
    # not orthogonal to the minimum flat
    assert not is_very_generic_vector(a4, (1, 2, 4, 8))


def test_very_generic_dimension_check():
    with pytest.raises(ValueError):
        is_very_generic_vector(type_b(2), (1, 2, 3))


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


def _partition_shape(flat, n):
    """Recover (zero coordinate count, block pair count, non-singleton pair
    count) from a flat of a signed-permutation arrangement."""
    from primeul.linalg import in_rowspace

    span = flat.subspace.normals
    zeros = {i for i in range(n) if in_rowspace(_unit(n, i), span, n)}
    live = [i for i in range(n) if i not in zeros]
    parent = {i: i for i in live}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ai in range(len(live)):
        for bi in range(ai + 1, len(live)):
            i, j = live[ai], live[bi]
            diff = tuple(int(t == i) - int(t == j) for t in range(n))
            summ = tuple(int(t == i) + int(t == j) for t in range(n))
            if in_rowspace(diff, span, n) or in_rowspace(summ, span, n):
                parent[find(i)] = find(j)
    blocks = {}
    for i in live:
        blocks.setdefault(find(i), []).append(i)
    k = len(blocks)
    r = sum(1 for b in blocks.values() if len(b) > 1)
    return len(zeros), k, r


def _double_factorial(m):
    if m <= 0:
        return 1
    out = 1
    while m > 0:
        out *= m
        m -= 2
    return out


def test_type_d_mobius_closed_form():
    # mu(bot, X) = (-1)^k (2k-3)!! (k+r-1) for zero-block-free flats and
    # (-1)^k (2k-1)!! otherwise, with k block pairs and r non-singleton pairs
    for n in range(2, 6):
        a = type_d(n)
        lattice = build_flats(a)
        for i, flat in enumerate(lattice.flats):
            nzero, k, r = _partition_shape(flat, n)
            if nzero == 0:
                want = (-1) ** k * _double_factorial(2 * k - 3) * (k + r - 1)
            else:
                want = (-1) ** k * _double_factorial(2 * k - 1)
            assert lattice.mobius_bottom[i] == want, (n, flat.subspace.normals)


def test_type_d_flats_are_b_partitions_without_size_two_zero_block():
    # flats of type_d(n) per grade match the flats of type_b(n) whose zero
    # block does not consist of a single +/- pair
    from primeul.families import type_b as _tb

    for n in range(2, 5):
        dlat = build_flats(type_d(n))
        blat = build_flats(_tb(n))
        d_counts = [len(g) for g in dlat.flats_by_grade()]
        b_counts = [0] * (blat.rank + 1)
        for i, flat in enumerate(blat.flats):
            nzero, _, _ = _partition_shape(flat, n)
            if nzero != 1:
                b_counts[blat.grade(i)] += 1
        assert d_counts == b_counts, n
