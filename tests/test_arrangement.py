from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeul import arrangement
from primeul.arrangement import (Arrangement, FlatLattice, build_flats, characteristic_polynomial,
                                 count_regions_zaslavsky, halfspace_failure, halfspace_mask,
                                 is_very_generic_vector, product, set_bits,
                                 very_generic_failure)
from primeul.cli import _PATH_BUILTINS, main
from primeul.eulerpoly import (_interval_peuls, cochar_via_halfspace, find_very_generic,
                               peul_from_cochar, primitive_eulerian_descents,
                               primitive_eulerian_mobius,
                               primitive_eulerian_recursive)
from primeul.faces import (enumerate_faces, enumerate_regions, is_sharp,
                           is_simplicial)
from primeul.families import (braid, graphic, parse_family, rank2, root_system,
                              type_b, type_d)
from primeul.intpoly import IntPoly, ZM1
from primeul.linalg import dot, nullspace, primitive_signed, rref_int
from test_differential import arrangements
from test_linalg import _oracle_nullspace, in_rowspace

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])

# References on the lattice's plain fields; flat i is masks[i] and dims[i],
# and keys[i] is its normal space's canonical RREF.


def flat_of(a, normals):
    """The position of the flat cut out by the normals."""
    return build_flats(a).keys.index(rref_int(normals, a.dim))


def essentialize(a):
    """A combinatorially isomorphic arrangement of full rank, in the
    coordinates of the key rows of ⊥ (the canonical basis of the span of the
    normals).  The chart is not an isometry."""
    chart = build_flats(a).keys[0]
    return Arrangement.from_normals(
        [tuple(dot(n, b) for b in chart) for n in a.normals], len(chart))


def restriction(a, i):
    """The arrangement induced inside flat i, in the coordinates of the
    canonical basis of the flat."""
    lattice = build_flats(a)
    chart = nullspace(lattice.keys[i], a.dim)
    normals = dict.fromkeys(primitive_signed(tuple(dot(n, b) for b in chart))
                            for j, n in enumerate(a.normals) if not lattice.masks[i] >> j & 1)
    return Arrangement.from_normals(normals, len(chart))


def localization(a, i):
    """The hyperplanes containing flat i, in the same space."""
    return Arrangement(a.dim, tuple(a.normals[j] for j in set_bits(build_flats(a).masks[i])))


def deletion_summands(a):
    """The two summands of P(a) = (z-1) P(restriction to hyperplane 0) +
    sum of P(localization) over the rank-1 flats off hyperplane 0."""
    lattice = build_flats(a)
    f = ZM1 * primitive_eulerian_mobius(restriction(a, flat_of(a, [a.normals[0]])))
    g = sum((primitive_eulerian_mobius(localization(a, x))
             for x in lattice.covers_above[lattice.bottom_index] if not lattice.masks[x] & 1),
            IntPoly())
    return f, g


def test_hyperplane_normalization():
    assert Arrangement.from_normals([(-2, 4, 0)]).normals == ((1, -2, 0),)
    assert Arrangement.from_normals([(Fraction(1, 2), Fraction(-1, 3))]).normals == ((3, -2),)
    with pytest.raises(ValueError, match=r"^normal \(0, 0\) must be nonzero and primitive_signed$"):
        Arrangement.from_normals([(0, 0)])


def test_duplicate_hyperplanes_rejected():
    with pytest.raises(ValueError):
        Arrangement.from_normals([(1, 0), (2, 0)], 2)
    # (2, 0) is the line of (1, 0): refused before the duplicate test
    with pytest.raises(ValueError, match="primitive"):
        Arrangement(2, ((2, 0), (1, 0), (0, 1)))


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="dimension"):
        Arrangement(-1, ())
    assert build_flats(Arrangement(0, ())).rank == 0


def test_non_canonical_normal_rejected():
    for normal in ((0, 0), (2, 0), (-1, 1), (0, 3, -6)):
        with pytest.raises(ValueError, match="nonzero"):
            Arrangement(len(normal), (normal,))
    assert Arrangement(3, ((0, 1, -2),)).normals == ((0, 1, -2),)


def test_single_hyperplane_lattice():
    a = Arrangement.from_normals([(1, 0)], 2)
    lattice = build_flats(a)
    assert len(lattice) == 2
    assert lattice.rank == 1
    assert lattice.mobius_bottom[lattice.bottom_index] == 1


def _oracle_lattice(a):
    """Brute-force lattice: closure of the ambient space under intersection
    with every hyperplane, keyed by canonical RREF, containing sets by one
    row-space test per hyperplane, sorted by (grade, mask of the containing
    set), Mobius values by the defining recursion."""
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
    keys = sorted(found, key=lambda k: (n - len(k), sum(1 << j for j in found[k])))
    mobius = []
    for i, k in enumerate(keys):
        mobius.append(-sum(mobius[j] for j in range(i) if found[keys[j]] > found[k])
                      if i else 1)
    return keys, [found[k] for k in keys], mobius, n - max(map(len, found))


def _oracle_chi(a, keys, containing):
    """chi by the defining recursion of mu(ambient, .) over every pair of
    flats, in the order by reverse inclusion."""
    mu = {}
    coeffs = [0] * (a.dim + 1)
    for i in reversed(range(len(keys))):
        mu[i] = -sum(mu[j] for j in mu if containing[j] < containing[i]) if mu else 1
        coeffs[a.dim - len(keys[i])] += mu[i]
    return IntPoly(tuple(coeffs))


def _check_against_oracle(a):
    lattice = build_flats(a)
    keys, containing, mobius, bottom_dim = _oracle_lattice(a)
    assert list(lattice.keys) == keys, a
    assert [frozenset(set_bits(mask)) for mask in lattice.masks] == containing, a
    assert list(lattice.mobius_bottom) == mobius, a
    assert lattice.bottom_dim == bottom_dim, a
    assert list(lattice.dims) == [a.dim - len(k) for k in keys], a
    below = [tuple(j for j, kj in enumerate(keys) if len(kj) == len(k) + 1
                   and containing[j] > containing[i])
             for i, k in enumerate(keys)]
    assert lattice.covers_below == tuple(below), a
    assert lattice.covers_above == tuple(
        tuple(i for i in range(len(keys)) if j in below[i])
        for j in range(len(keys))), a
    assert characteristic_polynomial(a) == _oracle_chi(a, keys, containing), a


def test_lattice_against_brute_force_closure():
    cases = [parse_family(f) for f in _PATH_BUILTINS]
    cases += [root_system("F4"), product(rank2(3), braid(3)),
              Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
              Arrangement(3, ())]
    for a in cases:
        _check_against_oracle(a)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arrangements())
def test_lattice_against_oracle_generated(a):
    _check_against_oracle(a)


def _exponent_poly(dim, exponents):
    """t^(dim - rank) times the product of (t - e) over the exponents."""
    out = IntPoly((0,) * (dim - len(exponents)) + (1,))
    for e in exponents:
        out = out * IntPoly((-e, 1))
    return out


def test_reflection_exponents():
    # chi of a reflection arrangement factors over the exponents of its group
    # (Orlik-Terao, ch. 6); "A n" is the braid arrangement of S_n in R^n.
    cases = {"F4": (1, 5, 7, 11), "E6": (1, 4, 5, 7, 8, 11)}
    for n in range(2, 6):
        cases[f"A {n}"] = tuple(range(1, n))
        cases[f"B {n}"] = tuple(range(1, 2 * n, 2))
        cases[f"D {n}"] = tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    for family, exponents in cases.items():
        a = parse_family(family)
        assert characteristic_polynomial(a) == _exponent_poly(a.dim, exponents), family


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
        masks = lattice.masks
        for i in range(1, len(masks)):
            total = sum(lattice.mobius_bottom[j]  # flat j lies in flat i
                        for j in range(len(masks)) if masks[j] & masks[i] == masks[i])
            assert total == 0


def test_restriction_braid3():
    a = braid(3)
    x = flat_of(a, [(1, -1, 0)])
    sub = restriction(a, x)
    assert sub.dim == 2
    assert len(sub.normals) == 1  # the two other hyperplanes merge


def test_restriction_to_top_and_bottom():
    a = type_b(2)
    lattice = build_flats(a)
    assert restriction(a, lattice.top_index) == a
    sub = restriction(a, lattice.bottom_index)
    assert sub.normals == () and sub.dim == 0


def test_restriction_rank_is_interval_rank():
    a = type_b(3)
    lattice = build_flats(a)
    for i, dim in enumerate(lattice.dims):
        assert build_flats(restriction(a, i)).rank == dim - lattice.bottom_dim


def test_localization():
    a = type_b(3)
    lattice = build_flats(a)
    assert localization(a, lattice.bottom_index) == a
    assert localization(a, lattice.top_index).normals == ()
    # at the line x1 = x2 = x3: exactly the three braid hyperplanes
    loc = localization(a, flat_of(a, [(1, -1, 0), (0, 1, -1)]))
    assert len(loc.normals) == 3
    assert build_flats(loc).rank == 2


def test_localization_rank_is_corank():
    a = type_b(3)
    lattice = build_flats(a)
    for i, dim in enumerate(lattice.dims):
        assert build_flats(localization(a, i)).rank == a.dim - dim


def test_essentialize():
    a = braid(4)
    ess = essentialize(a)
    assert ess.dim == 3 and build_flats(ess).rank == 3
    assert len(ess.normals) == 6
    # lattice preserved: equal graded Mobius multisets
    la, le = build_flats(a), build_flats(ess)
    for ga, ge in zip(la.flats_by_grade(), le.flats_by_grade()):
        assert sorted(la.mobius_bottom[i] for i in ga) == \
               sorted(le.mobius_bottom[i] for i in ge)
    essential = type_b(2)
    again = essentialize(essential)
    assert build_flats(again).rank == build_flats(essential).rank
    assert len(again.normals) == len(essential.normals)
    empty = essentialize(Arrangement(3, ()))
    assert empty.dim == 0 and empty.normals == ()


def test_product():
    one = Arrangement.from_normals([(1,)], 1)
    empty0 = Arrangement(0, ())
    assert product(one, empty0).dim == 1
    assert len(product(one, one).normals) == 2
    p = product(rank2(3), one)
    assert p.dim == 3 and build_flats(p).rank == 3


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


def test_halfspace_failure_names_the_rank1_flat_of_least_key():
    # The boundary of v's halfspace holds the rank-1 flats spanned by
    # (1, -1, 0) and (1, 1, -1); the first in the order of flats by mask is
    # the former, but the message names the flat of least key, as it did
    # when the flats were ordered by key.
    b3 = type_b(3)
    lattice = build_flats(b3)
    v = (1, 1, 2)
    failing = [d for d in lattice.atom_directions if dot(d, v) == 0]
    assert failing == [(1, -1, 0), (1, 1, -1)]
    assert halfspace_failure(b3, v) == \
        "bounding hyperplane contains the rank-1 flat spanned by (1, 1, -1)"


def test_very_generic_dimension_check():
    with pytest.raises(ValueError):
        is_very_generic_vector(type_b(2), (1, 2, 3))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrangements(), st.data())
def test_very_generic_against_row_reduction(a, data):
    # Small entries make v hit hyperplanes, rank-1 flats and directions off
    # the span of the normals.
    v = data.draw(st.tuples(*[st.integers(-2, 2)] * a.dim))
    lattice = build_flats(a)
    atoms = [lattice.keys[i] for i in lattice.covers_above[lattice.bottom_index]]
    # Oracle: v is orthogonal to ⊥ iff it is in the row space of the
    # normals; then v^⊥ contains a rank-1 flat iff it holds its whole basis.
    orthogonal = in_rowspace(v, rref_int(a.normals, a.dim), a.dim)
    on = [i for i, key in enumerate(atoms) if not any(dot(b, v) for b in nullspace(key, a.dim))]
    generic_halfspace = orthogonal and not on
    assert (halfspace_failure(a, v) is None) == generic_halfspace
    assert (very_generic_failure(a, v) is None) == (
        generic_halfspace and all(dot(n, v) for n in a.normals))
    assert len(lattice.atom_directions) == len(atoms)
    for d, key in zip(lattice.atom_directions, atoms):
        assert any(d) and gcd(*d) == 1
        assert not any(dot(n, d) for n in key)
        assert not any(dot(d, b) for b in lattice.bottom_basis)
    # The mask: bit i is set iff <v, d_i> > 0 and bit i + k iff it is < 0,
    # for the k rank-1 flats; its zero bit pairs are the flats on v's
    # bounding hyperplane, of which halfspace_failure names the least key.
    up, k = halfspace_mask(a, v), len(atoms)
    assert (up is None) == (not orthogonal)
    if up is None:
        return
    assert up >> 2 * k == 0
    for i, d in enumerate(lattice.atom_directions):
        assert (up >> i & 1, up >> i + k & 1) == (dot(v, d) > 0, dot(v, d) < 0)
    assert [i for i in range(k) if not (up >> i | up >> i + k) & 1] == on
    if on:
        d = lattice.atom_directions[min(on, key=atoms.__getitem__)]
        assert halfspace_failure(a, v) == \
            f"bounding hyperplane contains the rank-1 flat spanned by {d}"


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


def _partition_shape(span, n):
    """Recover (zero coordinate count, block pair count, non-singleton pair
    count) from the key of a flat of a signed-permutation arrangement."""
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
        for i, key in enumerate(lattice.keys):
            nzero, k, r = _partition_shape(key, n)
            if nzero == 0:
                want = (-1) ** k * _double_factorial(2 * k - 3) * (k + r - 1)
            else:
                want = (-1) ** k * _double_factorial(2 * k - 1)
            assert lattice.mobius_bottom[i] == want, (n, key)


def test_type_d_flats_are_b_partitions_without_size_two_zero_block():
    # flats of type_d(n) per grade match the flats of type_b(n) whose zero
    # block does not consist of a single +/- pair
    from primeul.families import type_b as _tb

    for n in range(2, 5):
        dlat = build_flats(type_d(n))
        blat = build_flats(_tb(n))
        d_counts = [len(g) for g in dlat.flats_by_grade()]
        b_counts = [0] * (blat.rank + 1)
        for key in blat.keys:
            nzero, _, _ = _partition_shape(key, n)
            if nzero != 1:
                b_counts[n - len(key) - blat.bottom_dim] += 1
        assert d_counts == b_counts, n


def test_recursive_route_leaves_mobius_unbuilt():
    # mu(bottom, .) is computed on first use, so the recursive route, which
    # never reads it, does not pay for it.
    build_flats.cache_clear()
    a = type_b(4)
    primitive_eulerian_recursive(a)
    assert "mobius_bottom" not in vars(build_flats(a))
    assert build_flats(a).mobius_bottom[build_flats(a).top_index] == 105


def test_mobius_route_leaves_covers_above_unbuilt():
    # The flats covering each flat are inverted from covers_below on first
    # read, so the mobius route, which never reads them, does not pay for
    # them; they equal the inversion of covers_below.
    build_flats.cache_clear()
    a = type_b(4)
    primitive_eulerian_mobius(a)
    lattice = build_flats(a)
    assert "covers_above" not in vars(lattice)
    assert lattice.covers_above == tuple(
        tuple(i for i, below in enumerate(lattice.covers_below) if j in below)
        for j in range(len(lattice)))


def test_lattice_keys_equal_row_reduction(monkeypatch):
    # A key is computed on first access, from the key of the flat its flat
    # was first found below and one reduced line; it must be the canonical
    # RREF of the normals of the hyperplanes containing the flat.  The build
    # itself computes no key and calls no rref_int.
    cases = [root_system("E6")] + [parse_family(f) for f in
                                   ("A 6", "B 5", "D 5", "Dnk 5 3", "Gn 8")]

    def refuse(*args):
        raise AssertionError("rref_int called while building the lattice")

    with monkeypatch.context() as patch:
        patch.setattr("primeul.arrangement.rref_int", refuse)
        patch.setattr("primeul.linalg.rref_int", refuse)
        fresh = [FlatLattice(a) for a in cases]
    for a, lattice in zip(cases, fresh):
        assert vars(lattice)["_keys"] == {0: ()}, a
        cached = build_flats(a)
        assert (lattice.masks, lattice.dims, lattice.covers_below) == \
            (cached.masks, cached.dims, cached.covers_below), a
        assert len(lattice.keys) == len(lattice)
        for key, mask in zip(lattice.keys, lattice.masks):
            assert key == rref_int([a.normals[j] for j in set_bits(mask)], a.dim), (a, key)


@pytest.fixture
def reductions(monkeypatch):
    """The (vector, pivot line) pairs the lattice build reduces, as it goes."""
    calls = []
    kernel = arrangement._reduce

    def record(r, d, c):
        calls.append((r, d))
        return kernel(r, d, c)

    monkeypatch.setattr("primeul.arrangement._reduce", record)
    return calls


def test_lattice_reduces_each_pair_once(reductions):
    # One (line, pivot line) pair meets many flats; a build reduces it
    # once.  Cold E6 meets 14,432 such pairs (16,357 when the build also
    # reduced each flat's key rows).
    FlatLattice(root_system("E6"))
    assert len(reductions) == len(set(reductions)) == 14432


# The lattice workload's inputs, then the reflection workload's: flats,
# cover relations, reductions in the build (B5: 3,182 when each flat
# reduced its own) and the recursive route's memo entries.  With rank-2
# intervals closed, the lattice workload's memo holds 2,067 entries in all
# (2,968 when the recursion went down to rank 1; pivoting then on the first
# coatom in the order of flats by key gave 2,812, and on the first by mask
# 3,356).
WORK = {"A 6": (203, 856, 60, 163), "B 5": (648, 3396, 200, 784),
        "D 5": (403, 1931, 182, 420), "Dnk 5 3": (550, 2810, 200, 660),
        "Gn 8": (503, 2259, 501, 40),
        "A 5": (52, 160, 30, 32), "B 4": (116, 432, 96, 101), "D 4": (72, 240, 82, 48)}


@pytest.mark.parametrize("family", WORK)
def test_lattice_work_counters(reductions, family):
    lattice = FlatLattice(parse_family(family))
    assert len(reductions) == len(set(reductions))
    memo = _interval_peuls(lattice)
    assert (len(lattice), sum(map(len, lattice.covers_below)), len(reductions),
            len(memo)) == WORK[family]


def test_rank2_intervals_are_closed():
    # The recursion settles a rank-2 interval with k atoms as z^2 + (k-2) z
    # and never visits a rank-1 interval below the top one.  Each rank-2
    # entry must equal sum over X in [lo, hi] of |mu(lo, X)| (z-1)^(2 - grade),
    # with mu taken from masks by its definition.
    for family in ("A 6", "B 5", "D 5", "Dnk 5 3", "Gn 8", "B 4"):
        lattice = FlatLattice(parse_family(family))
        masks, dims = lattice.masks, lattice.dims
        memo = _interval_peuls(lattice)
        rank2_entries = [(lo, hi) for lo, hi in memo if dims[hi] - dims[lo] == 2]
        assert rank2_entries and all(dims[hi] - dims[lo] >= 2 for lo, hi in memo), family
        for lo, hi in rank2_entries:
            between = [x for x in range(len(masks)) if masks[x] & masks[lo] == masks[x]
                       and masks[x] & masks[hi] == masks[hi]]
            mu = {}
            for x in sorted(between, key=dims.__getitem__):
                mu[x] = 1 if x == lo else -sum(
                    mu[y] for y in mu if masks[y] & masks[x] == masks[x] and y != x)
            oracle = IntPoly()
            for x in between:
                oracle = oracle + abs(mu[x]) * ZM1 ** (2 - (dims[x] - dims[lo]))
            assert IntPoly(memo[lo, hi]) == oracle, (family, lo, hi)


# The lattice workload's inputs and the reflection workload's, a product, and
# A 4 alone, whose ⊥ is a line.
ONE_BIT_INPUTS = {f: parse_family(f) for f in [*WORK, "A 4"]}
ONE_BIT_INPUTS["B 3 x A 2"] = product(parse_family("B 3"), parse_family("A 2"))


def _check_cover_groups(lattice):
    """For lo <= hi, each cover group of hi (the hyperplanes cutting hi in one cover) lies
    wholly in or off masks[lo].  So one bit per group counts the coatoms of [lo, hi] that the
    scan of covers_below[hi] by mask finds; the highest bit b of masks[lo] off hi lies in the
    group of the coatom of largest position alone; and an atom of [lo, hi] lies below that
    coatom iff its mask has b."""
    masks, below, above = lattice.masks, lattice.covers_below, lattice.covers_above
    everything = (1 << len(lattice.arrangement.normals)) - 1
    for hi, m_hi in enumerate(masks):
        groups = [masks[c] & ~m_hi for c in below[hi]]
        assert sum(groups) == reduce(or_, groups, 0) == everything & ~m_hi
        reps = sum(g & -g for g in groups)
        for lo in range(hi + 1):
            m_lo = masks[lo]
            if m_lo & m_hi != m_hi:
                continue
            assert all(g & m_lo in (0, g) for g in groups), (lo, hi)
            coatoms = [c for c in below[hi] if masks[c] & m_lo == masks[c]]
            assert (m_lo & reps).bit_count() == len(coatoms), (lo, hi)
            if not coatoms:
                continue
            b = 1 << (m_lo & ~m_hi).bit_length() - 1
            pivot = max(coatoms)
            assert [c for c in below[hi] if masks[c] & b] == [pivot], (lo, hi)
            for x in above[lo]:
                if masks[x] & m_hi == m_hi:
                    assert bool(masks[x] & b) == (masks[x] & masks[pivot] == masks[pivot])


def _scan_recursion(lattice):
    """The recursion of ``primitive_eulerian_recursive`` with each interval's coatoms found
    by scanning covers_below[hi] by mask, and P built in ``IntPoly``."""
    masks, dims = lattice.masks, lattice.dims
    memo = {}

    def below(x, y):
        return masks[x] & masks[y] == masks[y]

    def peul(lo, hi):
        if (lo, hi) not in memo:
            coatoms = [c for c in lattice.covers_below[hi] if below(lo, c)]
            r = dims[hi] - dims[lo]
            if r == 2:
                memo[lo, hi] = (0, len(coatoms) - 2, 1)
            elif len(coatoms) == r:
                memo[lo, hi] = (0,) * r + (1,)
            else:
                pivot = max(coatoms)
                p = ZM1 * IntPoly(peul(lo, pivot))
                for x in lattice.covers_above[lo]:
                    if below(x, hi) and not below(x, pivot):
                        p = p + IntPoly(peul(x, hi))
                memo[lo, hi] = p.coeffs
        return memo[lo, hi]

    peul(lattice.bottom_index, lattice.top_index)
    return memo


@pytest.mark.parametrize("name", ONE_BIT_INPUTS)
def test_one_bit_per_cover_group(name):
    a = ONE_BIT_INPUTS[name]
    lattice = build_flats(a)
    _check_cover_groups(lattice)
    memo = _interval_peuls(lattice)
    assert memo == _scan_recursion(lattice)
    assert primitive_eulerian_recursive(a).coeffs == memo[lattice.bottom_index, lattice.top_index]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(arrangements())
def test_one_bit_per_cover_group_on_draws(a):
    lattice = FlatLattice(a)
    _check_cover_groups(lattice)
    assert _interval_peuls(lattice) == _scan_recursion(lattice)


def test_routes_leave_the_flat_views_unbuilt(capsys):
    # Inside the lattice a flat is its mask and dimension, and nothing else
    # is built on it: after every route, the fan and inspect, the lattice
    # holds its fields and the values computed on first use only
    # (``covers_above``, which the mobius route never reads, is one).  Keys
    # are computed for ⊥ and the rank-1 flats, and the flats they are built
    # from, alone: on B4, 66 of 116.
    build_flats.cache_clear()
    enumerate_faces.cache_clear()
    fields = {"arrangement", "masks", "dims", "bottom_dim", "rank",
              "covers_below", "covers_above", "mobius_bottom", "bottom_basis",
              "atom_directions", "_vecs", "_ids", "_images", "_via", "_keys"}
    for a in (type_b(4), parse_family("graphic 4 1-2,2-3")):
        p = primitive_eulerian_mobius(a)
        assert primitive_eulerian_recursive(a) == p
        lattice = build_flats(a)
        assert peul_from_cochar(cochar_via_halfspace(a), lattice.rank) == p
        assert primitive_eulerian_descents(a) == p
        assert count_regions_zaslavsky(a) == len(enumerate_regions(a))
        characteristic_polynomial(a)
        find_very_generic(a)
        is_simplicial(a)
        is_sharp(a)
        assert len(lattice) == sum(map(len, lattice.flats_by_grade()))
        assert set(vars(lattice)) == fields, a
    assert main(["inspect", "--family", "B 4"]) == 0
    assert "\nflats: 116\n" in capsys.readouterr().out
    assert set(vars(build_flats(type_b(4)))) == fields
    assert len(vars(build_flats(type_b(4)))["_keys"]) == 66


def _check_containing_and_directions(a):
    # Each mask holds exactly the hyperplanes containing its flat, and ⊥'s
    # basis is read off its key; both must equal their definitions, the
    # latter a nullspace computed over Fractions.
    lattice = build_flats(a)
    for key, mask, dim in zip(lattice.keys, lattice.masks, lattice.dims):
        basis = nullspace(key, a.dim)
        assert set_bits(mask) == [j for j, n in enumerate(a.normals)
                                  if not any(dot(n, b) for b in basis)], (a, key)
        assert dim == a.dim - len(key), (a, key)
    bottom = _oracle_nullspace(a.normals, a.dim)
    assert lattice.bottom_basis == bottom, a
    assert lattice.atom_directions == tuple(
        _oracle_nullspace(lattice.keys[i] + bottom, a.dim)[0]
        for i in lattice.covers_above[lattice.bottom_index]), a


def test_containing_and_directions_against_oracle():
    for a in (root_system("E6"), type_b(5)):
        _check_containing_and_directions(a)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arrangements())
@example(Arrangement(3, ()))
# non-essential, and rank 2 in R^3 with three normals
@example(Arrangement.from_normals([(1, 0, 0, 0), (0, 0, 1, 0)], 4))
@example(Arrangement.from_normals([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3))
def test_containing_and_directions_generated(a):
    _check_containing_and_directions(a)
