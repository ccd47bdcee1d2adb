"""Route agreement on generated integer arrangements: dim <= 4, entries in
[-2, 2], at most 7 distinct hyperplanes, non-essential, rank-deficient and
empty draws included; P and the f-vector under relabelling, symmetries and
products of such draws; and the recursive route on denser draws of dim 5-6."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeul.arrangement import Arrangement, build_flats, product
from primeul.eulerpoly import (UpperSetError, base_region_of,
                               cochar_via_halfspace, cocharacteristic,
                               find_very_generic, peul_from_cochar,
                               primitive_eulerian_descents,
                               primitive_eulerian_mobius,
                               primitive_eulerian_recursive)
from primeul.faces import (WeakOrder, enumerate_faces, enumerate_regions,
                           is_simplicial, region_in_halfspace)
from primeul.linalg import dot, primitive_signed


@st.composite
def arrangements(draw):
    dim = draw(st.integers(0, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=10))
    normals = dict.fromkeys(primitive_signed(v) for v in vectors if any(v))
    return Arrangement.from_normals(list(normals)[:7], dim)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(arrangements())
@example(Arrangement(0, ()))
@example(Arrangement(3, ()))
# non-essential with independent normals, and rank 2 with three normals
@example(Arrangement.from_normals([(1, 0, 0, 0), (0, 0, 1, 0)], 4))
@example(Arrangement.from_normals([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3))
def test_routes_agree(a):
    # test_arrangement imports this module, so its references load here.
    from test_arrangement import deletion_summands, essentialize

    p = primitive_eulerian_mobius(a)
    assert primitive_eulerian_recursive(a) == p
    assert peul_from_cochar(cocharacteristic(a), build_flats(a).rank) == p
    assert primitive_eulerian_recursive(essentialize(a)) == p
    if not a.normals:
        return
    # P = (z-1) P(restriction to hyperplane 0) + sum over the rank-1 flats
    # off it of P(localization).
    f, g = deletion_summands(a)
    assert f + g == p


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrangements())
@example(Arrangement(3, ()))
@example(Arrangement.from_normals([(1, 0), (1, 1)], 2))
def test_packed_routes_agree(a):
    p = primitive_eulerian_mobius(a)
    rank = build_flats(a).rank
    assert peul_from_cochar(cochar_via_halfspace(a), rank) == p
    # A ray d lies in the closure of the region c iff no hyperplane h has
    # <n_h, d> of the sign opposite to c[h].
    fan = enumerate_faces(a)
    assert is_simplicial(a) == all(
        sum(all(s * dot(n, d) >= 0 for s, n in zip(c, a.normals))
            for d in fan.directions) == fan.rank
        for c in enumerate_regions(a))
    if not is_simplicial(a):
        return
    try:
        assert primitive_eulerian_descents(a) == p
    except UpperSetError as exc:
        # the witness is the first cover pair leaving the halfspace
        v = find_very_generic(a)
        assert exc.witness == _first_cover_leaving(a, v)
        c, d = exc.witness
        assert d in WeakOrder(a, base_region_of(a, v)).covers_above(c)


def _first_cover_leaving(a, v):
    """The first region c in fan order inside the halfspace of v, with the
    first hyperplane h where c agrees with the base region and c flipped at
    h is a region outside it: the first failing cover pair, on sign tuples."""
    base = enumerate_faces(a).unpack(base_region_of(a, v))
    regions = enumerate_regions(a)
    for c in regions:
        if region_in_halfspace(a, c, v):
            for h, s in enumerate(c):
                d = c[:h] + (-s,) + c[h + 1:]
                if s == base[h] and d in regions and not region_in_halfspace(a, d, v):
                    return c, d
    return None


@st.composite
def relabellings(draw):
    """A generated arrangement with an order of its hyperplanes, an order
    of the coordinates, coordinate sign flips and normal scales."""
    a = draw(arrangements())
    m, n = len(a.normals), a.dim
    return (a, draw(st.permutations(range(m))), draw(st.permutations(range(n))),
            draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=m, max_size=m)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(relabellings())
@example((Arrangement(3, ()), [], [2, 0, 1], [1, -1, 1], []))
@example((Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3),
          [3, 1, 0, 2], [1, 2, 0], [-1, 1, -1], [2, -1, 3, -2]))
def test_invariant_under_relabelling_and_symmetries(case):
    # P depends only on the lattice of flats: permuting the hyperplanes or
    # the coordinates, flipping coordinate signs, and flipping or scaling
    # normals keep it; the f-vector of the fan does not see the order of
    # the hyperplanes either.
    a, order, coords, flips, scales = case
    n, normals = a.dim, a.normals
    p, f = primitive_eulerian_mobius(a), enumerate_faces(a).f_vector()
    permuted = Arrangement.from_normals([normals[i] for i in order], n)
    assert primitive_eulerian_mobius(permuted) == p
    assert enumerate_faces(permuted).f_vector() == f
    moved = Arrangement.from_normals(
        [tuple(s * v[j] for s, j in zip(flips, coords)) for v in normals], n)
    assert primitive_eulerian_mobius(moved) == p
    scaled = Arrangement.from_normals(
        [tuple(c * x for x in v) for c, v in zip(scales, normals)], n)
    assert primitive_eulerian_mobius(scaled) == p


@settings(derandomize=True, deadline=None, max_examples=40)
@given(arrangements(), arrangements())
def test_product_multiplies(a, b):
    # The lattice of A x B is the product of the lattices and its fan the
    # product of the fans: P multiplies and the f-vectors convolve.
    ab = product(a, b)
    assert primitive_eulerian_mobius(ab) == (primitive_eulerian_mobius(a)
                                              * primitive_eulerian_mobius(b))
    fa, fb = enumerate_faces(a).f_vector(), enumerate_faces(b).f_vector()
    want = [0] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            want[i + j] += x * y
    assert enumerate_faces(ab).f_vector() == tuple(want)


@st.composite
def dense_arrangements(draw):
    """dim 5-6, up to 12 hyperplanes whose normals have one or two nonzero
    entries in [-3, 3]: many coincidences, so many intervals are not Boolean
    and the recursion shifts and adds (27% of the intervals it memoizes on
    80 draws, against 3% when every entry is drawn)."""
    dim = draw(st.integers(5, 6))
    entry = st.integers(-3, 3).filter(bool)
    vectors = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), entry,
                                            min_size=1, max_size=2),
                            min_size=dim + 2, max_size=12))
    normals = dict.fromkeys(primitive_signed([v.get(j, 0) for j in range(dim)])
                            for v in vectors)
    return Arrangement.from_normals(list(normals), dim)


def _recursive_equals_mobius(a):
    assert primitive_eulerian_recursive(a) == primitive_eulerian_mobius(a), a


@settings(derandomize=True, deadline=None, max_examples=80)
@given(dense_arrangements())
def test_recursive_route_on_dense_draws(a):
    _recursive_equals_mobius(a)


@pytest.mark.long
@settings(derandomize=True, deadline=None, max_examples=1000)
@given(dense_arrangements())
def test_recursive_route_on_dense_draws_long(a):
    _recursive_equals_mobius(a)
