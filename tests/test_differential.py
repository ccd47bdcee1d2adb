"""Route agreement on generated integer arrangements: dim <= 4, entries in
[-2, 2], at most 7 distinct hyperplanes, non-essential, rank-deficient and
empty draws included."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeul.arrangement import (Arrangement, Hyperplane, build_flats,
                                 essentialize, localization, restriction)
from primeul.eulerpoly import (UpperSetError, base_region_of,
                               cochar_via_halfspace, cocharacteristic,
                               find_very_generic, peul_from_cochar,
                               primitive_eulerian_descents,
                               primitive_eulerian_mobius,
                               primitive_eulerian_recursive)
from primeul.faces import (enumerate_faces, is_simplicial,
                           region_in_halfspace, sign_key)
from primeul.intpoly import ZM1
from primeul.weakorder import WeakOrder


@st.composite
def arrangements(draw):
    dim = draw(st.integers(0, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=10))
    normals = dict.fromkeys(Hyperplane.from_vector(v).normal for v in vectors if any(v))
    return Arrangement.from_normals(list(normals)[:7], dim)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(arrangements())
@example(Arrangement(0, ()))
@example(Arrangement(3, ()))
# non-essential with independent normals, and rank 2 with three normals
@example(Arrangement.from_normals([(1, 0, 0, 0), (0, 0, 1, 0)], 4))
@example(Arrangement.from_normals([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3))
def test_routes_agree(a):
    lattice = build_flats(a)
    p = primitive_eulerian_mobius(a)
    assert primitive_eulerian_recursive(a) == p
    assert peul_from_cochar(cocharacteristic(a), lattice.rank) == p
    assert primitive_eulerian_recursive(essentialize(a)) == p
    if not a.hyperplanes:
        return
    # P = (z-1) P(restriction to hyperplane 0) + sum over the grade-1 flats
    # off it of P(localization).
    pivot = next(f for f in lattice.flats
                 if f.dim == a.dim - 1 and 0 in f.containing)
    q = ZM1 * primitive_eulerian_mobius(restriction(a, pivot))
    for i, x in enumerate(lattice.flats):
        if lattice.grade(i) == 1 and 0 not in x.containing:
            q = q + primitive_eulerian_mobius(localization(a, x))
    assert q == p


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrangements())
@example(Arrangement(3, ()))
@example(Arrangement.from_normals([(1, 0), (1, 1)], 2))
def test_packed_routes_agree(a):
    p = primitive_eulerian_mobius(a)
    rank = build_flats(a).rank
    assert peul_from_cochar(cochar_via_halfspace(a), rank) == p
    fan = enumerate_faces(a)
    assert len(fan) == len(fan.faces)
    assert list(fan.faces) == sorted(fan.faces, key=sign_key)
    assert is_simplicial(a) == all(len(fan.rays_of(c)) == fan.rank
                                   for c in fan.regions())
    if not is_simplicial(a):
        return
    try:
        assert primitive_eulerian_descents(a) == p
    except UpperSetError as exc:
        # the witness is a cover pair leaving the halfspace
        c, d = exc.witness
        v = find_very_generic(a)
        assert d in WeakOrder(a, base_region_of(a, v)).covers_above(c)
        assert region_in_halfspace(a, c, v) and not region_in_halfspace(a, d, v)
