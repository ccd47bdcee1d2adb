import random

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from primeul.arrangement import (Arrangement, _pack, build_flats, count_regions_zaslavsky,
                                 halfspace_mask, is_very_generic_vector, set_bits)
from primeul.cli import _PATH_BUILTINS
from primeul.eulerpoly import find_very_generic
from primeul.faces import (FanIndex, enumerate_faces, enumerate_regions,
                           is_sharp, is_simplicial, region_in_halfspace)
from primeul.families import (braid, generic_gn, graphic, parse_family, rank2,
                              type_b, type_d, type_dnk)
from primeul.linalg import dot, rref_int
from test_arrangement import essentialize, restriction
from test_cli import python
from test_differential import arrangements

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
COORD2 = Arrangement.from_normals([(1, 0), (0, 1)], 2)
SKEW2 = Arrangement.from_normals([(1, 0), (1, 1)], 2)

# References on the fan's packed sign vectors plus | minus << m.  A face f
# lies in the closure of g iff f & ~g == 0: every sign of f is one of g.


def pack(signs):
    """plus | minus << m for a sign tuple of length m."""
    return _pack(signs, len(signs))


def sign_key(signs):
    """The fan order on sign tuples: entry by entry, with 0 < + < -."""
    return tuple({0: 0, 1: 1, -1: 2}[s] for s in signs)


def packed_faces(fan):
    """Every face of the fan, as one set."""
    return frozenset().union(*fan._faces)


def packed_grade(fan, f):
    """The lattice grade of the flat of the packed face f."""
    return fan._grades[fan._at[(1 << fan.m) - 1 & ~(f | f >> fan.m)]]


def sorted_faces(fan):
    """The faces as sign tuples, in fan order."""
    return sorted(map(fan.unpack, packed_faces(fan)), key=sign_key)


def opposite(fan, f):
    """-f: the + and - halves swapped."""
    return f >> fan.m | (f & (1 << fan.m) - 1) << fan.m


def tits_product(fan, f, g):
    """The Tits product, first nonzero wins: f, with g's signs where f is 0;
    always a face."""
    zero = (1 << fan.m) - 1 & ~(f | f >> fan.m)
    fg = f | g & (zero | zero << fan.m)
    assert fg in fan._faces[fan._at[zero & ~(g | g >> fan.m)]], \
        "Tits product missing from the fan"
    return fg


def faces_in_halfspace(a, v):
    """The faces whose closed cone lies in {x : <v, x> <= 0}."""
    fan, up = enumerate_faces(a), halfspace_mask(a, v)
    return {f for f in packed_faces(fan) if not fan.ray_mask(f) & up}


def directions(a):
    """The rays of the fan in the order of the ray masks: the rank-1 flats'
    directions, then their negatives."""
    atoms = build_flats(a).atom_directions
    return atoms + tuple(tuple(-x for x in d) for d in atoms)


def rays_of(a, c):
    """The directions of the rays in the closure of the packed face c."""
    mask = enumerate_faces(a).ray_mask(c)
    return [d for i, d in enumerate(directions(a)) if mask >> i & 1]


def test_region_counts():
    assert len(enumerate_regions(braid(4))) == 24
    assert len(enumerate_regions(type_b(3))) == 48
    assert len(enumerate_regions(Arrangement(2, ()))) == 1


def test_regions_match_zaslavsky():
    for a in (braid(3), braid(4), type_b(2), type_b(3), type_d(3), rank2(5),
              FOUR_CYCLE, generic_gn(3), type_dnk(3, 1)):
        assert len(enumerate_regions(a)) == count_regions_zaslavsky(a)


def test_regions_sorted_deterministically():
    fan = enumerate_faces(type_b(2))
    regions = list(map(fan.unpack, enumerate_regions(type_b(2))))
    assert regions == sorted(regions, key=sign_key)
    assert all(0 not in r for r in regions)


def test_face_counts_rank1():
    a = Arrangement.from_normals([(1, 0)], 2)
    fan = enumerate_faces(a)
    assert sorted_faces(fan) == [(0,), (1,), (-1,)]


def test_face_counts_braid4():
    fan = enumerate_faces(essentialize(braid(4)))
    assert fan.f_vector() == (1, 14, 36, 24)
    # grade-by-grade totals equal region counts of the restrictions
    lattice = build_flats(essentialize(braid(4)))
    for g, flats in enumerate(lattice.flats_by_grade()):
        total = sum(len(enumerate_regions(restriction(lattice.arrangement, i)))
                    for i in flats)
        assert fan.f_vector()[g] == total


def test_face_counts_i23():
    fan = enumerate_faces(rank2(3))
    assert fan.f_vector() == (1, 6, 6)
    assert len(fan) == 13


def test_tits_identity_properties():
    fan = enumerate_faces(rank2(3))
    for f in packed_faces(fan):
        assert tits_product(fan, 0, f) == f  # 0 is the central face
        assert tits_product(fan, f, 0) == f
        assert tits_product(fan, f, f) == f


def test_tits_left_regular_band_exhaustive():
    # fans below 200 faces get the full check
    for a in (rank2(2), rank2(4), essentialize(braid(4)), type_b(3)):
        fan = enumerate_faces(a)
        assert len(fan) <= 200
        faces = packed_faces(fan)
        for f in faces:
            for g in faces:
                fg = tits_product(fan, f, g)
                assert not f & ~fg
                assert tits_product(fan, fg, f) == fg
                assert tits_product(fan, f, fg) == fg


def test_tits_rank2_example():
    fan = enumerate_faces(COORD2)

    def tits(f, g):
        return fan.unpack(tits_product(fan, pack(f), pack(g)))

    # first nonzero wins entrywise: (+,0) * (0,-) lands in the region (+,-)
    assert tits((1, 0), (0, -1)) == (1, -1)
    # opposite rays on the same line absorb: (+,0) * (-,0) stays (+,0)
    assert tits((1, 0), (-1, 0)) == (1, 0)


def test_opposite():
    # The fan is centrally symmetric: -f is a face for every face f.
    fan = enumerate_faces(type_b(2))
    assert opposite(fan, 0) == 0
    faces = packed_faces(fan)
    for f in faces:
        assert opposite(fan, f) in faces
        assert fan.unpack(opposite(fan, f)) == tuple(-x for x in fan.unpack(f))
        assert opposite(fan, opposite(fan, f)) == f
    assert opposite(fan, pack((1,) * 4)) == pack((-1,) * 4)


def test_separation():
    # The hyperplanes separating two packed regions are the bits where the
    # - masks differ; adjacent regions differ at the flipped hyperplane only.
    fan = enumerate_faces(braid(3))
    regions = fan.packed_regions
    c = regions[0]
    assert set_bits((c ^ c) >> 3) == []
    assert set_bits((c ^ opposite(fan, c)) >> 3) == [0, 1, 2]
    for c in regions:
        for h in range(3):
            d = c ^ (1 << h | 1 << h + 3)
            if d in regions:
                assert set_bits((c ^ d) >> 3) == [h]
                assert fan.unpack(d) == tuple(-x if j == h else x
                                              for j, x in enumerate(fan.unpack(c)))


def test_adjacent_regions_share_facet():
    fan = enumerate_faces(type_b(2))
    regions, faces = enumerate_regions(type_b(2)), packed_faces(fan)
    for c in regions:
        for h in range(4):
            flip = 1 << h | 1 << h + 4
            if c ^ flip in regions:
                wall = c & ~flip  # c with 0 at h
                assert wall in faces and packed_grade(fan, wall) == fan.rank - 1


def test_rays_first_quadrant():
    assert sorted(rays_of(COORD2, pack((1, 1)))) == [(0, 1), (1, 0)]


def test_rays_counts():
    for a, rank in ((rank2(3), 2), (essentialize(braid(4)), 3)):
        for c in enumerate_faces(a).packed_regions:
            assert len(rays_of(a, c)) == rank


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


def sharp_by_pairs(a):
    """is_sharp by its definition, one dot product per pair of walls of
    each region: c[h] c[k] <v_h, v_k> <= 0 for walls h != k of c."""
    fan = enumerate_faces(a)
    if fan.rank <= 1:
        return True
    if not is_simplicial(a):
        return False
    normals = a.normals
    for c, wall_mask in fan.walls.items():
        walls = set_bits(wall_mask)
        for x, h in enumerate(walls):
            for k in walls[x + 1:]:
                # c[h] * c[k] is -1 iff the plus bits of c differ at h and k
                sign = 1 - 2 * ((c >> h ^ c >> k) & 1)
                if sign * dot(normals[h], normals[k]) > 0:
                    return False
    return True


@st.composite
def simplicial_images(draw):
    """A reflection arrangement of rank <= 3 under an invertible integer
    map: simplicial like the original, sharp or not."""
    a = draw(st.sampled_from([COORD2, rank2(3), rank2(4), braid(3), type_b(2),
                              type_b(3), type_d(3),
                              Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1)])]))
    n = a.dim
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n)
                .filter(lambda rows: len(rref_int(rows, n)) == n))
    return Arrangement.from_normals(
        [tuple(dot(v, [row[j] for row in rows]) for j in range(n)) for v in a.normals], n)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(simplicial_images(), arrangements()))
@example(SKEW2)
@example(Arrangement.from_normals([(1, 0, 0), (1, 1, 0), (1, 1, 1)]))
def test_sharp_against_pairs(a):
    assert is_sharp(a) == sharp_by_pairs(a)


def test_simplicial_images_draw_non_sharp():
    a = find(simplicial_images(), lambda a: not sharp_by_pairs(a),
             settings=settings(derandomize=True, database=None))
    assert is_simplicial(a) and not is_sharp(a)


def test_region_in_halfspace():
    b3 = type_b(3)
    v = (1, 2, 4)
    regions = enumerate_regions(b3)
    base = tuple(1 if dot(n, v) > 0 else -1 for n in b3.normals)
    assert not region_in_halfspace(b3, pack(base), v)  # contains v itself
    assert region_in_halfspace(b3, pack(tuple(-x for x in base)), v)
    contained = [c for c in regions if region_in_halfspace(b3, c, v)]
    assert len(contained) == 15  # Greene-Zaslavsky: |mu(bot, top)|
    # a ray on the bounding hyperplane keeps the closed quadrant inside
    assert region_in_halfspace(COORD2, pack((1, 1)), (0, -1))
    assert not region_in_halfspace(COORD2, pack((1, 1)), (1, -1))
    # a lower face, a vector with both signs at a hyperplane and a sign
    # tuple are refused
    for c in (pack((1, 0)), pack((1, 1)) | 1 << 2, (1, 1)):
        with pytest.raises(KeyError):
            region_in_halfspace(COORD2, c, (0, -1))


def test_faces_in_halfspace_rank1():
    a = Arrangement.from_normals([(1, 0)], 2)
    fan = enumerate_faces(a)
    inside = faces_in_halfspace(a, (1, 0))
    assert sorted(map(fan.unpack, inside), key=sign_key) == [(0,), (-1,)]


def test_faces_in_halfspace_graded_counts():
    a = essentialize(braid(4))
    fan = enumerate_faces(a)
    inside = faces_in_halfspace(a, find_very_generic(a))
    counts = [0, 0, 0, 0]
    for f in inside:
        counts[packed_grade(fan, f)] += 1
    assert counts == [1, 7, 12, 6]
    full = [f for f in inside if packed_grade(fan, f) == 3]
    assert len(full) == 6  # |mu(bot, top)| of the rank-3 braid lattice



@pytest.mark.parametrize("family", _PATH_BUILTINS + ("F4",))
def test_faces_in_halfspace_by_flat(family):
    # The faces of flat X inside a very generic halfspace are the regions
    # of the restriction to X inside that halfspace cut down to X, which
    # stays very generic: |mu(bot, X)| of them.  Graded totals cannot see
    # a face counted at the wrong flat of the right grade; this can.
    a = parse_family(family)
    fan = enumerate_faces(a)
    up = halfspace_mask(a, find_very_generic(a))
    inside = [sum(1 for f in group if not fan.ray_mask(f) & up) for group in fan._faces]
    assert inside == [abs(mu) for mu in build_flats(a).mobius_bottom]

def _signed(a, signs):
    return [tuple(s * x for x in n) for s, n in zip(signs, a.normals) if s]


def _zero_normals(a, signs):
    return [n for s, n in zip(signs, a.normals) if s == 0]


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
    from primeul.families import parse_family
    from primeul.feasibility import strict_feasible

    for a in (rank2(4), braid(3), type_b(2), type_d(3),
              Arrangement.from_normals([(1, 2, 0), (0, 1, 1), (1, 0, -1)], 3),
              SKEW2,
              Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
              Arrangement(2, ())):
        m = len(a.normals)
        brute = []
        for signs in iproduct((1, 0, -1), repeat=m):
            if strict_feasible(_signed(a, signs), _zero_normals(a, signs), a.dim):
                brute.append(signs)
        brute.sort(key=sign_key)
        fan = enumerate_faces(a)
        assert sorted_faces(fan) == brute
        assert [packed_grade(fan, pack(f)) + build_flats(a).bottom_dim for f in brute] == [
            a.dim - len(rref_int(_zero_normals(a, f), a.dim)) for f in brute]
        assert tuple(map(fan.unpack, enumerate_regions(a))) == tuple(
            f for f in brute if 0 not in f)

    # the vector the routes pick by default, and two random ones
    rng = random.Random(3)
    for family in _PATH_BUILTINS:
        a = parse_family(family)
        fan = enumerate_faces(a)
        assert fan.rank <= 4
        for v in (find_very_generic(a), _random_very_generic(a, rng),
                  _random_very_generic(a, rng)):
            certified = {
                pack(f) for f in sorted_faces(fan)
                if not strict_feasible(_signed(a, f) + [v], _zero_normals(a, f), a.dim)}
            assert faces_in_halfspace(a, v) == certified, (family, v)

    # v not orthogonal to the minimum flat: no closed region fits in the
    # halfspace, since each contains the whole minimum flat
    a = braid(3)
    fan = enumerate_faces(a)
    for c in enumerate_regions(a):
        assert strict_feasible(_signed(a, fan.unpack(c)) + [(1, 1, 1)], (), a.dim)
        assert not region_in_halfspace(a, c, (1, 1, 1))


_FIRST_LOOKUP_PEAK = """\
from primeul import enumerate_faces, find_very_generic, parse_family, region_in_halfspace

def peak_kb():
    return int(next(line for line in open("/proc/self/status")
                    if line.startswith("VmHWM:")).split()[1])

a = parse_family("D 6")
fan = enumerate_faces(a)
v = find_very_generic(a)
c = fan.packed_regions[0]
before = peak_kb()
region_in_halfspace(a, c, v)
print(peak_kb() - before)
"""


def test_first_region_lookup_within_2mb():
    # region_in_halfspace refuses a non-region by one lookup in the walls:
    # the first call on D6 (216,113 faces) builds no set of all faces, which
    # raised the peak resident size by 14 MB.
    done = python("-c", _FIRST_LOOKUP_PEAK)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2 * 1024, done.stdout


def test_empty_arrangement_fan():
    fan = enumerate_faces(Arrangement(3, ()))
    assert sorted_faces(fan) == [()]
    assert fan.f_vector() == (1,)
    assert enumerate_regions(Arrangement(3, ())) == (0,)


def _compositions(cocircuits, m: int) -> set[int]:
    """Closure of the zero vector under composition with the packed
    cocircuits: the faces by definition.  Composing f with c rewrites f only
    on its zero mask z: (p | c.p & z, n | c.n & z).  The distinct
    restrictions of the cocircuits are taken once per zero mask."""
    full = (1 << m) - 1
    found = {0}
    stack = [0]
    restrictions: dict[int, set[int]] = {}
    while stack:
        f = stack.pop()
        z = full & ~(f | f >> m)
        parts = restrictions.get(z)
        if parts is None:
            parts = restrictions[z] = {c & (z | z << m) for c in cocircuits}
        for c in parts:
            g = f | c
            if g not in found:
                found.add(g)
                stack.append(g)
    return found


def _oracle_fan(a):
    """The faces, the regions, the walls and the set of directions by their
    definitions: the faces are the compositions of the cocircuits (the sign
    vectors of ± each rank-1 flat's direction), the regions the faces
    without zeros in fan order, and h is a wall of a region iff the region
    with 0 at h is a face."""
    m = len(a.normals)

    def pack(signs):
        return sum(1 << h + (s < 0) * m for h, s in enumerate(signs) if s)

    def unpack(f):
        return tuple((f >> h & 1) - (f >> h + m & 1) for h in range(m))

    rays = {}
    for d in build_flats(a).atom_directions:
        for r in (d, tuple(-x for x in d)):
            rays[tuple((x > 0) - (x < 0) for x in (dot(n, r) for n in a.normals))] = r
    faces = _compositions([pack(c) for c in rays], m)
    regions = tuple(sorted((f for f in faces if 0 not in unpack(f)),
                           key=lambda f: sign_key(unpack(f))))
    walls = {f: sum(1 << h for h in range(m) if f & ~(1 << h | 1 << h + m) in faces)
             for f in regions}
    return faces, regions, walls, set(rays.values())


def _cover_fan_equals_oracle(a):
    fan = FanIndex(a)
    got = (packed_faces(fan), fan.packed_regions, fan.walls, set(directions(a)))
    assert got == _oracle_fan(a), a


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arrangements(), st.randoms(use_true_random=False))
@example(Arrangement(3, ()), random.Random(0))
@example(Arrangement.from_normals([(1, 0, 0, 0), (0, 0, 1, 0)], 4), random.Random(0))
@example(Arrangement.from_normals([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3), random.Random(0))
@example(Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3),
         random.Random(0))
def test_faces_grouped_by_flat(a, rng):
    # Each flat's group holds exactly the faces whose zero mask is the
    # flat's; the groups are disjoint, and the counts inside a halfspace,
    # or off any set of rays, are those of the ray-mask reference.
    fan = enumerate_faces(a)
    lattice = build_flats(a)
    full = (1 << fan.m) - 1
    assert len(fan._faces) == len(lattice)
    for group, mask in zip(fan._faces, lattice.masks):
        assert {full & ~(f | f >> fan.m) for f in group} == {mask}
    assert sum(map(len, fan._faces)) == len(packed_faces(fan)) == len(fan)

    def by_grade(faces):
        counts = [0] * (fan.rank + 1)
        for f in faces:
            counts[packed_grade(fan, f)] += 1
        return tuple(counts)

    for v in (find_very_generic(a), _random_very_generic(a, rng)):
        up = halfspace_mask(a, v)
        assert fan.f_vector_inside(up) == by_grade(faces_in_halfspace(a, v)), v
    up = rng.getrandbits(len(directions(a)))
    assert fan.f_vector_inside(up) == by_grade(
        f for f in packed_faces(fan) if not fan.ray_mask(f) & up)


@pytest.mark.parametrize("family", _PATH_BUILTINS + ("A 6", "B 5", "D 5", "Dnk 5 3", "F4"))
def test_cover_fan_against_compositions(family):
    _cover_fan_equals_oracle(parse_family(family))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arrangements())
@example(Arrangement(0, ()))
@example(Arrangement(3, ()))
# non-essential, rank-deficient, and four generic planes (not simplicial)
@example(Arrangement.from_normals([(1, 0, 0, 0), (0, 0, 1, 0)], 4))
@example(Arrangement.from_normals([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3))
@example(Arrangement.from_normals([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3))
def test_cover_fan_against_compositions_generated(a):
    _cover_fan_equals_oracle(a)


@pytest.mark.long
def test_cover_fan_against_compositions_d6():
    a = type_d(6)
    _cover_fan_equals_oracle(a)
    assert len(enumerate_faces(a)) == 216113
    assert len(enumerate_regions(a)) == 23040
