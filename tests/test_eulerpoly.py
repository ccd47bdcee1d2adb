import random
from fractions import Fraction

import pytest

from primeul import arrangement, eulerpoly, faces
from primeul.arrangement import (Arrangement, build_flats, halfspace_failure,
                                 halfspace_mask, product, very_generic_failure)
from primeul.eulerpoly import (UpperSetError, base_region_of,
                               cochar_via_halfspace, cocharacteristic,
                               eulerian_poly, find_very_generic,
                               peul_from_cochar,
                               primitive_eulerian_descents,
                               primitive_eulerian_mobius,
                               primitive_eulerian_recursive)
from primeul.faces import (FanIndex, WeakOrder, enumerate_faces,
                           enumerate_regions, is_sharp, is_simplicial,
                           region_in_halfspace)
from primeul.families import (braid, generic_gn, graphic, parse_family,
                              rank2, type_b, type_d, type_dnk)
from primeul.intpoly import IntPoly, Z, ZM1
from primeul.linalg import primitive_signed, rref_int
from primeul.roots import interlaces, is_real_rooted
from test_arrangement import deletion_summands, essentialize
from test_faces import _random_very_generic, pack

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])

SIMPLICIAL_BUILTINS = [
    rank2(2), rank2(3), rank2(5), braid(3), braid(4), type_b(2), type_b(3),
    type_d(3), type_dnk(3, 1), type_dnk(3, 2),
]
ALL_BUILTINS = SIMPLICIAL_BUILTINS + [FOUR_CYCLE, generic_gn(3), generic_gn(4)]


def test_mobius_examples():
    assert primitive_eulerian_mobius(Arrangement.from_normals([(1, 0)], 2)) == Z
    for k in range(2, 11):
        assert primitive_eulerian_mobius(rank2(k)) == IntPoly((0, k - 2, 1))
    assert primitive_eulerian_mobius(FOUR_CYCLE) == IntPoly((0, -1, 3, 1))


def test_mobius_monic_and_zero_constant():
    for a in ALL_BUILTINS:
        p = primitive_eulerian_mobius(a)
        assert p.coeffs[-1] == 1
        assert p.degree() == build_flats(a).rank
        if a.normals:
            assert p.coeffs[0] == 0


def test_cocharacteristic_examples():
    assert cocharacteristic(essentialize(braid(4))) == IntPoly((1, 7, 12, 6))
    assert cocharacteristic(braid(4)) == IntPoly((1, 7, 12, 6))
    assert cocharacteristic(Arrangement.from_normals([(1, 0)], 2)) == IntPoly((1, 1))
    for k in (3, 4, 5):
        assert cocharacteristic(rank2(k)) == IntPoly((1, k, k - 1))


def test_cochar_total_mass():
    for a in ALL_BUILTINS:
        lattice = build_flats(a)
        mass = sum(abs(m) for m in lattice.mobius_bottom)
        assert cocharacteristic(a)(1) == mass


def test_peul_from_cochar():
    assert peul_from_cochar(IntPoly((1, 1)), 1) == Z
    for k in (3, 4, 5):
        assert peul_from_cochar(IntPoly((1, k, k - 1)), 2) == IntPoly((0, k - 2, 1))
    assert peul_from_cochar(IntPoly((1, 7, 12, 6)), 3) == IntPoly((0, 1, 4, 1))
    with pytest.raises(ValueError):
        peul_from_cochar(IntPoly((1, 1, 1)), 1)


def test_recursive_examples():
    for k in range(2, 8):
        assert primitive_eulerian_recursive(rank2(k)) == IntPoly((0, k - 2, 1))
    assert primitive_eulerian_recursive(braid(4)) == IntPoly((0, 1, 4, 1))
    for n in range(2, 9):
        want = Z * ZM1 ** n + (n + 1) * Z ** n - Z ** (n + 1)
        assert primitive_eulerian_recursive(generic_gn(n)) == want


def test_recursive_builds_one_lattice():
    build_flats.cache_clear()
    assert primitive_eulerian_recursive(type_b(5)) == \
        IntPoly((0, 16, 296, 516, 116, 1))
    assert build_flats.cache_info().misses == 1


def test_four_path_agreement():
    for a in SIMPLICIAL_BUILTINS:
        p = primitive_eulerian_mobius(a)
        assert primitive_eulerian_recursive(a) == p
        rank = build_flats(a).rank
        assert peul_from_cochar(cocharacteristic(a), rank) == p
        v = find_very_generic(a)
        assert peul_from_cochar(cochar_via_halfspace(a, v), rank) == p
        assert primitive_eulerian_descents(a, v) == p


def test_three_paths_on_nonsimplicial():
    for a in (FOUR_CYCLE, generic_gn(3), generic_gn(4)):
        p = primitive_eulerian_mobius(a)
        rank = build_flats(a).rank
        assert primitive_eulerian_recursive(a) == p
        assert peul_from_cochar(cocharacteristic(a), rank) == p
        v = find_very_generic(a)
        assert peul_from_cochar(cochar_via_halfspace(a, v), rank) == p


def test_descent_path_rejects_nonsimplicial():
    with pytest.raises(ValueError):
        primitive_eulerian_descents(FOUR_CYCLE)


def test_descent_path_v_independence():
    rng = random.Random(0)
    for a in (type_b(3), braid(4), type_d(3)):
        p = primitive_eulerian_mobius(a)
        for _ in range(5):
            v = _random_very_generic(a, rng)
            assert primitive_eulerian_descents(a, v) == p


def test_halfspace_v_independence():
    rng = random.Random(100)
    for a in (type_b(2), braid(4), FOUR_CYCLE):
        psi = cocharacteristic(a)
        for _ in range(5):
            v = _random_very_generic(a, rng)
            assert cochar_via_halfspace(a, v) == psi


@pytest.mark.parametrize("a", [Arrangement(0, ()), Arrangement(3, ()), braid(1)],
                         ids=["dim0", "dim3", "A1"])
def test_trivial_arrangement_routes(a):
    # No hyperplanes: the span of the normals is empty and 0 is very generic.
    v = find_very_generic(a)
    assert v == (0,) * a.dim
    assert primitive_eulerian_mobius(a) == IntPoly((1,))
    assert primitive_eulerian_recursive(a) == IntPoly((1,))
    assert peul_from_cochar(cochar_via_halfspace(a), 0) == IntPoly((1,))
    assert primitive_eulerian_descents(a) == IntPoly((1,))


def test_cochar_rejects_non_generic_v():
    with pytest.raises(ValueError):
        cochar_via_halfspace(type_b(2), (1, 1))


# Every public function that reads a vector v.
V_READERS = pytest.mark.parametrize("entry", [
    very_generic_failure, halfspace_failure, cochar_via_halfspace,
    primitive_eulerian_descents,
    lambda a, v: region_in_halfspace(a, enumerate_regions(a)[0], v),
    halfspace_mask,
    base_region_of,
], ids=["very_generic_failure", "halfspace_failure", "cochar_via_halfspace",
        "primitive_eulerian_descents", "region_in_halfspace", "halfspace_mask",
        "base_region_of"])


@V_READERS
@pytest.mark.parametrize("v", [(1, 2), (1, 2, 4, 8)], ids=["short", "long"])
def test_wrong_length_v_is_refused(entry, v):
    # dot products zip, so a v of the wrong length would get an answer.
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        entry(type_b(3), v)


@V_READERS
def test_v_is_read_once(entry):
    # The genericity check consumed an iterator, and the routes then read
    # it again: an iterator v ended in a TypeError.
    b3 = type_b(3)
    assert entry(b3, iter((1, 2, 4))) == entry(b3, [1, 2, 4])


@pytest.mark.parametrize("route", [cochar_via_halfspace, primitive_eulerian_descents])
def test_v_is_masked_once(monkeypatch, route):
    # The genericity gate computed v's halfspace mask and dropped it, and
    # the route then computed it again: two calls per route call.
    d5 = type_d(5)
    v, calls, mask = find_very_generic(d5), [], halfspace_mask

    def count(a, v):
        calls.append(v)
        return mask(a, v)

    for module in (arrangement, eulerpoly, faces):
        if hasattr(module, "halfspace_mask"):
            monkeypatch.setattr(module, "halfspace_mask", count)
    route(d5, v)
    assert len(calls) == 1


@V_READERS
def test_float_v_is_refused(entry):
    # In floating point (0.1, 0.2, -0.3) is orthogonal to no rank-1 flat of
    # B3 and passed as very generic; the exact (1/10, 2/10, -3/10) is not.
    with pytest.raises(ValueError, match="^entry 0.1 is not an int or a Fraction$"):
        entry(type_b(3), (0.1, 0.2, -0.3))


def test_exact_v_is_decided_exactly():
    v = (Fraction(1, 10), Fraction(2, 10), Fraction(-3, 10))
    assert very_generic_failure(type_b(3), v) == \
        "bounding hyperplane contains the rank-1 flat spanned by (1, 1, 1)"
    with pytest.raises(ValueError, match="not very generic"):
        cochar_via_halfspace(type_b(3), v)


def test_nonsharp_negative_witness():
    # Two lines with an obtuse fan: combinatorially the coordinate
    # arrangement but not sharp; for v = (1, 3) the single contained region
    # is not an upper set and its descent sum z differs from P = z^2.
    skew = Arrangement.from_normals([(1, 0), (1, 1)], 2)
    assert not is_sharp(skew)
    v = (1, 3)
    from primeul.arrangement import is_very_generic_vector

    assert is_very_generic_vector(skew, v)
    with pytest.raises(UpperSetError) as exc:
        primitive_eulerian_descents(skew, v)
    inside, outside = exc.value.witness
    assert region_in_halfspace(skew, inside, v)
    assert not region_in_halfspace(skew, outside, v)
    # descent sum over the contained regions misses P
    order = WeakOrder(skew, base_region_of(skew, v))
    fan = enumerate_faces(skew)
    contained = [c for c in fan.packed_regions if region_in_halfspace(skew, c, v)]
    assert sorted(map(order.packed_descents, contained)) == [1]
    assert primitive_eulerian_mobius(skew) == Z ** 2


@pytest.mark.parametrize("normals, v, witness", [
    ([(1, 0), (1, 1)], (1, 3), ((1, -1), (-1, -1))),
    # several contained regions leave the halfspace here; the witness is
    # the first contained region in fan order, flipped across its first
    # wall that leaves the halfspace
    ([(0, 1, -1), (2, -1, -1), (2, -1, 2), (1, -2, 1)], (-1, 95, 8),
     ((1, 1, -1, 1), (1, 1, 1, 1))),
])
def test_upper_set_witness_is_pinned(normals, v, witness):
    a = Arrangement.from_normals(normals)
    with pytest.raises(UpperSetError) as exc:
        primitive_eulerian_descents(a, v)
    assert exc.value.witness == tuple(map(pack, witness))
    assert str(exc.value).endswith(f"region {witness[0]} is inside but its cover "
                                   f"{witness[1]} is not")


def test_routes_leave_the_sign_vector_views_unbuilt():
    # The halfspace route reads the packed faces by flat alone: none of the
    # views indexed by sign bits (the ray tables and the walls), and no set
    # of all faces.
    enumerate_faces.cache_clear()
    a = type_b(4)
    psi = cochar_via_halfspace(a)
    fan = enumerate_faces(a)
    assert not {"_chunks", "walls"} & set(vars(fan))
    assert peul_from_cochar(psi, 4) == primitive_eulerian_descents(a)
    assert eulerian_poly(a)(1) == 384
    assert len(fan) == 1697 and len(enumerate_regions(a)) == 384


def test_product_law():
    pairs = [(rank2(3), Arrangement.from_normals([(1,)], 1)),
             (type_b(2), rank2(4)),
             (braid(3), braid(3))]
    for a, b in pairs:
        lhs = primitive_eulerian_mobius(product(a, b))
        rhs = primitive_eulerian_mobius(a) * primitive_eulerian_mobius(b)
        assert lhs == rhs
    one = Arrangement.from_normals([(1,)], 1)
    assert primitive_eulerian_mobius(product(one, one)) == Z ** 2
    assert primitive_eulerian_mobius(product(rank2(3), one)) == IntPoly((0, 0, 1, 1))


def test_nonnegativity_on_simplicial():
    for a in SIMPLICIAL_BUILTINS:
        assert all(c >= 0 for c in primitive_eulerian_mobius(a).coeffs)
    assert any(c < 0 for c in primitive_eulerian_mobius(FOUR_CYCLE).coeffs)


def h_transform(f, r: int) -> IntPoly:
    """z^r h(1/z) for the h-polynomial h(y) = sum_k f_{k-1} y^k (1-y)^{r-k}
    of a rank-r simplicial complex with f_{k-1} = f[k] faces of grade k."""
    h = IntPoly()
    for k, fk in enumerate(f):
        h = h + fk * Z ** k * IntPoly((1, -1)) ** (r - k)
    return h.reverse(r)


def test_h_poly_relation():
    # The halfspace route's reparametrization is the f-to-h transform of the
    # complex of faces in the halfspace, which is simplicial when A is; and
    # z^r h(1/z) is the mobius-route polynomial.
    from primeul.cli import _PATH_BUILTINS
    simplicial = [a for a in map(parse_family, _PATH_BUILTINS) if is_simplicial(a)]
    assert len(simplicial) == 14
    for a in simplicial + [Arrangement.from_normals([(1, 0)], 2)]:
        r, psi = build_flats(a).rank, cochar_via_halfspace(a)
        assert h_transform(psi.coeffs, r) == peul_from_cochar(psi, r), a
        assert h_transform(psi.coeffs, r) == primitive_eulerian_mobius(a), a


def test_eulerian_poly():
    assert eulerian_poly(braid(4)) == IntPoly((1, 11, 11, 1))
    assert eulerian_poly(type_b(2)) == IntPoly((1, 6, 1))
    assert eulerian_poly(Arrangement.from_normals([(1, 0)], 2)) == IntPoly((1, 1))
    with pytest.raises(ValueError):
        eulerian_poly(generic_gn(4))


def test_eulerian_poly_base_independent():
    # The descent distribution over all regions is the same from every base.
    for a in (braid(4), type_b(3)):
        fan = enumerate_faces(a)
        dists = {IntPoly.from_counts(map(WeakOrder(a, b).packed_descents, fan.packed_regions))
                 for b in fan.packed_regions}
        assert dists == {eulerian_poly(a)}


def test_routes_never_convert_a_region(monkeypatch):
    # The base region, the weak order and both descent sums hold packed
    # regions: with the decoder to sign tuples refused, the routes still
    # answer.  Only the message of a declined route's error decodes its
    # witness.
    expected = {"B 4": (IntPoly((0, 8, 60, 36, 1)), IntPoly((1, 76, 230, 76, 1))),
                "D 4": (IntPoly((0, 4, 20, 20, 1)), IntPoly((1, 44, 102, 44, 1))),
                "F4": (IntPoly((0, 48, 220, 116, 1)), IntPoly((1, 236, 678, 236, 1)))}

    def refuse(*args):
        raise AssertionError("a region was converted")

    monkeypatch.setattr(FanIndex, "unpack", refuse)
    for family, (peul, eul) in expected.items():
        a = parse_family(family)
        assert primitive_eulerian_descents(a) == peul
        assert eulerian_poly(a) == eul
    monkeypatch.undo()
    with pytest.raises(UpperSetError) as exc:
        primitive_eulerian_descents(Arrangement.from_normals([(1, 0), (1, 1)]), (1, 3))
    assert exc.value.witness == (pack((1, -1)), pack((-1, -1)))


def test_declined_witness_checks_out(capsys):
    # The benchmark checks a declined descents route this way, on the same
    # non-sharp input: the packed witness goes back into covers_above and
    # region_in_halfspace as it is, and only len() of the regions is read.
    from primeul.arrangement import count_regions_zaslavsky
    from primeul.cli import main

    family = "graphic 3 1-3,2-3"
    a = parse_family(family)
    v = find_very_generic(a)
    with pytest.raises(UpperSetError) as exc:
        primitive_eulerian_descents(a, v)
    c, d = exc.value.witness
    assert d in WeakOrder(a, base_region_of(a, v)).covers_above(c)
    assert region_in_halfspace(a, c, v) and not region_in_halfspace(a, d, v)
    assert len(enumerate_regions(a)) == count_regions_zaslavsky(a)
    assert main(["poly", "--family", family, "--method", "descents"]) == 3
    assert capsys.readouterr().err == (
        "error: regions in the halfspace are not an upper set: region (1, -1) "
        "is inside but its cover (-1, -1) is not\n")


def test_base_region_of_is_packed():
    # bit h of the + half where <n_h, v> > 0, of the - half where it is < 0
    a = type_b(3)
    fan = enumerate_faces(a)
    for v in ((1, 2, 4), (-3, 1, -7)):
        base = base_region_of(a, v)
        assert base in fan.packed_regions
        assert fan.unpack(base) == tuple(1 if sum(x * y for x, y in zip(n, v)) > 0 else -1
                                         for n in a.normals)
    with pytest.raises(ValueError, match="v lies on a hyperplane"):
        base_region_of(a, (1, 1, 4))


def test_rank3_real_rooted_and_interlacing():
    for a in ALL_BUILTINS:
        if build_flats(a).rank <= 3:
            assert is_real_rooted(primitive_eulerian_mobius(a))


def random_rank3(rng: random.Random) -> Arrangement:
    while True:
        count = rng.randint(3, 6)
        normals = set()
        while len(normals) < count:
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(v):
                normals.add(primitive_signed(v))
        normals = sorted(normals)
        if len(rref_int(normals, 3)) == 3:
            return Arrangement.from_normals(normals, 3)


def test_random_rank3_real_rooted():
    rng = random.Random(2024)
    for _ in range(25):
        a = random_rank3(rng)
        assert is_real_rooted(primitive_eulerian_mobius(a))


def test_rank3_recursion_interlacing():
    # P = (z-1) P_restriction + sum of localizations; the second summand
    # interlaces the first, certifying real-rootedness in rank 3.
    rng = random.Random(77)
    done = 0
    while done < 10:
        a = random_rank3(rng)
        f, g = deletion_summands(a)
        if not g:
            continue
        assert interlaces(g, f)
        assert f + g == primitive_eulerian_mobius(a)
        done += 1
