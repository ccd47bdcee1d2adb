"""Acceptance suite: every criterion is one test with exact expected values
and its stated wall-clock budget.  Run ``pytest tests/test_acceptance.py -v``
for a one-line-per-criterion report; the E7 lattice row is optional and
marked ``long``.
"""

import random
import time

import pytest

from primeul.arrangement import (Arrangement, build_flats,
                                 count_regions_zaslavsky, is_very_generic_vector)
from primeul.coxstats import (binomial_identity_checks,
                              generating_function_check, half_eulerian,
                              peul_a_des, peul_a_exc, peul_b_diffrec,
                              peul_b_rec, peul_d_des, peul_d_rec, peul_dnk)
from primeul.eulerpoly import (UpperSetError, base_region_of,
                               cochar_via_halfspace, cocharacteristic,
                               find_very_generic, peul_from_cochar,
                               primitive_eulerian_descents,
                               primitive_eulerian_mobius,
                               primitive_eulerian_recursive)
from primeul.faces import (WeakOrder, enumerate_faces, enumerate_regions,
                           is_sharp, is_simplicial, region_in_halfspace)
from primeul.families import (braid, generic_gn, graphic, rank2, root_system,
                              type_b, type_d, type_dnk)
from primeul.intpoly import IntPoly, Z, ZM1
from primeul.linalg import primitive_signed, rref_int
from primeul.roots import interlaces, is_real_rooted
from primeul.tables import EXCEPTIONAL, TYPE_B, TYPE_D
from test_arrangement import deletion_summands, essentialize
from test_faces import _random_very_generic, packed_faces, tits_product

FOUR_CYCLE = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


class budget:
    """Assert the body ran within the criterion's stated wall-clock bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, \
                f"criterion exceeded its {self.seconds}s budget ({elapsed:.1f}s)"


def rank_le_4_builtins():
    out = [rank2(k) for k in (2, 3, 4, 5)]
    out += [braid(n) for n in (3, 4, 5)]
    out += [type_b(2), type_b(3), type_b(4)]
    out += [type_d(2), type_d(3), type_d(4)]
    out += [type_dnk(3, 1), type_dnk(4, 2)]
    out += [generic_gn(2), generic_gn(3), generic_gn(4)]
    out += [FOUR_CYCLE]
    return out


# --------------------------------------------------------------------------
# 1. golden polynomial reproduction

def test_1_rank2_family_both_paths():
    with budget(1):
        for k in range(2, 11):
            want = IntPoly((0, k - 2, 1))
            assert primitive_eulerian_mobius(rank2(k)) == want
            assert primitive_eulerian_recursive(rank2(k)) == want


def test_1_four_cycle():
    with budget(1):
        assert primitive_eulerian_mobius(FOUR_CYCLE) == IntPoly((0, -1, 3, 1))
        from primeul.arrangement import characteristic_polynomial

        chi = characteristic_polynomial(FOUR_CYCLE)
        assert chi == IntPoly((0, -3, 6, -4, 1))
        t = IntPoly((0, 1))
        assert chi == t * (t - 1) * IntPoly((3, -3, 1))


def test_1_type_a_through_rank_six():
    with budget(10):
        for n in range(2, 7):
            want = Z * eulerian_a_poly(n - 1)
            assert primitive_eulerian_mobius(braid(n)) == want
            assert peul_a_exc(n) == want
            assert peul_a_des(n) == want


def eulerian_a_poly(m):
    from primeul.coxstats import eulerian_a

    return eulerian_a(m)


def test_1_type_b_table_five_paths_small():
    with budget(120):
        for n in range(6):
            want = TYPE_B[n]
            assert peul_b_rec(n) == want
            assert peul_b_diffrec(n) == want
            if n >= 1:
                assert half_eulerian(n).reverse(n - 1) * Z == want
        for n in range(1, 5):
            want = TYPE_B[n]
            assert primitive_eulerian_mobius(type_b(n)) == want
            v = tuple(2 ** i for i in range(n))
            assert primitive_eulerian_descents(type_b(n), v) == want


def test_1_type_b_rank5_geometric_long_tier():
    with budget(600):
        b5 = type_b(5)
        assert primitive_eulerian_mobius(b5) == TYPE_B[5]
        assert primitive_eulerian_descents(b5, (1, 2, 4, 8, 16)) == TYPE_B[5]


def test_1_type_d_table():
    with budget(60):
        for n in range(2, 8):
            assert peul_d_rec(n) == TYPE_D[n]
            assert peul_d_des(n) == TYPE_D[n]


def test_1_type_d_geometric():
    with budget(120):
        for n in range(2, 6):
            a = type_d(n)
            assert primitive_eulerian_mobius(a) == TYPE_D[n]
            assert primitive_eulerian_recursive(a) == TYPE_D[n]
            v = tuple(2 ** i for i in range(n))
            assert primitive_eulerian_descents(a, v) == TYPE_D[n]


def test_1_dnk_formula_vs_mobius():
    with budget(120):
        assert primitive_eulerian_mobius(type_dnk(1, 1)) == peul_dnk(1, 1)
        for n in range(2, 5):
            for k in range(n + 1):
                got = primitive_eulerian_mobius(type_dnk(n, k))
                assert got == peul_dnk(n, k), (n, k)


def test_1_f4_mobius():
    with budget(300):
        assert primitive_eulerian_mobius(root_system("F4")) == EXCEPTIONAL["F4"]


def test_1_e6_mobius():
    with budget(60):
        assert primitive_eulerian_mobius(root_system("E6")) == EXCEPTIONAL["E6"]


@pytest.mark.long
def test_1_e7_mobius_long_tier():
    # 90,408 flats; most of the 0.7 GB peak is the down-sets of the Mobius pass
    assert primitive_eulerian_mobius(root_system("E7")) == EXCEPTIONAL["E7"]


def test_1_generic_family_closed_form():
    with budget(10):
        for n in range(2, 9):
            want = Z * ZM1 ** n + (n + 1) * Z ** n - Z ** (n + 1)
            assert primitive_eulerian_recursive(generic_gn(n)) == want


def test_1_braid4_halfspace_face_counts():
    with budget(5):
        a = essentialize(braid(4))
        v = find_very_generic(a)
        assert cochar_via_halfspace(a, v) == IntPoly((1, 7, 12, 6))


# --------------------------------------------------------------------------
# 2. property suites

def test_2_greene_zaslavsky_random_halfspaces():
    rng = random.Random(20240)
    for a in rank_le_4_builtins():
        lattice = build_flats(a)
        mu_top = abs(lattice.mobius_bottom[lattice.top_index])
        regions = enumerate_regions(a)
        for trial in range(5):
            v = _random_very_generic(a, rng)
            inside = sum(1 for c in regions if region_in_halfspace(a, c, v))
            assert inside == mu_top, (a, v)


def test_2_tits_monoid_axioms_exhaustive():
    small_fans = [rank2(2), rank2(3), rank2(5), essentialize(braid(4)),
                  type_b(3), type_d(3), type_dnk(3, 1)]
    for a in small_fans:
        fan = enumerate_faces(a)
        assert len(fan) <= 200
        faces = packed_faces(fan)
        for f in faces:
            assert tits_product(fan, 0, f) == f             # 0 is the central face
            assert tits_product(fan, f, 0) == f
            for g in faces:
                fg = tits_product(fan, f, g)
                assert not f & ~fg                          # F <= FG
                assert tits_product(fan, f, f) == f         # F F = F
                assert tits_product(fan, fg, f) == fg       # F G F = F G


def test_2_upper_sets_on_sharp_builtins():
    rng = random.Random(11)
    for a in rank_le_4_builtins():
        if not is_sharp(a):
            continue
        for trial in range(3):
            v = _random_very_generic(a, rng)
            order = WeakOrder(a, base_region_of(a, v))
            fan = enumerate_faces(a)
            inside = [c for c in fan.packed_regions
                      if region_in_halfspace(a, fan.unpack(c), v)]
            assert order.packed_failure(inside) is None, (a, v)


def test_2_nonsharp_negative_witness():
    # combinatorially the coordinate fan, one obtuse region: the descent sum
    # over the single contained region is z while P = z^2
    skew = Arrangement.from_normals([(1, 0), (1, 1)], 2)
    assert not is_sharp(skew)
    v = (1, 3)
    assert is_very_generic_vector(skew, v)
    with pytest.raises(UpperSetError):
        primitive_eulerian_descents(skew, v)
    order = WeakOrder(skew, base_region_of(skew, v))
    fan = enumerate_faces(skew)
    inside = [c for c in fan.packed_regions if region_in_halfspace(skew, fan.unpack(c), v)]
    assert sorted(map(order.packed_descents, inside)) == [1]
    assert primitive_eulerian_mobius(skew) == Z ** 2


def test_2_four_path_agreement_rank_le_4():
    for a in rank_le_4_builtins():
        p = primitive_eulerian_mobius(a)
        r = build_flats(a).rank
        assert primitive_eulerian_recursive(a) == p
        assert peul_from_cochar(cocharacteristic(a), r) == p
        v = find_very_generic(a)
        assert peul_from_cochar(cochar_via_halfspace(a, v), r) == p
        if is_simplicial(a):
            assert primitive_eulerian_descents(a, v) == p


def test_2_zaslavsky_equals_enumeration():
    for a in rank_le_4_builtins():
        assert count_regions_zaslavsky(a) == len(enumerate_regions(a))


# --------------------------------------------------------------------------
# 3. real-rootedness

def _random_rank3(rng):
    while True:
        count = rng.randint(3, 7)
        normals = set()
        while len(normals) < count:
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(v):
                normals.add(primitive_signed(v))
        normals = sorted(normals)
        if len(rref_int(normals, 3)) == 3:
            return Arrangement.from_normals(normals, 3)


def test_3_rank3_real_rootedness():
    for a in rank_le_4_builtins():
        if build_flats(a).rank <= 3:
            assert is_real_rooted(primitive_eulerian_mobius(a))
    rng = random.Random(31337)
    for _ in range(25):
        a = _random_rank3(rng)
        assert is_real_rooted(primitive_eulerian_mobius(a))


def test_3_classical_families_up_to_30():
    with budget(120):
        assert all(is_real_rooted(peul_b_rec(n)) for n in range(1, 31))
        assert all(is_real_rooted(peul_d_rec(n)) for n in range(2, 31))
        # n = 1 only makes sense with the coordinate hyperplane added:
        # peul_dnk(1, 0) is the conventional zero polynomial
        assert is_real_rooted(peul_dnk(1, 1))
        assert all(is_real_rooted(peul_dnk(n, k))
                   for n in range(2, 31) for k in range(n + 1))


def test_3_exceptional_golden_real_rooted():
    for poly in EXCEPTIONAL.values():
        assert is_real_rooted(poly)


def test_3_generic_rank4_not_real_rooted():
    p = primitive_eulerian_recursive(generic_gn(4))
    assert p == IntPoly((0, 1, -4, 6, 1))
    assert not is_real_rooted(p)


def test_3_interlacing_on_rank3_decomposition():
    rng = random.Random(424242)
    done = 0
    while done < 10:
        a = _random_rank3(rng)
        f, g = deletion_summands(a)
        if g.is_zero():
            continue
        assert interlaces(g, f)
        assert f + g == primitive_eulerian_mobius(a)
        done += 1


# --------------------------------------------------------------------------
# 4. generating functions

def test_4_generating_functions_and_binomial_identities():
    with budget(30):
        assert generating_function_check(6)
        assert peul_d_rec(1) == IntPoly()  # the P_{D_1} = 0 convention
        assert binomial_identity_checks(6)
