import pytest

from primeul.arrangement import build_flats
from primeul.families import (braid, generic_gn, graphic,
                              parse_arrangement_file, parse_family,
                              parse_vector, rank2, root_system, type_b,
                              type_d, type_dnk)


def test_braid():
    a = braid(3)
    assert len(a.normals) == 3 and build_flats(a).rank == 2
    assert braid(1).normals == ()


def test_type_b():
    a = type_b(3)
    assert len(a.normals) == 9 and build_flats(a).rank == 3


def test_type_d():
    a = type_d(3)
    assert len(a.normals) == 6 and build_flats(a).rank == 3
    with pytest.raises(ValueError):
        type_d(1)


def test_dnk_boundaries():
    for n in (1, 2, 3, 4):
        assert type_dnk(n, n).normals == type_b(n).normals
    for n in (2, 3, 4):
        assert type_dnk(n, 0).normals == type_d(n).normals
    with pytest.raises(ValueError):
        type_dnk(3, 4)


def _pairs(n, signs):
    """Plain-loop normals e_i - s e_j for i < j, each pair in order of signs."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in signs:
                v = [0] * n
                v[i], v[j] = 1, -s
                out.append(tuple(v))
    return out


def _units(n, k):
    return [tuple(int(j == i) for j in range(n)) for i in range(k)]


def test_normals_against_plain_loops():
    # Every hyperplane order is part of the output: the fan order and the
    # regions' packed bits follow it.
    for n in range(1, 7):
        assert braid(n).normals == tuple(_pairs(n, (1,)))
        assert type_b(n).normals == tuple(_units(n, n) + _pairs(n, (1, -1)))
        if n >= 2:
            assert type_d(n).normals == tuple(_pairs(n, (1, -1)))
        for k in range(n + 1):
            assert type_dnk(n, k).normals == tuple(_units(n, k) + _pairs(n, (1, -1)))
    edges = [(1, 2), (3, 2), (4, 1), (2, 4), (5, 3)]
    want = [(1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (1, 0, 0, -1, 0),
            (0, 1, 0, -1, 0), (0, 0, 1, 0, -1)]
    assert graphic(5, edges).normals == tuple(want)


def test_graphic_takes_a_one_pass_iterable():
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert graphic(4, (e for e in edges)) == graphic(4, edges)
    with pytest.raises(ValueError, match=r"bad edge \(2, 5\)"):
        graphic(4, (e for e in [(1, 2), (2, 5)]))


def test_rank2():
    a = rank2(6)
    assert len(a.normals) == 6 and build_flats(a).rank == 2
    assert [len(g) for g in build_flats(a).flats_by_grade()] == [1, 6, 1]
    with pytest.raises(ValueError):
        rank2(1)


def test_graphic():
    a = graphic(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert len(a.normals) == 4 and build_flats(a).rank == 3
    with pytest.raises(ValueError):
        graphic(3, [(1, 1)])


def test_generic_gn():
    a = generic_gn(4)
    assert len(a.normals) == 5 and build_flats(a).rank == 4
    with pytest.raises(ValueError):
        generic_gn(1)


def test_root_system_counts():
    assert len(root_system("F4").normals) == 24
    assert build_flats(root_system("F4")).rank == 4
    assert len(root_system("E6").normals) == 36
    assert build_flats(root_system("E6")).rank == 6
    assert len(root_system("E7").normals) == 63
    assert len(root_system("E8").normals) == 120
    with pytest.raises(ValueError):
        root_system("H3")


def test_parse_family():
    assert parse_family("A 4").normals == braid(4).normals
    assert parse_family("Dnk 3 2").normals == type_dnk(3, 2).normals
    assert build_flats(parse_family("graphic 4 1-2,2-3,3-4,4-1")).rank == 3
    assert build_flats(parse_family("F4")).rank == 4
    for bad in ("", "Q 3", "A", "B x", "I2"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_parse_vector():
    from fractions import Fraction

    assert parse_vector("1,-1/2, 3") == (1, Fraction(-1, 2), 3)
    assert parse_vector("0.5") == (Fraction(1, 2),)
    # zero denominators, exponent notation (its cost grows with the
    # exponent) and empty entries are all ValueError
    for text in ("1/0", "1,0/0", "1e10000000", "2E3", "1,", ""):
        with pytest.raises(ValueError):
            parse_vector(text)


def test_parse_arrangement_file():
    text = """
    # braid in R^3
    3
    1 -1 0
    1 0 -1   # a comment
    0 1 -1
    """
    a = parse_arrangement_file(text)
    assert a.normals == braid(3).normals
    with pytest.raises(ValueError):
        parse_arrangement_file("# nothing here")
    with pytest.raises(ValueError):
        parse_arrangement_file("2\n1 0 0")
    with pytest.raises(ValueError):
        parse_arrangement_file("2\n1/0 1")
    with pytest.raises(ValueError):
        parse_arrangement_file("2\n1e10000000 1")
    text_frac = "2\n1/2 -1/2\n0 1"
    assert parse_arrangement_file(text_frac).normals == ((1, -1), (0, 1))
