"""Builders for the named arrangement families, plus parsing of the family
DSL and the plain-text arrangement file format."""

from __future__ import annotations

from fractions import Fraction

from .arrangement import Arrangement
from .linalg import dot, primitive_signed


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _signed_graph(n: int, edges, k: int) -> Arrangement:
    """The first k coordinate hyperplanes x_i = 0, then x_i = s x_j for each
    signed edge (i, j, s) in order, 0-based: the normals e_i - s e_j, in R^n."""
    normals = [_unit(n, i) for i in range(k)]
    for i, j, s in edges:
        v = [0] * n
        v[i], v[j] = 1, -s
        normals.append(tuple(v))
    return Arrangement.from_normals(normals, n)


def braid(n: int) -> Arrangement:
    """Hyperplanes x_i = x_j for 1 <= i < j <= n, in R^n."""
    if n < 1:
        raise ValueError("braid needs n >= 1")
    return _signed_graph(n, ((i, j, 1) for i in range(n) for j in range(i + 1, n)), 0)


def type_b(n: int) -> Arrangement:
    """Hyperplanes x_i = x_j, x_i = -x_j (i < j) and x_i = 0, in R^n."""
    if n < 1:
        raise ValueError("type_b needs n >= 1")
    return type_dnk(n, n)


def type_d(n: int) -> Arrangement:
    """Hyperplanes x_i = x_j and x_i = -x_j for i < j, in R^n."""
    if n < 2:
        raise ValueError("type_d needs n >= 2")
    return type_dnk(n, 0)


def type_dnk(n: int, k: int) -> Arrangement:
    """type_d(n) plus the first k coordinate hyperplanes; D_{n,n} = B_n."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("type_dnk needs n >= 1 and 0 <= k <= n")
    return _signed_graph(n, ((i, j, s) for i in range(n) for j in range(i + 1, n)
                             for s in (1, -1)), k)


def rank2(k: int) -> Arrangement:
    """k distinct lines through the origin of R^2 (slopes 0, inf, 1, 2, ...).

    Combinatorially isomorphic to the rank-2 reflection fan with k lines;
    the polynomials computed here only see the lattice, so the rational
    slopes are immaterial.
    """
    if k < 2:
        raise ValueError("rank2 needs k >= 2")
    normals = [(0, 1), (1, 0)]
    for m in range(1, k - 1):
        normals.append((m, -1))
    return Arrangement.from_normals(normals[:k], 2)


def graphic(n: int, edges) -> Arrangement:
    """Graphic arrangement: x_i = x_j for each edge (i, j), 1-based."""
    if n < 1:
        raise ValueError("graphic needs n >= 1")
    edges = list(edges)  # read twice: checked, then built
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad edge ({i}, {j})")
    return _signed_graph(n, ((min(i, j) - 1, max(i, j) - 1, 1) for i, j in edges), 0)


def generic_gn(n: int) -> Arrangement:
    """n + 1 hyperplanes of R^n in general position: coordinates plus all-ones."""
    if n < 2:
        raise ValueError("generic_gn needs n >= 2")
    normals = [_unit(n, i) for i in range(n)]
    normals.append((1,) * n)
    return Arrangement.from_normals(normals, n)


# Simple roots in the standard rational coordinates; the full root systems
# are generated by closing under the simple reflections.  E6 and E7 take the
# first 6 and 7 simple roots of E8.
_E8_SIMPLE_ROOTS = (
    (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2),
     Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
)

_SIMPLE_ROOTS = {
    "F4": (
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
        (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)),
    ),
    "E6": _E8_SIMPLE_ROOTS[:6],
    "E7": _E8_SIMPLE_ROOTS[:7],
    "E8": _E8_SIMPLE_ROOTS,
}

ROOT_COUNTS = {"F4": 24, "E6": 36, "E7": 63, "E8": 120}


def root_system(name: str) -> Arrangement:
    """Reflection arrangement of F4, E6, E7 or E8 in rational coordinates."""
    name = name.upper()
    if name not in _SIMPLE_ROOTS:
        raise ValueError(f"unknown root system {name!r}")
    simple = [tuple(Fraction(c) for c in r) for r in _SIMPLE_ROOTS[name]]
    dim = len(simple[0])
    roots = {primitive_signed(r) for r in simple}
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for alpha in simple:
                coef = Fraction(2 * dot(beta, alpha), dot(alpha, alpha))
                refl = tuple(b - coef * a for b, a in zip(beta, alpha))
                key = primitive_signed(refl)
                if key not in roots:
                    roots.add(key)
                    new.add(key)
        frontier = new
    normals = sorted(roots)
    if len(normals) != ROOT_COUNTS[name]:
        raise RuntimeError(f"{name} closure gave {len(normals)} roots, "
                           f"expected {ROOT_COUNTS[name]}")
    return Arrangement.from_normals(normals, dim)


MAX_DIM = 1000  # a basis of the minimum flat alone holds up to dim**2 entries


class DimensionError(Exception):
    """A parsed ambient dimension above ``MAX_DIM``, refused before building."""


def _dim(token) -> int:
    dim = int(token)
    if dim > MAX_DIM:
        raise DimensionError(f"ambient dimension {dim} exceeds the limit of {MAX_DIM}")
    return dim


def parse_family(text: str) -> Arrangement:
    """Build an arrangement from a family DSL string.

    Grammar: "A n", "B n", "D n", "Dnk n k", "I2 k", "Gn n",
    "graphic n i-j,i-j,...", "F4", "E6", "E7", "E8".
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty family string")
    kind = parts[0]
    try:
        if kind == "A" and len(parts) == 2:
            return braid(_dim(parts[1]))
        if kind == "B" and len(parts) == 2:
            return type_b(_dim(parts[1]))
        if kind == "D" and len(parts) == 2:
            return type_d(_dim(parts[1]))
        if kind == "Dnk" and len(parts) == 3:
            return type_dnk(_dim(parts[1]), int(parts[2]))
        if kind == "I2" and len(parts) == 2:
            return rank2(int(parts[1]))
        if kind == "Gn" and len(parts) == 2:
            return generic_gn(_dim(parts[1]))
        if kind == "graphic" and len(parts) == 3:
            edges = []
            for chunk in parts[2].split(","):
                i, j = chunk.split("-")
                edges.append((int(i), int(j)))
            return graphic(_dim(parts[1]), edges)
        if kind in ("F4", "E6", "E7", "E8") and len(parts) == 1:
            return root_system(kind)
    except ValueError as exc:
        raise ValueError(f"bad family string {text!r}: {exc}") from None
    raise ValueError(f"bad family string {text!r}")


def parse_rational(token: str) -> Fraction:
    """An integer, a/b or a decimal.  Exponent notation is refused: its cost
    grows with the exponent's value, not with the token's length."""
    if "e" in token.lower():
        raise ValueError(f"exponent notation not accepted: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_vector(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, slash notation allowed: "1,-1/2,3"."""
    return tuple(parse_rational(t.strip()) for t in text.split(","))


def parse_arrangement_file(text: str) -> Arrangement:
    """Text format: first data line is the ambient dimension; every further
    data line is one hyperplane normal as whitespace-separated rationals.
    '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty arrangement file")
    try:
        dim = _dim(lines[0])
    except ValueError:
        raise ValueError(f"bad dimension line {lines[0]!r}") from None
    normals = []
    for line in lines[1:]:
        vec = tuple(parse_rational(t) for t in line.split())
        if len(vec) != dim:
            raise ValueError(f"normal {line!r} does not have {dim} entries")
        normals.append(vec)
    return Arrangement.from_normals(normals, dim)
