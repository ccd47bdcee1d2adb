"""Golden polynomial tables for the classical and exceptional families.

The H3 and H4 rows require irrational coordinates and the E8 lattice is
beyond desk scale, so they are embedded as golden data; every other row is
reproducible by the library and pinned by the test suite.
"""

from __future__ import annotations

from .intpoly import IntPoly

# coefficients low degree first
TYPE_B = {
    0: IntPoly((1,)),
    1: IntPoly((0, 1)),
    2: IntPoly((0, 2, 1)),
    3: IntPoly((0, 4, 10, 1)),
    4: IntPoly((0, 8, 60, 36, 1)),
    5: IntPoly((0, 16, 296, 516, 116, 1)),
}

TYPE_D = {
    2: IntPoly((0, 0, 1)),
    3: IntPoly((0, 1, 4, 1)),
    4: IntPoly((0, 4, 20, 20, 1)),
    5: IntPoly((0, 11, 116, 216, 76, 1)),
    6: IntPoly((0, 26, 632, 2072, 1732, 262, 1)),
    7: IntPoly((0, 57, 3158, 18404, 28064, 11824, 862, 1)),
}

EXCEPTIONAL = {
    "H3": IntPoly((0, 16, 28, 1)),
    "H4": IntPoly((0, 900, 3844, 1316, 1)),
    "F4": IntPoly((0, 48, 220, 116, 1)),
    "E6": IntPoly((0, 117, 1773, 5698, 4098, 633, 1)),
    "E7": IntPoly((0, 1996, 51234, 252960, 332200, 118560, 8814, 1)),
    "E8": IntPoly((0, 139080, 6056496, 43792992, 92427088,
                   60853504, 11946408, 440872, 1)),
}

_IRRATIONAL = "irrational realization out of scope"
#: Rows that are never recomputed, with the reason.
GOLDEN_ONLY = {"H3": _IRRATIONAL, "H4": _IRRATIONAL, "E8": "lattice too large to recompute"}
#: Rows recomputed by the recursive route only under --long.
LONG_RUNNING = ("E7",)
