"""Weak order on regions with a base region: descent counts and the
upper-set test, on packed sign vectors and the fan's dict of walls."""

from __future__ import annotations

from .arrangement import Arrangement
from .faces import SignVector, enumerate_faces, set_bits


class WeakOrder:
    """Order C <= D iff sep(B, C) is a subset of sep(B, D).

    The unique minimum is the base region B and the unique maximum is its
    opposite.  Covers are realized by wall crossings: D covers C exactly when
    they share a facet and the crossed hyperplane separates D from B.  The
    walls are ``FanIndex.walls``, read as they are.  Regions are the fan's
    packed sign vectors: a separation set is the mask minus ^ base_minus, a
    descent count the popcount of walls & sep, and a cover the flip of one
    wall h, f ^ (1 << h | 1 << h + m).  The base and ``covers_above`` take
    and give sign tuples, at the edge that perfbench reads.
    """

    def __init__(self, arrangement: Arrangement, base: SignVector):
        fan = enumerate_faces(arrangement)
        self._walls = fan.walls
        self._b = b = fan.pack(base)
        if b not in self._walls or fan.unpack(b) != base:
            raise ValueError("base is not a region of the arrangement")
        self.arrangement = arrangement
        self.base = base
        self._fan = fan

    def packed_descents(self, c: int) -> int:
        """Number of walls of the packed region c separating it from the
        base region."""
        return (self._walls[c] & (c ^ self._b) >> self._fan.m).bit_count()

    # perfbench checks a declined route's witness with it; no route calls it.
    def covers_above(self, c: SignVector) -> list[SignVector]:
        """Regions covering c: wall flips that grow the separation set."""
        return list(map(self._fan.unpack, self._flips_up(self._fan.key(c))))

    def _flips_up(self, c: int) -> list[int]:
        """The packed region c flipped across each wall that does not
        separate it from the base region."""
        m = self._fan.m
        return [c ^ (1 << h | 1 << h + m)
                for h in set_bits(self._walls[c] & ~((c ^ self._b) >> m))]

    def packed_failure(self, inside: list[int]):
        """None if the packed regions inside are upward closed under
        covers, else the first cover pair (c, d) with c inside and d not,
        in the order of inside."""
        members = set(inside)
        for c in inside:
            for d in self._flips_up(c):
                if d not in members:
                    return c, d
        return None
