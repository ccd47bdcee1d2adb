"""Weak order on regions with a base region: separation sets, walls,
descent counts, upper sets, and top-stars of faces."""

from __future__ import annotations

from .arrangement import Arrangement
from .faces import (FanIndex, SignVector, enumerate_faces, face_leq,
                    opposite, separation_set, tits_product)


class WeakOrder:
    """Order C <= D iff sep(B, C) is a subset of sep(B, D).

    The unique minimum is the base region B and the unique maximum is its
    opposite.  Covers are realized by wall crossings: D covers C exactly when
    they share a facet and the crossed hyperplane separates D from B.  The
    walls of each region are read from the fan.
    """

    def __init__(self, arrangement: Arrangement, base: SignVector):
        fan = enumerate_faces(arrangement)
        regions = fan.regions()
        if base not in regions:
            raise ValueError("base is not a region of the arrangement")
        self.arrangement = arrangement
        self.regions = regions
        self.base = base
        self._pos = {c: i for i, c in enumerate(regions)}
        self.sep = tuple(separation_set(base, c) for c in regions)
        self.walls = fan.walls

    def position(self, c: SignVector) -> int:
        return self._pos[c]

    def leq(self, c: SignVector, d: SignVector) -> bool:
        return self.sep[self._pos[c]] <= self.sep[self._pos[d]]

    def minimum(self) -> SignVector:
        return self.base

    def maximum(self) -> SignVector:
        return opposite(self.base)

    def descents(self, c: SignVector) -> int:
        """Number of walls of c separating c from the base region."""
        i = self._pos[c]
        return sum(1 for h in self.walls[i] if h in self.sep[i])

    def covers_above(self, c: SignVector) -> list[SignVector]:
        """Regions covering c: wall flips that grow the separation set."""
        return self._flips(c, False)

    def covers_below(self, c: SignVector) -> list[SignVector]:
        return self._flips(c, True)

    def _flips(self, c: SignVector, separating: bool) -> list[SignVector]:
        """c flipped across each wall that separates it from the base
        region, or across each wall that does not."""
        i = self._pos[c]
        return [c[:h] + (-c[h],) + c[h + 1:] for h in self.walls[i]
                if (h in self.sep[i]) == separating]

    def is_upper_set(self, subset) -> bool:
        return self.upper_set_failure(subset) is None

    def upper_set_failure(self, subset):
        """None if the subset is upward closed under covers, else a witness
        cover pair (c, d) with c inside and d outside."""
        inside = set(subset)
        for c in inside:
            for d in self.covers_above(c):
                if d not in inside:
                    return (c, d)
        return None


def top_star(fan: FanIndex, f: SignVector, order: WeakOrder):
    """Regions containing the face f, with the minimum and maximum of that
    interval: f * B and f * opposite(B)."""
    regions = tuple(c for c in order.regions if face_leq(f, c))
    lo = tits_product(fan, f, order.base)
    hi = tits_product(fan, f, opposite(order.base))
    for c in regions:
        if not (order.leq(lo, c) and order.leq(c, hi)):
            raise AssertionError("top-star interval bounds violated")
    return regions, lo, hi


def descent_set(fan: FanIndex, delta, base: SignVector):
    """Faces F of the subcomplex delta with F * opposite(base) in delta."""
    inside = set(delta)
    opp = opposite(base)
    return tuple(f for f in fan.faces
                 if f in inside and tits_product(fan, f, opp) in inside)
