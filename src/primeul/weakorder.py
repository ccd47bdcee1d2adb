"""Weak order on regions with a base region: separation sets, walls,
descent counts, upper sets, and top-stars of faces."""

from __future__ import annotations

from functools import cached_property

from .arrangement import Arrangement
from .faces import (FanIndex, SignVector, enumerate_faces, face_leq,
                    opposite, set_bits, tits_product)


class WeakOrder:
    """Order C <= D iff sep(B, C) is a subset of sep(B, D).

    The unique minimum is the base region B and the unique maximum is its
    opposite.  Covers are realized by wall crossings: D covers C exactly when
    they share a facet and the crossed hyperplane separates D from B.  The
    walls of each region are read from the fan.  Regions are the fan's
    packed sign vectors: a separation set is the mask minus ^ base_minus, a
    descent count the popcount of walls & sep, and a cover the flip of one
    wall h, f ^ (1 << h | 1 << h + m).  ``regions``, ``sep`` and ``walls``
    are the sign-vector views, built on first use.
    """

    def __init__(self, arrangement: Arrangement, base: SignVector):
        fan = enumerate_faces(arrangement)
        self._pos = {c: i for i, c in enumerate(fan.packed_regions)}
        b = fan.pack(base)
        if b not in self._pos or fan.unpack(b) != base:
            raise ValueError("base is not a region of the arrangement")
        self.arrangement = arrangement
        self.base = base
        self._fan = fan
        self._sep = tuple((c ^ b) >> fan.m for c in fan.packed_regions)

    @property
    def regions(self) -> tuple[SignVector, ...]:
        return self._fan.regions()

    @cached_property
    def sep(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(set_bits(s)) for s in self._sep)

    @property
    def walls(self) -> tuple[tuple[int, ...], ...]:
        return self._fan.walls

    def position(self, c: SignVector) -> int:
        return self._pos[self._fan.key(c)]

    def leq(self, c: SignVector, d: SignVector) -> bool:
        return not self._sep[self.position(c)] & ~self._sep[self.position(d)]

    def minimum(self) -> SignVector:
        return self.base

    def maximum(self) -> SignVector:
        return opposite(self.base)

    def packed_descents(self, c: int) -> int:
        """Number of walls of the packed region c separating it from the
        base region."""
        i = self._pos[c]
        return (self._fan.wall_masks[i] & self._sep[i]).bit_count()

    def descents(self, c: SignVector) -> int:
        return self.packed_descents(self._fan.key(c))

    def covers_above(self, c: SignVector) -> list[SignVector]:
        """Regions covering c: wall flips that grow the separation set."""
        return list(map(self._fan.unpack, self._flips(self._fan.key(c), False)))

    def covers_below(self, c: SignVector) -> list[SignVector]:
        return list(map(self._fan.unpack, self._flips(self._fan.key(c), True)))

    def _flips(self, c: int, separating: bool) -> list[int]:
        """The packed region c flipped across each wall that separates it
        from the base region, or across each wall that does not."""
        i, m = self._pos[c], self._fan.m
        walls = self._fan.wall_masks[i] & (self._sep[i] if separating else ~self._sep[i])
        return [c ^ (1 << h | 1 << h + m) for h in set_bits(walls)]

    def packed_failure(self, inside: list[int]):
        """None if the packed regions inside are upward closed under
        covers, else the first cover pair (c, d) with c inside and d not."""
        members = set(inside)
        for c in inside:
            for d in self._flips(c, False):
                if d not in members:
                    return c, d
        return None

    def is_upper_set(self, subset) -> bool:
        return self.upper_set_failure(subset) is None

    def upper_set_failure(self, subset):
        """None if the subset is upward closed under covers, else a witness
        cover pair (c, d) with c inside and d outside: the first one met in
        the iteration order of set(subset)."""
        witness = self.packed_failure([self._fan.key(c) for c in set(subset)])
        return None if witness is None else tuple(map(self._fan.unpack, witness))


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
