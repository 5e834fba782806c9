"""Points of F^{<=m}, product sets, prefix order and cube closures.

A point is a plain tuple of ints; the empty tuple () is the length-0 point
used to index total sums. The canonical order on F^{<=m} is length first,
then lexicographic by coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

Point = tuple[int, ...]

BOT: Point = ()


def sort_points(pts: Iterable[Point]) -> list[Point]:
    return sorted(pts, key=lambda pt: (len(pt), pt))


def dedup_points(pts: Iterable[Point]) -> list[Point]:
    """Remove duplicates preserving first occurrence."""
    return list(dict.fromkeys(tuple(map(int, pt)) for pt in pts))


def require_in_field(pt: Point, p: int) -> Point:
    """The point itself; ValueError if a coordinate lies outside [0, p)."""
    if any(not 0 <= c < p for c in pt):
        raise ValueError(f"point {list(pt)} has a coordinate outside [0, {p})")
    return pt


def rev_point(pt: Point) -> Point:
    return tuple(reversed(pt))


@dataclass(frozen=True)
class ProductSet:
    """A product A_1 x ... x A_m of nonempty subsets of the field."""

    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        factors = tuple(tuple(sorted(set(int(a) for a in f))) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        for f in factors:
            if not f:
                raise ValueError("every factor must be nonempty")

    @property
    def m(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return self.suffix_size(0)

    def prefix(self, i: int) -> "ProductSet":
        """A_1 x ... x A_i (i may be 0, giving the empty product {()})."""
        return ProductSet(self.factors[:i])

    def suffix_size(self, length: int) -> int:
        """Number of points in the suffix cube A_{length+1} x ... x A_m."""
        n = 1
        for f in self.factors[length:]:
            n *= len(f)
        return n

    def contains(self, pt: Point) -> bool:
        """Membership of a full-length point in the product."""
        return len(pt) == self.m and all(
            c in f for c, f in zip(pt, self.factors)
        )

    def contains_prefix(self, pt: Point) -> bool:
        """Membership of pt (any length <= m) in A_1 x ... x A_{|pt|}."""
        return len(pt) <= self.m and all(
            c in f for c, f in zip(pt, self.factors)
        )

    def points(self) -> Iterator[Point]:
        yield from product(*self.factors)

    def prefix_points(self, i: int) -> Iterator[Point]:
        yield from product(*self.factors[:i])

    def suffix_points(self, length: int) -> Iterator[Point]:
        yield from product(*self.factors[length:])

    def cube_of(self, pt: Point) -> Iterator[Point]:
        """Full-length points of the suffix cube denoted by prefix pt."""
        for tail in self.suffix_points(len(pt)):
            yield pt + tail

    def is_reversal_symmetric(self) -> bool:
        return all(
            self.factors[i] == self.factors[self.m - i - 1] for i in range(self.m)
        )


def hypercube(h: Iterable[int], m: int) -> ProductSet:
    if m < 0:
        raise ValueError(f"arity must be nonnegative, got m={m}")
    return ProductSet((tuple(h),) * m)


def a_closure(pts: Iterable[Point], a: ProductSet) -> list[Point]:
    """Smallest set containing pts that is closed under prefixes and
    sibling completion over the product set, in canonical order.

    One downward pass over lengths suffices: every added parent or sibling
    is strictly shorter or of the same length as an already-processed point.
    """
    closed = set(dedup_points(pts))
    for pt in closed:
        if len(pt) > a.m:
            raise ValueError(f"point {pt} longer than arity {a.m}")
    for length in range(a.m, 0, -1):
        for pt in [q for q in closed if len(q) == length]:
            parent = pt[:-1]
            closed.add(parent)
            for s in a.factors[length - 1]:
                closed.add(parent + (s,))
    return sort_points(closed)


def is_a_closed(pts: Iterable[Point], a: ProductSet) -> bool:
    s = set(pts)
    for pt in s:
        if len(pt) >= 1:
            if pt[:-1] not in s:
                return False
            for v in a.factors[len(pt) - 1]:
                if pt[:-1] + (v,) not in s:
                    return False
    return True


def starred(pts: Iterable[Point], a: ProductSet) -> list[Point]:
    """Points of the set having at least one child (s, v), v in A_{|s|+1}."""
    s = set(pts)
    out = []
    for pt in sort_points(s):
        if len(pt) < a.m and any(pt + (v,) in s for v in a.factors[len(pt)]):
            out.append(pt)
    return out
