"""Antisymmetric functions on a reversal-symmetric cube and their sum code.

A prefix point denotes its suffix subcube; all set sizes and intersections
are computed by exact product arithmetic on prefix descriptions, never by
enumerating cubes, so one side of a large/small split may be exponential.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .domains import BOT, Point, ProductSet, dedup_points, sort_points
from .field import Field
from .linalg import project_constraints
from .rm_locator import LocatorOutput


def require_reversal_symmetric(a: ProductSet):
    if not a.is_reversal_symmetric():
        raise ValueError("product set must satisfy A_i = A_{m-i+1}")


def rev_cube_intersection_size(x: Point, y: Point, a: ProductSet) -> int:
    """|cube(x) intersect reverse(cube(y))|, exactly.

    For short prefixes the overlap is a free middle band; once the fixed
    coordinates meet, it is a single point or empty depending on agreement.
    """
    require_reversal_symmetric(a)
    if not a.contains_prefix(x) or not a.contains_prefix(y):
        raise ValueError(_OUTSIDE_PREFIXES)
    return _rev_overlap(x, y, a)


_OUTSIDE_PREFIXES = "points must lie in the prefix domain of the cube"


def _rev_overlap(x: Point, y: Point, a: ProductSet) -> int:
    """``rev_cube_intersection_size`` on a checked cube and checked points."""
    m = a.m
    if len(x) + len(y) < m:
        n = 1
        for j in range(len(x), m - len(y)):
            n *= len(a.factors[j])
        return n
    for i in range(m - len(y), len(x)):
        if x[i] != y[m - i - 1]:
            return 0
    return 1


def union_size(pts: Iterable[Point], a: ProductSet) -> int:
    """Total size of the disjoint cubes of a prefix-free family."""
    return sum(a.suffix_size(len(pt)) for pt in pts)


def is_prefix(x: Point, y: Point) -> bool:
    return len(x) <= len(y) and y[: len(x)] == x


def is_prefix_free(pts: Sequence[Point]) -> bool:
    pts = list(pts)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if i != j and is_prefix(x, y):
                return False
    return True


@dataclass(frozen=True)
class PrefixFreeFamily:
    """A prefix-free cover: each input point's cube is a disjoint union of
    cubes of members of g."""

    g: tuple[Point, ...]
    lam: dict[Point, frozenset[Point]]


def prefix_free(pts: Sequence[Point], a: ProductSet) -> PrefixFreeFamily:
    """The coarsest prefix-free cover of the input cubes.

    A node is split when it lies on the path from an input x down to a
    longer input y that x prefixes, x included and y not. g is the unsplit
    inputs plus the unsplit children of split nodes, and lam[x] is the
    members of g under x. |g| <= |pts| * m.
    """
    inputs = dedup_points(pts)
    for pt in inputs:
        if not a.contains_prefix(pt):
            raise ValueError(f"point {pt} outside the prefix domain")
    split = {
        y[:j]
        for x in inputs
        for y in inputs
        if len(x) < len(y) and is_prefix(x, y)
        for j in range(len(x), len(y))
    }
    children = {v + (b,) for v in split for b in a.factors[len(v)]}
    g = tuple(sort_points((set(inputs) | children) - split))
    return PrefixFreeFamily(
        g, {x: frozenset(q for q in g if is_prefix(x, q)) for x in inputs}
    )


def sym_sets(g: Sequence[Point], a: ProductSet) -> tuple[tuple[Point, ...], ...]:
    """The disjoint minimal symmetric subsets of a prefix-free family: the
    connected components of the reverse-overlap graph whose covered cube
    equals its own reversal image; sizes checked by exact arithmetic."""
    require_reversal_symmetric(a)
    g = sort_points(dedup_points(g))
    if not is_prefix_free(g):
        raise ValueError("input must be prefix-free")
    if not all(a.contains_prefix(x) for x in g):
        raise ValueError(_OUTSIDE_PREFIXES)
    n = len(g)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if _rev_overlap(g[i], g[j], a) != 0:
                adj[i].append(j)
                adj[j].append(i)
    seen = [False] * n
    comps: list[list[int]] = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    out = []
    for comp in comps:
        members = [g[i] for i in comp]
        overlap = sum(_rev_overlap(x, y, a) for x in members for y in members)
        if overlap == union_size(members, a):
            out.append(tuple(members))
    return tuple(out)


def complement_prefixes(h: Sequence[Point], a: ProductSet) -> list[Point]:
    """Prefix-free family covering cube minus the union of the given cubes.

    Walks the prefix tree; at most m * |h| members.
    """
    hset = set(h)

    def walk(node: Point) -> list[Point]:
        if node in hset:
            return []
        if not any(is_prefix(node, x) for x in hset):
            return [node]
        out = []
        for v in a.factors[len(node)]:
            out.extend(walk(node + (v,)))
        return out

    return walk(BOT)


# the most points enumerate_cube_points lists
CUBE_POINTS_CAP = 1 << 20


def enumerate_cube_points(prefixes: Iterable[Point], a: ProductSet) -> list[Point]:
    out: list[Point] = []
    for pt in prefixes:
        if len(out) + a.suffix_size(len(pt)) > CUBE_POINTS_CAP:
            raise ValueError(f"cube enumeration exceeds {CUBE_POINTS_CAP} points")
        out.extend(a.cube_of(pt))
    return out


def antisym_locate(fld: Field, a: ProductSet, pts: Sequence[Point]) -> LocatorOutput:
    """Locator for the sum-word encoding masked by a random antisymmetric
    function. Messages live on the cube plus the total-sum coordinate.

    Odd characteristic only: over GF(2) the antisymmetry condition
    degenerates and palindromic coordinates stop being forced, which breaks
    the minimal-symmetric basis this construction is built on.
    """
    require_reversal_symmetric(a)
    if fld.p == 2:
        raise ValueError("antisym locator requires odd characteristic")
    p = fld.p
    queries = dedup_points(pts)
    fam = prefix_free(queries, a)
    families = sym_sets(fam.g, a)
    half = a.size / 2
    small, large = [], []
    for h in families:
        (small if union_size(h, a) <= half else large).append(h)

    r_list: list[Point] = [BOT]
    covers: dict[tuple[Point, ...], list[Point]] = {}
    for h in small:
        covers[h] = enumerate_cube_points(h, a)
        r_list.extend(covers[h])
    for h in large:
        comp = complement_prefixes(h, a)
        covers[h] = enumerate_cube_points(comp, a)
        r_list.extend(covers[h])
    r_list = dedup_points(r_list)

    # columns [R | G | I]; the prefix-free pieces G are projected out
    nr, ng = len(r_list), len(fam.g)
    mcol = {q: j for j, q in enumerate(r_list)}
    gcol = {q: nr + j for j, q in enumerate(fam.g)}
    nh = len(families)
    y = np.zeros((nh + len(queries), nr + ng + len(queries)), dtype=np.int64)
    small_set = set(small)
    for row, h in zip(y, families):
        if h in small_set:
            for q in covers[h]:
                row[mcol[q]] += 1
        else:
            row[mcol[BOT]] = 1
            for q in covers[h]:
                row[mcol[q]] -= 1
        for q in h:
            row[gcol[q]] -= 1
    for k, q in enumerate(queries):
        for piece in fam.lam[q]:
            y[nh + k, gcol[piece]] += 1
        y[nh + k, nr + ng + k] = -1

    keep = list(range(nr)) + list(range(nr + ng, y.shape[1]))
    return LocatorOutput(
        r=tuple(r_list),
        queries=tuple(queries),
        z=project_constraints(y, keep, p),
        meta={"prefix_free": fam},
    )
