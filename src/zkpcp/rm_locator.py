"""Constraint location for random low-degree extensions.

A locator answers: which message positions R does a query set I depend on,
and which linear relations tie the message values at R to attainable query
answers? Every locator lays its columns out the same way: the message
positions R first, then the queries I, each in order. A point on both sides
occupies two columns related by an explicit copy row, which is how the
systematic positions of the encoding are expressed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import Point, ProductSet, dedup_points, sort_points
from .rm import CodeView, cd_rm, cd_zero_rm

ColKey = tuple[str, Point]


@dataclass(frozen=True)
class LocatorOutput:
    """(R, I, Z) with Z = [Z_R | Z_I]: the first ``len(r)`` columns are R and
    the rest are the queries I, both in order.

    Every locator returns its queries deduplicated in input order, so I is
    ``dedup_points`` of the points it was given. (message|_R, beta) lies in
    ker(Z) exactly when beta is an attainable restriction of the encoding to
    I for that message.
    """

    r: tuple[Point, ...]
    queries: tuple[Point, ...]
    z: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def cols(self) -> tuple[ColKey, ...]:
        """The columns tagged ("m", r) for r in R, then ("c", x) for x in I."""
        return tuple([("m", q) for q in self.r] + [("c", q) for q in self.queries])

    def kernel_contains(self, msg: dict[Point, int], beta: dict[Point, int], p: int) -> bool:
        v = np.array(
            [msg[q] % p for q in self.r] + [beta[q] % p for q in self.queries],
            dtype=np.int64,
        )
        if self.z.shape[0] == 0:
            return True
        return not np.any((self.z @ v) % p)


def copy_rows(r: Sequence[Point], queries: Sequence[Point], p: int) -> np.ndarray:
    """Message copy minus query copy, over the columns [R | I].

    One row per point of R that is also queried, in R's order: 1 on its
    message column, p - 1 on its query column.
    """
    qidx = {q: j for j, q in enumerate(queries)}
    both = [(i, len(r) + qidx[q]) for i, q in enumerate(r) if q in qidx]
    z = np.zeros((len(both), len(r) + len(queries)), dtype=np.int64)
    for row, (i, j) in enumerate(both):
        z[row, i], z[row, j] = 1, p - 1
    return z


def check_constraints(view: CodeView, pts: Sequence[Point], s: ProductSet) -> bool:
    """Whether pts union the product grid s is constrained w.r.t. the code.

    Equivalent, by the zero-code transfer property, to the zero-code detector
    finding a constraint on pts minus the grid. Needs d_i >= |S_i| - 1 so the
    grid itself is unconstrained, which ``cd_zero_rm`` checks.
    """
    outside = [pt for pt in dedup_points(pts) if not s.contains(pt)]
    return not cd_zero_rm(view, s, outside).is_empty()


def interpolating_set(view: CodeView, pts: Sequence[Point]) -> list[Point]:
    """The free-variable positions of the detector output on pts.

    ``cd_rm`` returns its rows in reduced echelon form, so the pivots are
    each row's leading nonzero. The result is unconstrained, and every
    dropped point is determined by it.
    """
    cb = cd_rm(view, pts)
    if cb.is_empty():
        return list(cb.domain)
    pivots = set(np.argmax(cb.z != 0, axis=1).tolist())
    return [pt for j, pt in enumerate(cb.domain) if j not in pivots]


def require_locator_view(view: CodeView, a: ProductSet):
    """Refuse a code view the locators cannot serve for messages on a."""
    if a.m != view.m:
        raise ValueError("product-set arity mismatch")
    for d, f in zip(view.dv, a.factors):
        if d < 2 * (len(f) - 1):
            raise ValueError("need d_i >= 2(|A_i| - 1)")


def systematic_locate(view: CodeView, a: ProductSet, pts: Sequence[Point]) -> LocatorOutput:
    """``rm_locate`` on distinct points that, with the product set, carry no
    constraint at the reduced degree d'_i = d_i - (|A_i| - 1).

    Such a set needs no search and no full-degree detector: the search's
    root test asks this same question and flags nothing, and the points are
    unconstrained at the full degree d >= d' too. So the points are their
    own interpolating set, R is those in the product set, in query order,
    and only their copy rows remain. Every set inside the product set is one.
    """
    r = [pt for pt in pts if a.contains(pt)]
    return LocatorOutput(
        r=tuple(r),
        queries=tuple(pts),
        z=copy_rows(r, pts, view.p),
        meta={
            "interpolating_set": list(pts),
            "flagged_per_level": [0] * max(view.m, 1),
        },
    )


def rm_locate(view: CodeView, a: ProductSet, pts: Sequence[Point]) -> LocatorOutput:
    """Locator for the uniform low-degree-extension encoding of messages on a.

    Search runs the decision procedure at reduced degree over prefixes of the
    product set in depth-first order (factors in index order, elements in
    field-value order), and only when the whole product set is flagged;
    grid points inside the query set are systematic and included directly.
    |R| <= |I| always. A nonempty query set inside the product set, and one
    that is unconstrained with it at the reduced degree, is answered by
    ``systematic_locate``.
    """
    require_locator_view(view, a)
    pts = [pt for pt in dedup_points(pts)]
    for pt in pts:
        if len(pt) != view.m:
            raise ValueError(f"point {pt} is not full arity")
    if pts and all(a.contains(pt) for pt in pts):
        return systematic_locate(view, a, pts)
    return _searched_locate(view, a, pts)


def _searched_locate(view: CodeView, a: ProductSet, pts: list[Point]) -> LocatorOutput:
    """``rm_locate`` by search, on checked and deduplicated full-arity points."""
    dprime = tuple(d - (len(f) - 1) for d, f in zip(view.dv, a.factors))
    dview = CodeView(view.field, view.m, dprime)
    # Asked first, since most layers pass it: the zero-code question on the
    # points outside A is whether pts with A is constrained at d'.
    if not check_constraints(dview, pts, a):
        return systematic_locate(view, a, pts)
    # The interpolating set lives at the reduced degree: the search's
    # decision procedure runs there, and the per-level accounting needs the
    # set to be unconstrained at that degree (at the full degree it may
    # still carry reduced-degree constraints, which would flood the search).
    iprime = interpolating_set(dview, pts)
    flagged_per_level = [0] * max(view.m, 1)

    def search(prefix: Point, level: int) -> list[Point]:
        if level == view.m:
            return [prefix]
        found: list[Point] = []
        for s_val in a.factors[level]:
            grid = ProductSet(
                tuple((c,) for c in prefix)
                + ((s_val,),)
                + a.factors[level + 1 :]
            )
            if check_constraints(dview, iprime, grid):
                flagged_per_level[level] += 1
                found.extend(search(prefix + (s_val,), level + 1))
        return found

    # Constraints are monotone in the grid: when the whole product set is
    # unconstrained, so is every subgrid, and the search would flag nothing.
    # require_locator_view gives d'_i >= |A_i| - 1, which the test needs.
    # An interpolating set that is all of pts was tested above, and flagged.
    root = len(iprime) == len(pts) or check_constraints(dview, iprime, a)
    r_list = search((), 0) if root else []
    for pt in pts:
        if a.contains(pt) and pt not in r_list:
            r_list.append(pt)

    dom = sort_points(set(pts) | set(r_list))
    basis = cd_rm(view, dom)
    z = copy_rows(r_list, pts, view.p)
    if len(basis.z):
        # each detector coefficient at x sits on x's query column when x is
        # queried, else on its message column; the copy rows follow
        col = {q: j for j, q in enumerate(r_list)}
        col.update((q, len(r_list) + j) for j, q in enumerate(pts))
        lifted = np.zeros((len(basis.z), z.shape[1]), dtype=np.int64)
        lifted[:, [col[q] for q in basis.domain]] = basis.z
        z = np.vstack([lifted, z])
    return LocatorOutput(
        r=tuple(r_list),
        queries=tuple(pts),
        z=z,
        meta={"interpolating_set": iprime, "flagged_per_level": flagged_per_level},
    )
