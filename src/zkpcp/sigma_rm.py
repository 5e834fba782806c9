"""Constraint location for subcube sums of random low-degree extensions.

The sum-code word of a polynomial carries, for every prefix point of
F^{<=m}, the sum of the polynomial over the matching suffix subcube. Its
dual over a cube-closed set decomposes into per-arity Reed-Muller duals
plus parent-equals-sum-of-children rows; the locator builds exactly that
decomposition and projects out the auxiliary closure points.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .domains import Point, ProductSet, a_closure, dedup_points, sort_points
from .linalg import project_constraints
from .poly import eval_univariate, lagrange_univariate
from .rm import CodeView
from .rm_locator import (
    ColKey,
    LocatorOutput,
    require_locator_view,
    rm_locate,
    systematic_locate,
)


def flatten(
    z: dict[Point, int],
    axis: int,
    anchor: int,
    domain: Sequence[Point],
    a: ProductSet,
    p: int,
) -> dict[Point, int]:
    """Fold the length-``axis`` layer of a constraint onto its parents.

    Parents in the starred part of the domain absorb the Lagrange-weighted
    children values; everything else passes through. ``axis`` is 1-based,
    ``anchor`` must lie in A_axis.
    """
    if anchor not in a.factors[axis - 1]:
        raise ValueError("anchor must belong to the folded factor")
    dom = set(domain)
    lag = lagrange_univariate(a.factors[axis - 1], anchor, p)
    out: dict[Point, int] = {}
    for s in sort_points(dom):
        if len(s) == axis:
            continue
        val = z.get(s, 0) % p
        if len(s) == axis - 1:
            children = [q for q in dom if len(q) == axis and q[:-1] == s]
            if children:
                for q in children:
                    val = (val + z.get(q, 0) * eval_univariate(lag, q[-1], p)) % p
        out[s] = val
    return out


def summation_rows(
    pts: Sequence[Point], a: ProductSet, designate, idx: dict[ColKey, int], p: int
) -> list[np.ndarray]:
    """Parent-minus-children rows for every starred point of the set."""
    s = set(pts)
    rows = []
    for pt in sort_points(s):
        if len(pt) >= a.m:
            continue
        kids = [pt + (v,) for v in a.factors[len(pt)]]
        if not any(k in s for k in kids):
            continue
        row = np.zeros(len(idx), dtype=np.int64)
        row[idx[designate(pt)]] = 1
        for k in kids:
            row[idx[designate(k)]] = (row[idx[designate(k)]] - 1) % p
        rows.append(row)
    return rows


def sigma_rm_locate(
    view: CodeView,
    a: ProductSet,
    pts: Sequence[Point],
    located: Optional[dict] = None,
) -> LocatorOutput:
    """Locator for the encoding that augments a random extension with all of
    its subcube sums over the product set.

    Closes the query set, runs the plain locator per arity (including arity
    zero, whose single coordinate is the systematic total sum), closes the
    union of message sets, ties the layers with summation rows, and projects
    the kernel onto message columns plus the original queries.

    A layer inside the product set is systematic and needs no search.
    ``located``, when given, is a caller-owned map from (arity, layer) to the
    plain locator's output on that layer. A layer already in it is not
    located again, and each new one is added. The output is a pure function
    of (view, a, layer), so the map is valid for every call with the same
    view and product set.
    """
    require_locator_view(view, a)
    p = view.p
    queries = dedup_points(pts)
    for pt in queries:
        if len(pt) > view.m:
            raise ValueError(f"point {pt} longer than arity {view.m}")
    ihat = a_closure(queries, a)
    iset = set(ihat)
    located = {} if located is None else located

    per_arity: list[LocatorOutput] = []
    r_all: list[Point] = []
    for i in range(view.m + 1):
        layer = [q for q in ihat if len(q) == i]
        if not layer:
            continue
        key = (i, tuple(layer))
        if key not in located:
            view_i, a_i = CodeView(view.field, i, view.dv[:i]), a.prefix(i)
            if all(a_i.contains(q) for q in layer):
                located[key] = systematic_locate(view_i, layer)
            else:
                located[key] = rm_locate(view_i, a_i, layer)
        loc = located[key]
        per_arity.append(loc)
        r_all.extend(loc.r)

    rhat = a_closure(r_all, a)
    rset = set(rhat)

    cols: list[ColKey] = [("m", q) for q in rhat] + [("c", q) for q in ihat]
    idx = {key: j for j, key in enumerate(cols)}

    def designate(q: Point) -> ColKey:
        return ("c", q) if q in iset else ("m", q)

    rows: list[np.ndarray] = []
    for loc in per_arity:
        for zrow in loc.z:
            row = np.zeros(len(cols), dtype=np.int64)
            for key, c in zip(loc.cols, zrow):
                if c:
                    kind, q = key
                    gkey = ("c", q) if kind == "c" else ("m", q)
                    row[idx[gkey]] = (row[idx[gkey]] + c) % p
            rows.append(row)
    rows.extend(summation_rows(sorted(rset | iset, key=lambda q: (len(q), q)), a, designate, idx, p))
    for q in rhat:
        if q in iset:
            row = np.zeros(len(cols), dtype=np.int64)
            row[idx[("m", q)]] = 1
            row[idx[("c", q)]] = (row[idx[("c", q)]] - 1) % p
            rows.append(row)

    z = np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))
    keep = [j for j, (kind, q) in enumerate(cols) if kind == "m" or q in set(queries)]
    kept_cols = [cols[j] for j in keep]
    ordered_cols = [c for c in kept_cols if c[0] == "m"] + [
        ("c", q) for q in queries
    ]
    perm = [kept_cols.index(c) for c in ordered_cols]
    return LocatorOutput(
        r=tuple(rhat),
        cols=tuple(ordered_cols),
        z=project_constraints(z, keep, p)[:, perm],
        meta={"per_arity": per_arity, "ihat": ihat},
    )
