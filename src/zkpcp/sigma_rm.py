"""Constraint location for subcube sums of random low-degree extensions.

The sum-code word of a polynomial carries, for every prefix point of
F^{<=m}, the sum of the polynomial over the matching suffix subcube. Its
dual over a cube-closed set decomposes into per-arity Reed-Muller duals
plus parent-equals-sum-of-children rows; the locator builds exactly that
decomposition and projects out the auxiliary closure points.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .domains import Point, ProductSet, a_closure, dedup_points, starred
from .linalg import project_constraints
from .rm import CodeView
from .rm_locator import LocatorOutput, copy_rows, require_locator_view, rm_locate


def summation_rows(
    pts: Iterable[Point], a: ProductSet, col: dict[Point, int], width: int, p: int
) -> list[np.ndarray]:
    """Parent-minus-children rows for every starred point of the set, over
    ``width`` columns with each point's column given by ``col``."""
    rows = []
    for pt in starred(pts, a):
        row = np.zeros(width, dtype=np.int64)
        row[col[pt]] = 1
        row[[col[pt + (v,)] for v in a.factors[len(pt)]]] = p - 1
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

    ``rm_locate`` answers a layer inside the product set systematically,
    with no search.
    ``located``, when given, is a caller-owned map from (arity, layer) to the
    plain locator's output on that layer. A layer already in it is not
    located again, and each new one is added. The output is a pure function
    of (view, a, layer), so the map is valid for every call with the same
    view and product set.
    """
    require_locator_view(view, a)
    p = view.p
    queries = dedup_points(pts)
    ihat = a_closure(queries, a)
    located = {} if located is None else located

    per_arity: list[LocatorOutput] = []
    r_all: list[Point] = []
    for i in range(view.m + 1):
        layer = [q for q in ihat if len(q) == i]
        if not layer:
            continue
        key = (i, tuple(layer))
        if key not in located:
            located[key] = rm_locate(CodeView(view.field, i, view.dv[:i]), a.prefix(i), layer)
        loc = located[key]
        per_arity.append(loc)
        r_all.extend(loc.r)

    rhat = a_closure(r_all, a)
    nr = len(rhat)
    # columns [R-hat | I-hat]; a point in both is designated by its query
    # column everywhere but in its copy row
    rcol = {q: j for j, q in enumerate(rhat)}
    icol = {q: nr + j for j, q in enumerate(ihat)}
    width = nr + len(ihat)

    lifted = []
    for loc in per_arity:
        block = np.zeros((len(loc.z), width), dtype=np.int64)
        block[:, [rcol[q] for q in loc.r] + [icol[q] for q in loc.queries]] = loc.z
        lifted.append(block)
    col = {**rcol, **icol}
    sums = summation_rows(set(rhat) | set(ihat), a, col, width, p)
    z = np.vstack(lifted + sums + [copy_rows(rhat, ihat, p)])

    # project in I-hat's order, then put the queries back in input order
    qcol = [icol[q] for q in queries]
    kept = sorted(qcol)
    z = project_constraints(z, list(range(nr)) + kept, p)
    pos = {c: nr + k for k, c in enumerate(kept)}
    return LocatorOutput(
        r=tuple(rhat),
        queries=tuple(queries),
        z=z[:, list(range(nr)) + [pos[c] for c in qcol]],
        meta={"ihat": ihat},
    )
