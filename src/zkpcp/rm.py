"""Reed-Muller code views and exact constraint detectors.

The detectors work by explicit linear algebra over the full monomial basis
(dimension prod(d_i + 1)), which is exponential in the arity but exact; at
the scales this library targets (m <= 4, small d) that is cheap. Degree
vectors may carry negative entries, denoting the zero code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domains import Point, ProductSet, dedup_points
from .field import Field
from .linalg import image_dual_basis, kernel_basis
from .poly import (
    eval_monomial,
    eval_univariate,
    monomial_exponents,
    univariate_from_roots,
)


@dataclass(frozen=True)
class CodeView:
    """An individual-degree Reed-Muller code, optionally with a zero-set marker."""

    field: Field
    m: int
    dv: tuple[int, ...]
    zero_on: Optional[ProductSet] = None

    def __post_init__(self):
        if len(self.dv) != self.m:
            raise ValueError("degree vector length must equal arity")
        if self.zero_on is not None:
            if self.zero_on.m != self.m:
                raise ValueError("zero-set arity mismatch")
            for d, f in zip(self.dv, self.zero_on.factors):
                if d < len(f) - 1:
                    raise ValueError(
                        "need d_i >= |S_i| - 1 for the zero-code detector"
                    )

    @property
    def p(self) -> int:
        return self.field.p

    def with_degrees(self, dv: Sequence[int]) -> "CodeView":
        return CodeView(self.field, self.m, tuple(dv), None)


@dataclass(frozen=True)
class ConstraintBasis:
    """Rows of z span the dual of the code restricted to ``domain``."""

    domain: tuple[Point, ...]
    z: np.ndarray

    @property
    def num_constraints(self) -> int:
        return self.z.shape[0]

    def is_empty(self) -> bool:
        return self.z.shape[0] == 0


def rm_generator(view: CodeView, pts: Sequence[Point]) -> np.ndarray:
    """Evaluation matrix: one row per point, one column per monomial.

    The column span is the code restricted to the points. Degree vectors
    with a negative entry have no monomials, so the matrix has 0 columns.
    """
    pts = list(pts)
    for pt in pts:
        if len(pt) != view.m:
            raise ValueError(f"point {pt} has arity != {view.m}")
    exps = list(monomial_exponents(view.dv))
    g = np.zeros((len(pts), len(exps)), dtype=np.int64)
    for j, exp in enumerate(exps):
        for i, pt in enumerate(pts):
            g[i, j] = eval_monomial(exp, pt, view.p)
    return g


def cd_rm(view: CodeView, pts: Sequence[Point]) -> ConstraintBasis:
    """Constraint detector for the plain code: a basis of dual(code|_pts).

    Duplicate points are removed first; the returned domain preserves the
    caller's order.
    """
    dom = tuple(dedup_points(pts))
    g = rm_generator(view, dom)
    z = kernel_basis(g.T, view.p)
    return ConstraintBasis(dom, z)


def cd_zero_rm(view: CodeView, pts: Sequence[Point]) -> ConstraintBasis:
    """Constraint detector for the subcode vanishing on the marked product set.

    Per-axis reduced-degree detectors are stacked block-diagonally; a kernel
    basis of the stack is pushed through the vanishing-polynomial weights to
    produce a generator matrix for the zero code's restriction, whose column
    span is then dualised.
    """
    if view.zero_on is None:
        raise ValueError("view has no zero-set marker; use cd_rm")
    s = view.zero_on
    p = view.p
    dom = tuple(dedup_points(pts))
    n = len(dom)
    if n == 0:
        return ConstraintBasis(dom, np.zeros((0, 0), dtype=np.int64))

    blocks = []
    for i in range(view.m):
        dv_i = tuple(
            d - len(s.factors[i]) if j == i else d for j, d in enumerate(view.dv)
        )
        blocks.append(cd_rm(view.with_degrees(dv_i), dom).z)

    total_rows = sum(b.shape[0] for b in blocks)
    zprime = np.zeros((total_rows, view.m * n), dtype=np.int64)
    r = 0
    for i, b in enumerate(blocks):
        zprime[r : r + b.shape[0], i * n : (i + 1) * n] = b
        r += b.shape[0]

    basis = kernel_basis(zprime, p)  # rows live on [m] x dom

    a_mat = np.zeros((view.m * n, n), dtype=np.int64)
    for i in range(view.m):
        zs = univariate_from_roots(s.factors[i], p)
        for j, pt in enumerate(dom):
            a_mat[i * n + j, j] = eval_univariate(zs, pt[i], p)

    g = (basis @ a_mat).T % p  # n x k generator of the restricted zero code
    h = image_dual_basis(g, np.zeros((0, g.shape[1]), dtype=np.int64), p)
    return ConstraintBasis(dom, h)


def code_restriction_basis(view: CodeView, pts: Sequence[Point]) -> np.ndarray:
    """Rows span code|_pts (zero-on marker honoured); brute-force companion."""
    dom = tuple(dedup_points(pts))
    if view.zero_on is None:
        g = rm_generator(view, dom)
        return _col_span_rows(g, view.p)
    # Zero code: restrict the coefficient space to kernel of cube evaluation.
    full = rm_generator(CodeView(view.field, view.m, view.dv), dom)
    cube_pts = list(view.zero_on.points())
    cube_eval = rm_generator(CodeView(view.field, view.m, view.dv), cube_pts)
    coeff_basis = kernel_basis(cube_eval, view.p)
    rows = (coeff_basis @ full.T) % view.p
    return _col_span_rows(rows.T, view.p)


def _col_span_rows(g: np.ndarray, p: int) -> np.ndarray:
    from .linalg import rref

    r, piv = rref(g.T, p)
    return r[: len(piv)]
