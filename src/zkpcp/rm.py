"""Reed-Muller code views and exact constraint detectors.

The detectors work by explicit linear algebra over the full monomial basis
(dimension prod(d_i + 1)), which is exponential in the arity but exact; at
the scales this library targets (m <= 4, small d) that is cheap. Degree
vectors may carry negative entries, denoting the zero code.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

import numpy as np

from .domains import Point, ProductSet, dedup_points
from .field import Field
from .linalg import image_dual_basis, kernel_basis, rref
from .poly import univariate_from_roots, vandermonde


@dataclass(frozen=True)
class CodeView:
    """An individual-degree Reed-Muller code."""

    field: Field
    m: int
    dv: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"arity must be nonnegative, got m={self.m}")
        if len(self.dv) != self.m:
            raise ValueError("degree vector length must equal arity")

    @property
    def p(self) -> int:
        return self.field.p


@dataclass(frozen=True)
class ConstraintBasis:
    """Rows of z span the dual of the code restricted to ``domain``."""

    domain: tuple[Point, ...]
    z: np.ndarray

    def is_empty(self) -> bool:
        return self.z.shape[0] == 0


def rm_generator(view: CodeView, pts: Sequence[Point]) -> np.ndarray:
    """Evaluation matrix: one row per point, one column per monomial.

    The column span is the code restricted to the points. Degree vectors
    with a negative entry have no monomials, so the matrix has 0 columns.
    Each row is the Kronecker product of the point's per-axis power rows,
    first axis slowest, which is ``monomial_exponents`` order.
    """
    pts = list(pts)
    for pt in pts:
        if len(pt) != view.m:
            raise ValueError(f"point {pt} has arity != {view.m}")
    n, p = len(pts), view.p
    if any(d < 0 for d in view.dv):
        return np.zeros((n, 0), dtype=np.int64)
    x = _coords(pts, view)
    g = np.ones((n, 1), dtype=np.int64)
    for i, d in enumerate(view.dv):
        v = vandermonde(x[:, i], d, p)
        g = (g[:, :, None] * v[:, None, :]).reshape(n, g.shape[1] * (d + 1)) % p
    return g


def _coords(pts: Sequence[Point], view: CodeView) -> np.ndarray:
    """The points as an (n, m) array of canonical field elements."""
    return np.array(pts, dtype=np.int64).reshape(len(pts), view.m) % view.p


def cd_rm(view: CodeView, pts: Sequence[Point]) -> ConstraintBasis:
    """Constraint detector for the plain code: a basis of dual(code|_pts).

    Duplicate points are removed first; the returned domain preserves the
    caller's order.

    At most min(dv) + 1 distinct canonical points of the view's arity carry
    no constraint, so their basis is empty with no elimination: for each
    point x, the product over the other points y of one factor
    (X_i - y_i) / (x_i - y_i), on an axis where they differ, has individual
    degree at most |dom| - 1 <= d_i and is the indicator of x on dom.
    """
    dom = tuple(dedup_points(pts))
    if len(dom) <= min(view.dv, default=0) + 1 and all(
        len(pt) == view.m and all(0 <= c < view.p for c in pt) for pt in dom
    ):
        return ConstraintBasis(dom, np.zeros((0, len(dom)), dtype=np.int64))
    return ConstraintBasis(dom, image_dual_basis(rm_generator(view, dom), view.p))


def cd_zero_rm(view: CodeView, s: ProductSet, pts: Sequence[Point]) -> ConstraintBasis:
    """Constraint detector for the subcode vanishing on the product set s.

    By the combinatorial nullstellensatz, the polynomials of individual degree
    <= dv that vanish on S_1 x ... x S_m are exactly the sums
    sum_i Z_{S_i}(X_i) g_i, with g_i of degree d_i - |S_i| in X_i and d_j in
    the other variables. So the zero code restricted to the points is the
    column span of the stacked per-axis generators, each row weighted by
    Z_{S_i}(x_i), and that span is dualised. Each axis block is a subset of
    the columns of one full-degree generator: the monomials whose exponent
    in axis i is at most d_i - |S_i|, in the same monomial order.
    """
    if s.m != view.m:
        raise ValueError("zero-set arity mismatch")
    if any(d < len(f) - 1 for d, f in zip(view.dv, s.factors)):
        raise ValueError("need d_i >= |S_i| - 1 for the zero-code detector")
    p = view.p
    dom = tuple(dedup_points(pts))
    if not dom:
        return ConstraintBasis(dom, np.zeros((0, 0), dtype=np.int64))
    x = _coords(dom, view)
    full = rm_generator(view, dom)
    exps = _exponent_table(view.dv)
    blocks = [np.zeros((len(dom), 0), dtype=np.int64)]
    for i, s_i in enumerate(s.factors):
        z = vandermonde(x[:, i], len(s_i), p) @ univariate_from_roots(s_i, p) % p
        cols = exps[i] <= view.dv[i] - len(s_i)
        blocks.append(z[:, None] * full[:, cols] % p)
    g = np.concatenate(blocks, axis=1)
    h = image_dual_basis(g, p)
    return ConstraintBasis(dom, h)


@lru_cache(maxsize=64)
def _exponent_table(dv: tuple[int, ...]) -> np.ndarray:
    """Read-only m x prod(d_i + 1) table for dv >= 0: column j holds the
    exponents of ``rm_generator``'s monomial j."""
    t = np.indices([d + 1 for d in dv]).reshape(len(dv), prod(d + 1 for d in dv))
    t.flags.writeable = False
    return t


def code_restriction_basis(
    view: CodeView, pts: Sequence[Point], zero_on: Optional[ProductSet] = None
) -> np.ndarray:
    """Rows span code|_pts, or with ``zero_on`` the subcode vanishing on
    that product set; brute-force companion of the detectors."""
    # the generator's columns, one per monomial, as rows
    rows = rm_generator(view, tuple(dedup_points(pts))).T
    if zero_on is not None:
        # restrict the coefficient space to the kernel of cube evaluation
        ker = kernel_basis(rm_generator(view, list(zero_on.points())), view.p)
        rows = ker @ rows % view.p
    r, piv = rref(rows, view.p)
    return r[: len(piv)]
