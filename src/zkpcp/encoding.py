"""Locally simulatable encodings: locator-driven conditional sampling.

An encoding spec bundles a constraint locator with a message oracle. A
session answers queries one at a time, each answer drawn from the exact
conditional distribution of the encoding given everything answered so far:
forced when some located constraint pins it, uniform otherwise. The proof
simulator draws through the same sampler, ``linalg.sample_affine``, and the
symbolic audit accumulates the same rows instead of sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .antisym import antisym_locate
from .domains import Point, ProductSet, dedup_points, hypercube
from .field import Field
from .linalg import project_constraints, sample_affine
from .rm import CodeView
from .rm_locator import LocatorOutput, copy_rows
from .sigma_rm import sigma_rm_locate


class InconsistentQueryAnswers(Exception):
    """The recorded query-answer set is not consistent with any codeword."""


@dataclass(frozen=True)
class EncodingSpec:
    """A linear randomised encoding with an attached constraint locator."""

    fld: Field
    locator: Callable[[Sequence[Point]], LocatorOutput]
    message_oracle: Optional[Callable[[Point], int]] = None

    @property
    def p(self) -> int:
        return self.fld.p


def constraint_rows_for(
    spec: EncodingSpec, pts: Sequence[Point]
) -> tuple[np.ndarray, np.ndarray, tuple[Point, ...]]:
    """Locator rows for pts with message values substituted in.

    Returns (A, b, message positions read): answers x at pts, which must be
    distinct, in the given order, are attainable exactly when A x = b mod p.
    Rows that vanish along with their rhs are dropped.
    """
    if spec.message_oracle is None:
        raise ValueError("spec has no message oracle bound")
    loc = spec.locator(pts)
    if loc.queries != tuple(pts):
        raise ValueError("query points must be distinct")
    p, nr = spec.p, len(loc.r)
    m_vals = np.array([spec.message_oracle(q) % p for q in loc.r], dtype=np.int64)
    b = (-(loc.z[:, :nr] @ m_vals)) % p
    a = loc.z[:, nr:] % p
    keep = a.any(axis=1) | (b != 0)
    return a[keep], b[keep], loc.r


class SimSession:
    """Stateful per-verifier simulator session for one encoding.

    The caller owns the session; answers are cached so repeated queries are
    consistent by construction. Inconsistent caller-supplied state raises
    InconsistentQueryAnswers.
    """

    def __init__(self, spec: EncodingSpec, rng):
        self.spec = spec
        self.rng = rng
        self.answers: dict[Point, int] = {}
        self.messages_read: set[Point] = set()

    def query(self, alpha: Point) -> int:
        alpha = tuple(int(c) for c in alpha)
        if alpha in self.answers:
            return self.answers[alpha]
        a, b, reads = constraint_rows_for(self.spec, list(self.answers) + [alpha])
        self.messages_read.update(reads)
        sol = sample_affine(a, b, list(self.answers.values()), self.spec.p, self.rng)
        if sol is None:
            raise InconsistentQueryAnswers(
                f"recorded answers admit no value at {alpha}"
            )
        self.answers[alpha] = int(sol[0])
        return self.answers[alpha]


def identity_spec(fld: Field) -> EncodingSpec:
    """The encoding that copies its message; locator ties each query to the
    same message position."""

    def locate(pts: Sequence[Point]) -> LocatorOutput:
        queries = tuple(dedup_points(pts))
        return LocatorOutput(r=queries, queries=queries, z=copy_rows(queries, queries, fld.p))

    return EncodingSpec(fld, locate)


def compose(inner: EncodingSpec, outer: EncodingSpec) -> EncodingSpec:
    """Locator composition: locate the outer queries, then locate the outer
    message positions against the inner encoding, stack, and eliminate the
    intermediate layer.

    Over the columns (inner R | middle layer | outer queries) the stacked
    rows are the block matrix [[0, Zo_R, Zo_I], [Zi_R, Zi_I, 0]]. This
    relies on every locator returning its queries deduplicated in input
    order, so the inner queries are the outer R column for column.
    """
    if inner.p != outer.p:
        raise ValueError("field mismatch between encodings")
    p = inner.p

    def locate(pts: Sequence[Point]) -> LocatorOutput:
        out_loc = outer.locator(pts)
        in_loc = inner.locator(out_loc.r)
        if in_loc.queries != out_loc.r:
            raise ValueError("inner locator must keep the outer R in order")
        ni, nm, no = len(in_loc.r), len(out_loc.r), len(out_loc.z)
        z = np.zeros((no + len(in_loc.z), ni + out_loc.z.shape[1]), dtype=np.int64)
        z[:no, ni:] = out_loc.z
        z[no:, : ni + nm] = in_loc.z
        return LocatorOutput(
            r=in_loc.r,
            queries=out_loc.queries,
            z=project_constraints(z, list(range(ni)) + list(range(ni + nm, z.shape[1])), p),
        )

    return EncodingSpec(inner.fld, locate, inner.message_oracle)


def antisym_spec(
    fld: Field, a: ProductSet, message_oracle: Callable[[Point], int]
) -> EncodingSpec:
    """The antisymmetric masking encoding. The spec caches each query
    tuple's located output, so a repeated query set is located once over
    the spec's lifetime."""
    located = cache(lambda key: antisym_locate(fld, a, key))
    return EncodingSpec(fld, lambda pts: located(tuple(map(tuple, pts))), message_oracle)


def enc_pcp_spec(
    fld: Field,
    m: int,
    d: int,
    h: Sequence[int],
    f_eval: Callable[[Point], int],
    gamma: int,
) -> EncodingSpec:
    """The composed proof-word encoding: antisymmetric masking inside, random
    low-degree extension with subcube sums outside.

    The message oracle answers cube points from the instance polynomial and
    the empty point with the claimed total.
    """
    a = hypercube(h, m)
    if d < 2 * (len(a.factors[0]) - 1):
        raise ValueError("need d >= 2(|H| - 1)")
    if fld.p == 2:
        raise ValueError("antisym locator requires odd characteristic")

    def message(q: Point) -> int:
        if q == ():
            return gamma % fld.p
        return f_eval(q) % fld.p

    inner = antisym_spec(fld, a, message)
    # the outer spec owns one map of located layers (see ``sigma_rm_locate``),
    # so each layer is located once over its lifetime
    view, located = CodeView(fld, m, (d,) * m), {}
    outer = EncodingSpec(fld, lambda pts: sigma_rm_locate(view, a, pts, located))
    return compose(inner, outer)
