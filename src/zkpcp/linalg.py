"""Exact linear algebra over GF(p) on dense int64 numpy arrays.

Matrices are plain 2-D arrays with entries in [0, p); row/column key lists
are carried separately by the callers that need named domains. The RREF here
is the unique Gauss-Jordan normal form for the given column order, which is
what makes kernel bases, interpolating sets and projections reproducible.

Arithmetic is plain int64 with a reduction after every product, so a product
of two entries stays below p**2 and an inner product over n entries below
n * p**2. That is exact for every modulus up to ``field.MAX_MODULUS`` (2**17),
which ``Field`` enforces; larger moduli overflow silently and are refused
there.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .field import Field


def as_matrix(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    return m


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` over GF(p).

    Returns (R, pivots) where pivots lists the leading-entry columns in
    order. Columns not listed are the free columns.
    """
    m = as_matrix(a, p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        row = m[pr] * pow(m.item(pr, c), -1, p)
        row %= p
        if pr != r:
            m[pr] = m[r]
        # clear the pivot column with one rank-1 update, then overwrite row
        # r's update with the scaled pivot row
        m -= np.multiply.outer(m[:, c], row)
        m %= p
        m[r] = row
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def kernel_basis(a, p: int) -> np.ndarray:
    """Rows form a basis of ker(a) = {x : a x = 0}, in reduced echelon form.

    A zero-row matrix indicates a trivial kernel; a (k, n) result has k
    independent rows, and it is the unique RREF of ker(a) under the given
    column order, as a fresh C-contiguous array.

    One elimination suffices, by matroid duality: the pivot columns of a's
    RREF with its columns reversed form the latest basis of a's column
    matroid, and the complement of that is the earliest basis of the dual
    matroid, i.e. the pivot columns of the kernel's RREF. Back-substitution
    in the reversed order puts each free column's 1 to the right of its
    row's other entries, so flipping rows and columns back leaves every row
    led by its own free column with zeros under the other leads: already the
    reduced form, with no second reduction.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    m, pivots = rref(a[:, ::-1], p)
    cols = m.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = (-m[: len(pivots), free].T) % p
    return np.ascontiguousarray(basis[::-1, ::-1])


def project_constraints(rows, keep, p: int) -> np.ndarray:
    """Basis of the constraints on the ``keep`` columns implied by ``rows``.

    This is the dual of the projection of ker(rows) onto the kept columns,
    in the order ``keep`` lists them (distinct indices), as its unique
    reduced echelon basis: ``kernel_basis(kernel_basis(rows)[:, keep])``.

    One elimination suffices. The dual of the projection is the row space of
    ``rows`` meeting the vectors that vanish off ``keep``. With the dropped
    columns moved first, the reduced rows whose pivot lies in the kept block
    are zero on every dropped column and span that intersection, since a
    combination using any other row is nonzero at that row's pivot. Those
    rows, restricted to the kept columns, are already in reduced form.
    """
    rows = np.asarray(rows, dtype=np.int64)
    kept = set(keep)
    dropped = [c for c in range(rows.shape[1]) if c not in kept]
    m, pivots = rref(rows[:, dropped + list(keep)], p)
    first = sum(c < len(dropped) for c in pivots)
    return np.ascontiguousarray(m[first : len(pivots), len(dropped) :])


def image_dual_basis(m, p: int) -> np.ndarray:
    """Basis (as rows) of the dual of the column span of M: the identity
    when M has no columns."""
    return kernel_basis(np.asarray(m, dtype=np.int64).T, p)


class AffineSystem:
    """The solution set {x : A x = b} over GF(p); empty or a coset of ker(A).

    The system is reduced once, at construction: ``rows`` holds the nonzero
    rows of the reduced row echelon form of [A | b], read-only, and
    ``pivots`` their leading columns. Every query reads that stored form, so
    no method eliminates again except ``kernel``, whose reduced basis uses
    another column order. The RREF is unique, so two consistent systems over
    the same columns with the same solution set have equal ``rows``.
    """

    def __init__(self, a, b, p: int):
        a = as_matrix(a, p)
        b = np.asarray(b, dtype=np.int64).reshape(-1) % p
        if a.shape[0] != b.shape[0]:
            raise ValueError("row count of A must match length of b")
        m, pivots = rref(np.column_stack([a, b]), p)
        self.p, self.n = p, a.shape[1]
        self.pivots = tuple(pivots)
        self.rows = m[: len(pivots)]
        self.rows.flags.writeable = False

    @property
    def consistent(self) -> bool:
        """Whether some x solves A x = b: no pivot lies in the b column."""
        return self.n not in self.pivots

    def solve(self) -> Optional[np.ndarray]:
        """A particular solution (free columns 0), or None if inconsistent."""
        if not self.consistent:
            return None
        x0 = np.zeros(self.n, dtype=np.int64)
        x0[list(self.pivots)] = self.rows[:, self.n]
        return x0

    def contains(self, x) -> bool:
        """Whether A x = b."""
        x = np.asarray(x, dtype=np.int64) % self.p
        return not np.any((self.rows[:, : self.n] @ x - self.rows[:, self.n]) % self.p)

    def kernel(self) -> np.ndarray:
        return kernel_basis(self.rows[:, : self.n], self.p)

    def dim(self) -> Optional[int]:
        return self.n - len(self.pivots) if self.consistent else None

    def sample(self, rng) -> Optional[np.ndarray]:
        """Uniform solution: free variables drawn i.i.d. in ascending column
        order, one ``Field.sample`` each, then back-substituted."""
        if not self.consistent:
            return None
        n, m = self.n, self.rows
        pivot_set = set(self.pivots)
        x = np.zeros(n, dtype=np.int64)
        fld = Field(self.p)
        for f in range(n):
            if f not in pivot_set:
                x[f] = fld.sample(rng)
        for r, c in enumerate(self.pivots):
            x[c] = (m[r, n] - int(m[r, :n] @ x) + m[r, c] * x[c]) % self.p
        return x

    def enumerate(self) -> Iterator[np.ndarray]:
        """All solutions, exactly; intended for desk-scale audits only."""
        x0 = self.solve()
        if x0 is None:
            return
        basis = self.kernel()
        k = basis.shape[0]
        if k == 0:
            yield x0
            return
        coeffs = np.zeros(k, dtype=np.int64)
        while True:
            yield (x0 + coeffs @ basis) % self.p
            i = 0
            while i < k:
                coeffs[i] += 1
                if coeffs[i] < self.p:
                    break
                coeffs[i] = 0
                i += 1
            else:
                return


def sample_affine(a, b, known: Sequence[int], p: int, rng) -> Optional[np.ndarray]:
    """Uniform draw of the trailing columns of A x = b, the leading ones known.

    The first ``len(known)`` columns hold answered values; they are
    substituted and the rest are drawn uniformly from the remaining
    solutions. Returns the drawn values in column order, or None if the rows
    admit none. Forced columns consume no randomness; each free one is drawn
    like ``Field.sample``, in ascending column order.
    """
    a = as_matrix(a, p)
    k = len(known)
    rhs = np.asarray(b, dtype=np.int64) - a[:, :k] @ np.asarray(known, dtype=np.int64)
    return AffineSystem(a[:, k:], rhs, p).sample(rng)


def coset_system(off, rows, p: int) -> AffineSystem:
    """off + rowspan(rows) as the solution set of H x = H off, with H a
    basis of the dual of the row span; ``rows`` is 2-D, one column per
    entry of ``off``."""
    h = kernel_basis(rows, p)
    return AffineSystem(h, h @ (np.asarray(off, dtype=np.int64) % p), p)


def spans_equal(a_rows, b_rows, p: int) -> bool:
    """Whether two row sets span the same space. Equal spans have the same
    reduced echelon basis, so the two RREFs are compared directly."""
    a_rows = np.asarray(a_rows, dtype=np.int64)
    b_rows = np.asarray(b_rows, dtype=np.int64)
    if a_rows.size == 0 and b_rows.size == 0:
        return True
    n = a_rows.shape[1] if a_rows.size else b_rows.shape[1]
    ra, pa = rref(a_rows.reshape(-1, n), p)
    rb, pb = rref(b_rows.reshape(-1, n), p)
    return pa == pb and np.array_equal(ra[: len(pa)], rb[: len(pb)])
