"""Exact linear algebra over GF(p) on dense int64 numpy arrays.

Matrices are plain 2-D arrays with entries in [0, p); row/column key lists
are carried separately by the callers that need named domains. The RREF here
is the unique Gauss-Jordan normal form for the given column order, which is
what makes kernel bases, interpolating sets and projections reproducible.

Arithmetic is plain int64 with a reduction after every product, so a product
of two entries stays below p**2 and an inner product over n entries below
n * p**2. That is exact for every modulus up to ``field.MAX_MODULUS`` (2**17),
which ``Field`` and ``SumcheckParams`` enforce; larger moduli overflow
silently and are refused there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        # clear the pivot column in every other row with one rank-1 update
        f = m[:, c].copy()
        f[r] = 0
        m -= f[:, None] * m[r]
        m %= p
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
    """Basis (as rows) of the dual of the column span of M."""
    m = as_matrix(m, p)
    if m.shape[1] == 0:
        # the domain is trivial, so the image is {0} and the dual is everything
        return np.eye(m.shape[0], dtype=np.int64)
    return kernel_basis(m.T, p)


@dataclass(frozen=True)
class AffineSystem:
    """The solution set {x : A x = b} over GF(p); empty or a coset of ker(A)."""

    a: np.ndarray
    b: np.ndarray
    p: int

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a, self.p))
        object.__setattr__(
            self, "b", np.asarray(self.b, dtype=np.int64).reshape(-1) % self.p
        )
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError("row count of A must match length of b")

    def _reduced(self) -> tuple[np.ndarray, list[int], np.ndarray, bool]:
        aug = np.concatenate([self.a, self.b[:, None]], axis=1)
        m, pivots = rref(aug, self.p)
        n = self.a.shape[1]
        if n in pivots:
            return m, pivots, np.zeros(0, dtype=np.int64), False
        x0 = np.zeros(n, dtype=np.int64)
        for r, c in enumerate(pivots):
            x0[c] = m[r, n]
        return m, pivots, x0, True

    def solve(self) -> Optional[np.ndarray]:
        """A particular solution, or None if the system is inconsistent."""
        _, _, x0, ok = self._reduced()
        return x0 if ok else None

    def kernel(self) -> np.ndarray:
        return kernel_basis(self.a, self.p)

    def dim(self) -> Optional[int]:
        if self.solve() is None:
            return None
        return self.a.shape[1] - rank(self.a, self.p)

    def sample(self, rng) -> Optional[np.ndarray]:
        """Uniform solution: free variables drawn i.i.d., then back-substituted."""
        m, pivots, x0, ok = self._reduced()
        if not ok:
            return None
        n = self.a.shape[1]
        free = [c for c in range(n) if c not in pivots]
        x = np.zeros(n, dtype=np.int64)
        fld = Field(self.p)
        for f in free:
            x[f] = fld.sample(rng)
        for r, c in enumerate(pivots):
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


def sample_affine(a, b, p: int, rng) -> Optional[np.ndarray]:
    """Uniformly random solution of A x = b, or None if inconsistent."""
    return AffineSystem(a, b, p).sample(rng)


def spans_equal(a_rows, b_rows, p: int) -> bool:
    a_rows = np.asarray(a_rows, dtype=np.int64) % p
    b_rows = np.asarray(b_rows, dtype=np.int64) % p
    if a_rows.size == 0 and b_rows.size == 0:
        return True
    n = a_rows.shape[1] if a_rows.size else b_rows.shape[1]
    a_rows = a_rows.reshape(-1, n)
    b_rows = b_rows.reshape(-1, n)
    ra = rank(a_rows, p)
    rb = rank(b_rows, p)
    if ra != rb:
        return False
    return rank(np.vstack([a_rows, b_rows]), p) == ra
