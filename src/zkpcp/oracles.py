"""Independent brute-force and affine-image oracles.

Everything here recomputes answers from definitions (coefficient
enumeration, restriction subspaces, explicit linear maps from the prover's
randomness), never through the locators or the simulator, so it can serve
as the reference side of equivalence tests.
"""
from __future__ import annotations

import numpy as np

from functools import lru_cache

from .domains import Point, ProductSet, rev_point
from .linalg import AffineSystem, spans_equal
from .poly import monomial_exponents
from .rm import CodeView, rm_generator


@lru_cache(maxsize=4)
def _digit_matrix(p: int, k: int) -> np.ndarray:
    """All base-p digit columns of length k, cached across oracle calls."""
    total = p**k
    digits = np.empty((k, total), dtype=np.int64)
    reps = 1
    for j in range(k):
        pattern = np.repeat(np.arange(p, dtype=np.int64), reps)
        digits[j] = np.tile(pattern, total // (reps * p))
        reps *= p
    return digits


@lru_cache(maxsize=2)
def _digit_matrix_f64(p: int, k: int) -> np.ndarray:
    return _digit_matrix(p, k).astype(np.float64)


def packed_attainable_set(view: CodeView, a: ProductSet, pts: list[Point]) -> np.ndarray:
    """All attainable (message on the grid, answers on pts) pairs, packed.

    Enumerates every coefficient vector of the code (p^k of them, vectorised)
    and buckets each polynomial by its restriction to grid + pts; the pair is
    encoded base p into one int64 per polynomial. Exact, and independent of
    the locator path.
    """
    p = view.p
    cube = list(a.points())
    coords = cube + list(pts)
    if p ** len(coords) > 2**62:
        raise ValueError("too many coordinates to pack")
    e = rm_generator(view, coords)  # (len(coords), k)
    k = e.shape[1]
    total = p**k
    if total > 80_000_000:
        raise ValueError("coefficient space too large to enumerate")
    if k * (p - 1) * (p - 1) >= 2**50:
        raise ValueError("entries too large for exact float64 accumulation")
    vals = (e.astype(np.float64) @ _digit_matrix_f64(p, k)) % p
    if p ** len(coords) < 2**53:
        # pack base p while still in float64; sums stay exactly representable
        weights = (p ** np.arange(len(coords))).astype(np.float64)
        packed = (weights @ vals).astype(np.int64)
    else:
        weights = p ** np.arange(len(coords), dtype=np.int64)
        packed = weights @ vals.astype(np.int64)
    seen = np.zeros(p ** len(coords), dtype=bool)
    seen[packed] = True
    return np.flatnonzero(seen)


def pack_assignment(values: list[int], p: int) -> int:
    acc = 0
    for i, v in enumerate(values):
        acc += (v % p) * p**i
    return acc


def affine_sets_equal(off_a, rows_a, off_b, rows_b, p: int) -> bool:
    """Whether off_a + rowspan(rows_a) equals off_b + rowspan(rows_b): the
    spans are equal and off_a - off_b lies in them (rows_a^T y = off_a - off_b
    is consistent)."""
    rows_a = np.asarray(rows_a, dtype=np.int64)
    diff = np.asarray(off_a, dtype=np.int64) - np.asarray(off_b, dtype=np.int64)
    return spans_equal(rows_a, rows_b, p) and AffineSystem(rows_a.T, diff, p).consistent


def antisym_basis(a: ProductSet, p: int) -> list[dict[Point, int]]:
    """Basis of the antisymmetric function space on the cube.

    Odd characteristic: one vector e_x - e_{rev x} per non-palindromic pair
    (palindromic coordinates are forced to zero). Characteristic 2: the
    condition degenerates to symmetry, so palindromic unit vectors join the
    pair sums.
    """
    if not a.is_reversal_symmetric():
        raise ValueError("product set must be reversal-symmetric")
    basis = []
    seen = set()
    for x in a.points():
        rx = rev_point(x)
        if x in seen or rx in seen:
            continue
        seen.add(x)
        if rx == x:
            if p == 2:
                basis.append({x: 1})
            continue
        seen.add(rx)
        basis.append({x: 1, rx: (-1) % p})
    return basis


def attainable_answers_antisym(
    a: ProductSet, p: int, msg: dict[Point, int], pts: list[Point]
) -> tuple[np.ndarray, np.ndarray]:
    """(offset, rows) of {sum-word of msg|cube + G restricted to pts} over
    antisymmetric G. msg maps cube points and () to field values."""
    off = np.array(
        [_sum_word_value(msg, a, pt) for pt in pts], dtype=np.int64
    )
    rows = []
    for vec in antisym_basis(a, p):
        rows.append([_sum_word_value(vec, a, pt, default=0) for pt in pts])
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(pts)) % p
    return off % p, rows


def _sum_word_value(values: dict[Point, int], a: ProductSet, pt: Point, default=None) -> int:
    total = 0
    for x in a.cube_of(pt):
        if default is None:
            total += values[x]
        else:
            total += values.get(x, default)
    return total


def sigma_code_rows(
    view: CodeView, a: ProductSet, pts: list[Point], zero_on_cube: bool
) -> np.ndarray:
    """Rows spanning {sum word of P restricted to pts}, from definitions.

    P ranges over the view's polynomials, optionally restricted to vanish on
    the cube; each coefficient-space basis element is pushed through the
    trusted subcube-sum oracle.
    """
    from .linalg import kernel_basis
    from .poly import MultiPoly, subcube_sum

    p = view.p
    exps = list(monomial_exponents(view.dv))
    shape = tuple(d + 1 for d in view.dv)
    if zero_on_cube:
        cube_pts = list(a.points())
        e = rm_generator(view, cube_pts)
        coeff_rows = kernel_basis(e, p)
    else:
        coeff_rows = np.eye(len(exps), dtype=np.int64)
    rows = []
    for c in coeff_rows:
        arr = np.zeros(shape, dtype=np.int64)
        for exp, v in zip(exps, c):
            arr[exp] = v
        poly = MultiPoly(p, arr)
        rows.append([subcube_sum(poly, a, pt) for pt in pts])
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(pts))


def sigma_brute_dual(
    view: CodeView, a: ProductSet, pts: list[Point], zero_on_cube: bool
) -> np.ndarray:
    """Dual basis of the (optionally zero-on-cube) sum code restricted to pts."""
    from .linalg import kernel_basis

    rows = sigma_code_rows(view, a, pts, zero_on_cube)
    if rows.shape[0] == 0:
        return np.eye(len(pts), dtype=np.int64)
    return kernel_basis(rows, view.p)


def attainable_answers_sigma(
    view: CodeView, a: ProductSet, msg: dict[Point, int], pts: list[Point]
) -> tuple[np.ndarray, np.ndarray]:
    """(offset, rows) of {sum word of LDE(msg) on pts} for a fixed cube msg.

    The coset is one concrete extension's sum word plus the sum-word image of
    the cube-vanishing code.
    """
    from .poly import embed, interpolate, subcube_sum

    p = view.p
    base = embed(interpolate(msg, a, p), view.dv, p)
    off = np.array([subcube_sum(base, a, pt) for pt in pts], dtype=np.int64)
    rows = sigma_code_rows(view, a, pts, zero_on_cube=True)
    return off, rows

