"""Multivariate polynomials over GF(p) with per-variable degree bounds.

Coefficients are stored densely: an m-variate polynomial with degree vector
(d_1, ..., d_m) is an int64 array of shape (d_1+1, ..., d_m+1), axis i
indexing powers of X_i. m = 0 (a constant) is a 0-d array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .domains import Point, ProductSet
from .linalg import rref

DegreeVector = tuple[int, ...]


@dataclass(frozen=True)
class MultiPoly:
    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64) % self.p
        object.__setattr__(self, "coeffs", c)

    @property
    def m(self) -> int:
        return self.coeffs.ndim

    @property
    def degree_vector(self) -> DegreeVector:
        return tuple(s - 1 for s in self.coeffs.shape)

    def eval(self, x: Point) -> int:
        if len(x) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(x)}")
        p, c = self.p, self.coeffs
        for xi in reversed(x):
            # contract the last axis with the powers 1, xi, ..., xi^deg of its
            # coordinate: only deg + 1 of them, so nothing of size p is built
            xi, powers = int(xi) % p, [1]
            while len(powers) < c.shape[-1]:
                powers.append(powers[-1] * xi % p)
            c = c @ powers % p
        return int(c)

    def add(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, 1)

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self._combine(other, -1)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        if other.p != self.p or other.m != self.m:
            raise ValueError("incompatible polynomials")
        shape = tuple(
            max(a, b) for a, b in zip(self.coeffs.shape, other.coeffs.shape)
        )
        out = np.zeros(shape, dtype=np.int64)
        out[tuple(slice(0, s) for s in self.coeffs.shape)] += self.coeffs
        sl = tuple(slice(0, s) for s in other.coeffs.shape)
        out[sl] = (out[sl] + sign * other.coeffs) % self.p
        return MultiPoly(self.p, out)

    def scale(self, c: int) -> "MultiPoly":
        return MultiPoly(self.p, (self.coeffs * (c % self.p)) % self.p)

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        if other.p != self.p or other.m != self.m:
            raise ValueError("incompatible polynomials")
        shape = tuple(
            a + b - 1 for a, b in zip(self.coeffs.shape, other.coeffs.shape)
        )
        out = np.zeros(shape, dtype=np.int64)
        small, big = self.coeffs, other.coeffs
        if small.size > big.size:
            small, big = big, small
        for exp in np.ndindex(*small.shape):
            c = int(small[exp])
            if c:
                sl = tuple(slice(e, e + s) for e, s in zip(exp, big.shape))
                out[sl] = (out[sl] + c * big) % self.p
        return MultiPoly(self.p, out)

    def reverse_vars(self) -> "MultiPoly":
        """The polynomial P(X_m, ..., X_1)."""
        return MultiPoly(self.p, np.transpose(self.coeffs))


@lru_cache(maxsize=64)
def power_table(p: int, degree: int) -> np.ndarray:
    """Read-only p x (degree+1) table: row x holds x^k mod p for k <= degree;
    degree -1 gives no columns."""
    t = np.empty((p, degree + 1), dtype=np.int64)
    t[:, :1] = 1
    x = np.arange(p, dtype=np.int64)
    for k in range(1, degree + 1):
        t[:, k] = (t[:, k - 1] * x) % p
    t.flags.writeable = False
    return t


def vandermonde(nodes: Sequence[int], degree: int, p: int) -> np.ndarray:
    """|nodes| x (degree+1) matrix of powers node^k mod p, a fresh array."""
    return power_table(p, degree)[np.asarray(nodes, dtype=np.int64) % p]


def univariate_from_roots(roots: Iterable[int], p: int) -> np.ndarray:
    """Coefficients (ascending) of the monic product of (X - r)."""
    c = np.array([1], dtype=np.int64)
    for r in roots:
        nxt = np.zeros(c.size + 1, dtype=np.int64)
        nxt[1:] += c
        nxt[:-1] -= (r % p) * c
        c = nxt % p
    return c


def eval_univariate(coeffs: np.ndarray, x: int, p: int) -> int:
    """Horner evaluation of ascending coefficients at x."""
    acc = 0
    for k in range(coeffs.size - 1, -1, -1):
        acc = (acc * x + int(coeffs[k])) % p
    return acc


def lagrange_univariate(nodes: Sequence[int], w: int, p: int) -> np.ndarray:
    """Coefficients of the basis polynomial that is 1 at w, 0 on nodes - {w}."""
    others = [z for z in nodes if z != w]
    num = univariate_from_roots(others, p)
    den = 1
    for z in others:
        den = (den * (w - z)) % p
    return (num * pow(den, -1, p)) % p


def lagrange(s: ProductSet, w: Point, p: int) -> MultiPoly:
    """Product-set Lagrange interpolator: 1 at w, 0 on the rest of the grid."""
    if len(w) != s.m or not s.contains(w):
        raise ValueError(f"point {w} not in the product set")
    coeffs = np.array(1, dtype=np.int64)
    for nodes, wi in zip(s.factors, w):
        uni = lagrange_univariate(nodes, wi, p)
        coeffs = np.multiply.outer(coeffs, uni) % p
    return MultiPoly(p, coeffs.reshape(tuple(len(f) for f in s.factors)) if s.m else coeffs)


def _inverse_vandermonde(nodes: Sequence[int], p: int) -> np.ndarray:
    v = vandermonde(nodes, len(nodes) - 1, p)
    aug = np.concatenate([v, np.eye(len(nodes), dtype=np.int64)], axis=1)
    r, piv = rref(aug, p)
    if piv != list(range(len(nodes))):
        raise ValueError("interpolation nodes must be distinct")
    return r[:, len(nodes):]


def interpolate_grid(values: np.ndarray, s: ProductSet, p: int) -> MultiPoly:
    """The unique polynomial of degree vector (|S_i|-1) matching values on s.

    values has shape (|S_1|, ..., |S_m|), axis i ordered like s.factors[i].
    """
    c = np.asarray(values, dtype=np.int64) % p
    if c.shape != tuple(len(f) for f in s.factors):
        raise ValueError("values shape must match the grid")
    for i, nodes in enumerate(s.factors):
        vinv = _inverse_vandermonde(nodes, p)
        c = np.moveaxis(
            np.tensordot(vinv, np.moveaxis(c, i, 0), axes=(1, 0)) % p, 0, i
        )
    return MultiPoly(p, c)


def interpolate(values: dict[Point, int], s: ProductSet, p: int) -> MultiPoly:
    """Grid interpolation from a point-keyed mapping covering all of s."""
    arr = np.zeros(tuple(len(f) for f in s.factors), dtype=np.int64)
    index = [{v: i for i, v in enumerate(f)} for f in s.factors]
    seen = 0
    for pt, val in values.items():
        arr[tuple(ix[c] for ix, c in zip(index, pt))] = val % p
        seen += 1
    if seen != s.size:
        raise ValueError("values must cover the whole grid")
    return interpolate_grid(arr, s, p)


def zero_code_poly_basis(s: ProductSet, dv: DegreeVector, p: int) -> list[MultiPoly]:
    """Basis (as polynomials) of {P of degree dv : P = 0 on the grid s}.

    Spanning set Z_{S_i}(X_i) * X^e reduced to a basis by row reduction on
    flattened coefficient vectors.
    """
    gens = []
    for i, nodes in enumerate(s.factors):
        slack = dv[i] - len(nodes)
        if slack < 0:
            continue
        zs = univariate_from_roots(nodes, p)
        shape = tuple((slack + 1) if j == i else dv[j] + 1 for j in range(len(dv)))
        for exp in np.ndindex(*shape):
            t = np.zeros(shape, dtype=np.int64)
            t[exp] = 1
            gens.append(_axis_mul(t, zs, i, p).ravel())
    if not gens:
        return []
    mat, piv = rref(np.array(gens, dtype=np.int64), p)
    shape = tuple(d + 1 for d in dv)
    return [MultiPoly(p, mat[r].reshape(shape)) for r in range(len(piv))]


def embed(poly: MultiPoly, dv: DegreeVector, p: int) -> MultiPoly:
    """Zero-pad the coefficient array up to degree vector dv."""
    out = np.zeros(tuple(d + 1 for d in dv), dtype=np.int64)
    out[tuple(slice(0, s) for s in poly.coeffs.shape)] = poly.coeffs
    return MultiPoly(p, out)


def _axis_mul(coeffs: np.ndarray, uni: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Multiply a dense coefficient array by a univariate poly in one axis."""
    moved = np.moveaxis(coeffs, axis, 0)
    out = np.zeros((moved.shape[0] + uni.size - 1,) + moved.shape[1:], dtype=np.int64)
    for k, c in enumerate(uni):
        if c:
            out[k : k + moved.shape[0]] = (out[k : k + moved.shape[0]] + int(c) * moved) % p
    return np.moveaxis(out, 0, axis)


def subcube_sum(poly: MultiPoly, a: ProductSet, prefix: Point) -> int:
    """Sum of poly over the suffix cube of ``prefix`` in the product set a.

    Explicit iteration; this is the trusted oracle the rest of the code is
    tested against, so clarity beats speed.
    """
    if len(prefix) > poly.m:
        raise ValueError("prefix longer than arity")
    total = 0
    for tail in a.suffix_points(len(prefix)):
        total += poly.eval(prefix + tail)
    return total % poly.p


def monomial_exponents(dv: DegreeVector):
    """All exponent tuples e with e_i <= dv_i; empty if any bound is negative."""
    if any(d < 0 for d in dv):
        return
    yield from product(*(range(d + 1) for d in dv))


def eval_monomial(exp: tuple[int, ...], x: Point, p: int) -> int:
    v = 1
    for e, xi in zip(exp, x):
        v = (v * pow(int(xi) % p, e, p)) % p
    return v
