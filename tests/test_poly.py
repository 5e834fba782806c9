import itertools
import random

import numpy as np
import pytest

from zkpcp.domains import ProductSet
from zkpcp.pcp import _grid_eval
from zkpcp.poly import (
    MultiPoly,
    embed,
    eval_monomial,
    interpolate,
    lagrange,
    monomial_exponents,
    eval_univariate,
    power_table,
    subcube_sum,
    univariate_from_roots,
    zero_code_poly_basis,
)


def poly_from_coeffs(p, arr):
    return MultiPoly(p, np.array(arr, dtype=np.int64))


def test_eval_x1x2():
    # X1 * X2 at (2, 3) over F5
    poly = poly_from_coeffs(5, [[0, 0], [0, 1]])
    assert poly.eval((2, 3)) == 1


def test_eval_zero_poly():
    poly = poly_from_coeffs(5, [[0, 0], [0, 0]])
    for x in itertools.product(range(5), repeat=2):
        assert poly.eval(x) == 0


def test_eval_univariate():
    # X^2 - X at 2 over F5 -> 2
    poly = poly_from_coeffs(5, [0, 4, 1])
    assert poly.eval((2,)) == 2


@pytest.mark.parametrize("p", [5, 131071])
def test_eval_matches_the_monomial_sum(p):
    """Arity 0-3, random degree vectors, coordinates negative or >= p: eval
    is the sum of c_e * x^e, at the largest modulus too, and it builds no
    p x (d+1) power table."""
    rng = random.Random(p)
    cached = power_table.cache_info().currsize
    for _ in range(60):
        dv = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        coeffs = np.array(
            [rng.randrange(p) for _ in monomial_exponents(dv)], dtype=np.int64
        ).reshape(tuple(d + 1 for d in dv))
        poly = MultiPoly(p, coeffs)
        for _ in range(4):
            x = tuple(rng.randrange(-3 * p, 3 * p) for _ in dv)
            want = sum(int(coeffs[e]) * eval_monomial(e, x, p) for e in monomial_exponents(dv)) % p
            assert poly.eval(x) == want
    assert power_table.cache_info().currsize == cached


def test_eval_arity_mismatch():
    poly = poly_from_coeffs(5, [0, 1])
    with pytest.raises(ValueError):
        poly.eval((1, 2))


def test_lagrange_multilinear_indicator():
    s = ProductSet(((0, 1), (0, 1)))
    l = lagrange(s, (1, 1), 5)
    assert np.array_equal(l.coeffs, np.array([[0, 0], [0, 1]]))


def test_lagrange_one_minus_x():
    s = ProductSet(((0, 1),))
    l = lagrange(s, (0,), 5)
    assert np.array_equal(l.coeffs, np.array([1, 4]))


def test_lagrange_three_nodes_f5():
    s = ProductSet(((0, 1, 2),))
    l = lagrange(s, (2,), 5)
    # 3 * X * (X - 1) = 3X^2 - 3X = 2X + 3X^2 mod 5
    assert np.array_equal(l.coeffs, np.array([0, 2, 3]))
    for x in (0, 1, 2):
        assert l.eval((x,)) == (1 if x == 2 else 0)


def test_lagrange_rejects_outside_point():
    s = ProductSet(((0, 1),))
    with pytest.raises(ValueError):
        lagrange(s, (3,), 5)


def test_vanishing_01():
    z = univariate_from_roots([0, 1], 5)
    assert np.array_equal(z, np.array([0, 4, 1]))


def test_vanishing_empty():
    z = univariate_from_roots([], 5)
    assert np.array_equal(z, np.array([1]))


def test_vanishing_12_f5():
    z = univariate_from_roots([1, 2], 5)
    assert np.array_equal(z, np.array([2, 2, 1]))


@pytest.mark.parametrize("p,s", [(5, (0, 1, 3)), (7, (1, 2, 4, 6))])
def test_vanishing_zero_set_exact(p, s):
    z = univariate_from_roots(s, p)
    for x in range(p):
        assert (eval_univariate(z, x, p) == 0) == (x in s)


def test_interpolation_identity():
    rng = random.Random(7)
    for p, factors in [(5, ((0, 1), (0, 2, 3))), (3, ((0, 1, 2),))]:
        s = ProductSet(factors)
        values = {pt: rng.randrange(p) for pt in s.points()}
        poly = interpolate(values, s, p)
        assert poly.degree_vector == tuple(len(f) - 1 for f in factors)
        for pt in s.points():
            assert poly.eval(pt) == values[pt]
        # interpolant equals the Lagrange-basis expansion
        acc = MultiPoly(p, np.zeros(tuple(len(f) for f in factors), dtype=np.int64))
        for pt in s.points():
            acc = acc.add(lagrange(s, pt, p).scale(values[pt]))
        assert np.array_equal(acc.coeffs, poly.coeffs)


def brute_lde_set(values, s, dv, p):
    shape = tuple(d + 1 for d in dv)
    n = int(np.prod(shape))
    out = set()
    for flat in itertools.product(range(p), repeat=n):
        poly = MultiPoly(p, np.array(flat, dtype=np.int64).reshape(shape))
        if all(poly.eval(pt) == values[pt] % p for pt in s.points()):
            out.add(tuple(poly.coeffs.ravel()))
    return out


@pytest.mark.parametrize(
    "p,factors,dv",
    [
        (2, ((0, 1), (0, 1)), (2, 2)),
        (3, ((0, 1),), (3,)),
        (3, ((0, 1), (0, 1)), (2, 1)),
        (3, ((0, 1),), (2,)),
    ],
)
def test_lde_support_matches_bruteforce(p, factors, dv):
    rng = random.Random(11)
    s = ProductSet(factors)
    values = {pt: rng.randrange(p) for pt in s.points()}
    want = brute_lde_set(values, s, dv, p)
    base = embed(interpolate(values, s, p), dv, p)
    basis = zero_code_poly_basis(s, dv, p)
    got = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        acc = base
        for c, q in zip(coeffs, basis):
            acc = acc.add(q.scale(c))
        got.add(tuple(acc.coeffs.ravel()))
    assert got == want


def test_subcube_sum_constant():
    a = ProductSet(((0, 1), (0, 1)))
    poly = poly_from_coeffs(5, [[1]])
    assert subcube_sum(poly, a, ()) == 4


def test_subcube_sum_x1x2_prefix1():
    a = ProductSet(((0, 1), (0, 1)))
    poly = poly_from_coeffs(5, [[0, 0], [0, 1]])
    assert subcube_sum(poly, a, (1,)) == 1


def test_subcube_sum_off_cube_prefix():
    a = ProductSet(((0, 1), (0, 1)))
    poly = poly_from_coeffs(5, [[0, 0], [0, 1]])
    assert subcube_sum(poly, a, (2,)) == 2


def test_subcube_sum_full_point():
    a = ProductSet(((0, 1), (0, 1)))
    poly = poly_from_coeffs(5, [[0, 0], [0, 1]])
    assert subcube_sum(poly, a, (3, 4)) == poly.eval((3, 4))


def test_summation_recurrence():
    rng = random.Random(12)
    p = 5
    a = ProductSet(((0, 1), (0, 1, 2)))
    for _ in range(10):
        poly = MultiPoly(
            p, np.array([[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        )
        for prefix in [(), (0,), (2,), (4,)]:
            lhs = subcube_sum(poly, a, prefix)
            rhs = sum(
                subcube_sum(poly, a, prefix + (v,)) for v in a.factors[len(prefix)]
            ) % p
            assert lhs == rhs


def test_monomial_exponents_negative_degree_empty():
    assert list(monomial_exponents((-1, 2))) == []


def test_grid_eval_matches_pointwise():
    rng = random.Random(13)
    p = 7
    for shape in [(4,), (2, 3), (3, 1, 4)]:
        coeffs = np.array([rng.randrange(p) for _ in range(int(np.prod(shape)))])
        poly = MultiPoly(p, coeffs.reshape(shape))
        grid = _grid_eval(poly, p)
        assert grid.shape == (p,) * len(shape) and grid.flags.c_contiguous
        for x in itertools.product(range(p), repeat=len(shape)):
            assert grid[x] == poly.eval(x)


def test_mul_and_reverse_vars():
    p = 5
    x1 = poly_from_coeffs(p, [[0, 0], [1, 0]])  # X1
    x2 = poly_from_coeffs(p, [[0, 1], [0, 0]])  # X2
    prod = x1.mul(x2)
    assert prod.eval((2, 3)) == 1
    q = poly_from_coeffs(p, [[1, 2], [3, 4]])
    qr = q.reverse_vars()
    for x in itertools.product(range(p), repeat=2):
        assert qr.eval(x) == q.eval((x[1], x[0]))
