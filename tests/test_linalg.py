import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpcp.field import Field
from zkpcp.linalg import (
    AffineSystem,
    coset_system,
    image_dual_basis,
    kernel_basis,
    project_constraints,
    rank,
    rref,
    sample_affine,
    spans_equal,
)
from zkpcp.audit import branch_tv
from zkpcp.oracles import affine_sets_equal

import random


def brute_kernel(a, p):
    a = np.asarray(a) % p
    n = a.shape[1]
    return [
        np.array(v, dtype=np.int64)
        for v in itertools.product(range(p), repeat=n)
        if not np.any((a @ np.array(v)) % p)
    ]


def gauss_jordan(a, p):
    """Plain-Python Gauss-Jordan, one row operation at a time."""
    rows, cols = a.shape
    m = [[int(x) % p for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=np.int64).reshape(rows, cols), pivots


@pytest.mark.parametrize("p", [2, 3, 5, 101, 131071])  # 131071: the largest prime <= MAX_MODULUS
def test_rref_matches_plain_gauss_jordan(p):
    rng = np.random.default_rng(p)
    shapes = [(64, k) for k in (1, 5, 13)] + [(k, 64) for k in (1, 5, 13)]
    shapes += [(7, 7), (0, 4), (4, 0)]
    for shape in shapes:
        low_rank = rng.integers(0, p, (shape[0], 2)) @ rng.integers(0, p, (2, shape[1]))
        for a in (
            rng.integers(-p, 2 * p, shape),  # dense, entries not yet reduced
            rng.integers(0, p, shape) * (rng.random(shape) < 0.2),  # sparse
            low_rank,
            np.zeros(shape, dtype=np.int64),
        ):
            r, piv = rref(a, p)
            ref, ref_piv = gauss_jordan(a, p)
            assert piv == ref_piv
            assert r.dtype == np.int64
            assert np.array_equal(r, ref)


def test_rref_identity():
    m = np.eye(2, dtype=np.int64)
    r, piv = rref(m, 5)
    assert np.array_equal(r, m)
    assert piv == [0, 1]


def test_rref_zero():
    m = np.zeros((2, 3), dtype=np.int64)
    r, piv = rref(m, 5)
    assert not np.any(r)
    assert piv == []


def test_rref_dependent_rows_f5():
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    r, piv = rref(m, 5)
    assert np.array_equal(r, np.array([[1, 2], [0, 0]]))
    assert piv == [0]


def test_rref_idempotent():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(25):
            m = np.array(
                [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            )
            r1, _ = rref(m, p)
            r2, _ = rref(r1, p)
            assert np.array_equal(r1, r2)


def test_kernel_identity_empty():
    assert kernel_basis(np.eye(3, dtype=np.int64), 5).shape == (0, 3)


def test_kernel_zero_row_full():
    k = kernel_basis(np.zeros((1, 3), dtype=np.int64), 5)
    assert k.shape == (3, 3)
    assert rank(k, 5) == 3


def test_kernel_131_f5_matches_enumeration():
    a = np.array([[1, 3, 1]], dtype=np.int64)
    k = kernel_basis(a, 5)
    assert k.shape[0] == 2
    brute = brute_kernel(a, 5)
    assert len(brute) == 5**2
    for v in k:
        assert not np.any((a @ v) % 5)
    # the span of the returned basis is the whole brute-forced kernel
    spanned = {
        tuple((c1 * k[0] + c2 * k[1]) % 5) for c1 in range(5) for c2 in range(5)
    }
    assert spanned == {tuple(v) for v in brute}


def test_kernel_dimension_and_membership():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(30):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
            m = np.array(
                [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            )
            k = kernel_basis(m, p)
            assert k.shape[0] == cols - rank(m, p)
            for v in k:
                assert not np.any((m @ v) % p)
            # echelon form: leading columns strictly increase
            leads = [int(np.nonzero(v)[0][0]) for v in k]
            assert leads == sorted(set(leads))


def two_elimination_kernel(a, p):
    """Kernel basis by back-substitution from rref(a), then a second rref to
    reach the unique reduced form; the reference for ``kernel_basis``."""
    m, pivots = rref(a, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[:, free] = np.eye(len(free), dtype=np.int64)
    basis[:, pivots] = (-m[: len(pivots), free].T) % p
    return rref(basis, p)[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_kernel_basis_equals_two_elimination_reference(p):
    rng = np.random.default_rng(p)
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
             np.zeros((0, 0), dtype=np.int64), np.zeros((2, 5), dtype=np.int64)]
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 9, 2))
        a = rng.integers(0, p, (rows, cols))
        cases.append(a)  # full rank for most shapes at p > 2
        k = int(rng.integers(0, rows))
        # the last rows combine the first k: rank at most k
        deficient = a.copy()
        deficient[k:] = (rng.integers(0, p, (rows - k, k)) @ a[:k]) % p
        cases.append(deficient)
    ranks = set()
    for a in cases:
        got = kernel_basis(a, p)
        want = two_elimination_kernel(a, p)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want)
        if a.size:
            ranks.add(rank(a, p) == min(a.shape))
    assert ranks == {True, False}  # both full-rank and rank-deficient inputs


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_project_constraints_equals_kernel_of_kernel(p):
    """One elimination gives the dual of the projected solution space exactly
    as the two-kernel formula does, for any subset and order of columns."""
    rng = np.random.default_rng(10 + p)
    cases = [
        (np.zeros((0, 5), dtype=np.int64), [3, 0]),  # no rows: nothing implied
        (np.zeros((3, 4), dtype=np.int64), [1, 2, 3]),  # zero rows
        (rng.integers(0, p, (3, 5)), []),  # empty keep
        (np.zeros((0, 0), dtype=np.int64), []),
    ]
    for _ in range(80):
        rows, cols = (int(x) for x in rng.integers(1, 9, 2))
        a = rng.integers(0, p, (rows, cols))
        if rows > 2:
            a[-1] = (2 * a[0] + a[1]) % p  # a dependent row
        if rng.random() < 0.3:
            a[:, int(rng.integers(0, cols))] = 0  # a column no row touches
        keep = [int(c) for c in rng.permutation(cols)[: int(rng.integers(0, cols + 1))]]
        cases.append((a, keep))
        cases.append((a, list(range(cols))))  # every column kept, in order
        cases.append((a, [int(c) for c in rng.permutation(cols)]))  # all, permuted
    for a, keep in cases:
        got = project_constraints(a, keep, p)
        want = kernel_basis(kernel_basis(a, p)[:, keep], p)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want), (a, keep)


def brute_image_dual(m, u_vectors, p):
    image = {tuple((np.asarray(m) @ u) % p) for u in u_vectors}
    dim = np.asarray(m).shape[0]
    return [
        z
        for z in itertools.product(range(p), repeat=dim)
        if all(sum(a * b for a, b in zip(z, w)) % p == 0 for w in image)
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_image_dual_basis_vs_bruteforce(p):
    rng = random.Random(p)
    shapes = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
    for rows, cols in shapes:
        entries = (
            itertools.product(range(p), repeat=rows * cols)
            if p**(rows * cols) <= 600
            else [
                tuple(rng.randrange(p) for _ in range(rows * cols))
                for _ in range(120)
            ]
        )
        for flat in entries:
            m = np.array(flat, dtype=np.int64).reshape(rows, cols)
            got = image_dual_basis(m, p)
            want = brute_image_dual(
                m, list(itertools.product(range(p), repeat=cols)), p
            )
            want_rows = np.array(want, dtype=np.int64).reshape(-1, rows)
            assert spans_equal(got, want_rows, p)


def test_image_dual_basis_zero_map():
    m = np.zeros((2, 3), dtype=np.int64)
    out = image_dual_basis(m, 5)
    assert rank(out, 5) == 2


def test_sample_affine_unique_solution():
    rng = random.Random(2)
    a = np.eye(2, dtype=np.int64)
    b = np.array([2, 4])
    for _ in range(10):
        assert np.array_equal(sample_affine(a, b, [], 5, rng), b)


def test_sample_affine_empty_system_uniform():
    rng = random.Random(3)
    a = np.zeros((0, 2), dtype=np.int64)
    b = np.zeros(0, dtype=np.int64)
    counts = {}
    for _ in range(1800):
        x = tuple(sample_affine(a, b, [], 3, rng))
        counts[x] = counts.get(x, 0) + 1
    assert set(counts) == set(itertools.product(range(3), repeat=2))


def test_sample_affine_inconsistent():
    a = np.array([[0, 0]], dtype=np.int64)
    b = np.array([1])
    assert sample_affine(a, b, [], 3, random.Random(0)) is None


def test_sample_affine_draws_like_field_sample():
    # one free coordinate takes the stream's next field sample; a forced one
    # takes its value without touching the stream
    fld = Field(7)
    for seed in range(5):
        rng = random.Random(seed)
        # columns (y, x) with y = 0 answered: y = 0 leaves x free
        sol = sample_affine(np.array([[1, 0]]), np.array([0]), [0], 7, rng)
        assert int(sol[0]) == fld.sample(random.Random(seed))
        rng = random.Random(seed)
        state = rng.getstate()
        # y = 5 answered: y + 2x = 3 forces x
        sol = sample_affine(np.array([[1, 2]]), np.array([3]), [5], 7, rng)
        assert int(sol[0]) == (3 - 5) * pow(2, -1, 7) % 7
        assert rng.getstate() == state
    assert sample_affine(np.array([[1, 0]]), np.array([1]), [0], 7, rng) is None


def test_sample_affine_coset_chi2_and_enumeration():
    a = np.array([[1, 1]], dtype=np.int64)
    b = np.array([0])
    sols = {tuple(x) for x in AffineSystem(a, b, 3).enumerate()}
    assert sols == {(0, 0), (1, 2), (2, 1)}
    rng = random.Random(4)
    n = 3000
    counts = dict.fromkeys(sols, 0)
    for _ in range(n):
        counts[tuple(sample_affine(a, b, [], 3, rng))] += 1
    expected = n / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 2 degrees of freedom; 3 sigma over the mean is amply covered by 16
    assert chi2 < 16


def test_sample_affine_translation_bijection():
    # Translating b maps the solution coset by the translation bijection.
    rng = random.Random(5)
    p = 5
    for _ in range(20):
        a = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(2)])
        t = np.array([rng.randrange(p) for _ in range(3)])
        b = np.array([rng.randrange(p) for _ in range(2)])
        s1 = AffineSystem(a, b, p)
        if s1.solve() is None:
            continue
        b2 = (b + a @ t) % p
        s2 = AffineSystem(a, b2, p)
        set1 = {tuple((x + t) % p) for x in s1.enumerate()}
        set2 = {tuple(x) for x in s2.enumerate()}
        assert set1 == set2


@st.composite
def affine_cases(draw):
    """Two cosets off + rowspan(rows) in GF(p)^n, p in {2, 3, 5}, n <= 4, and
    a right-hand side for the first rows read as a system A x = b. Half the
    time the second coset rewrites the first (rows reversed plus one of
    their combinations, offset moved within the span), so equal sets are
    drawn as often as unequal ones."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    elt = st.integers(0, p - 1)
    vec = st.lists(elt, min_size=n, max_size=n)
    rows_a = np.array(draw(st.lists(vec, max_size=3)), dtype=np.int64).reshape(-1, n)
    off_a = np.array(draw(vec), dtype=np.int64)
    if draw(st.booleans()):
        mix = np.array(draw(st.lists(elt, min_size=2 * len(rows_a), max_size=2 * len(rows_a))))
        mix = mix.reshape(2, -1).astype(np.int64)
        rows_b = np.vstack([rows_a[::-1], mix[:1] @ rows_a % p])
        off_b = (off_a + mix[1] @ rows_a) % p
    else:
        rows_b = np.array(draw(st.lists(vec, max_size=3)), dtype=np.int64).reshape(-1, n)
        off_b = np.array(draw(vec), dtype=np.int64)
    b = np.array(draw(st.lists(elt, min_size=len(rows_a), max_size=len(rows_a))), dtype=np.int64)
    return p, n, off_a, rows_a, off_b, rows_b, b


def brute_coset(off, rows, p):
    """off + rowspan(rows), by enumerating every combination of the rows."""
    return {
        tuple((off + np.array(c, dtype=np.int64) @ rows) % p)
        for c in itertools.product(range(p), repeat=len(rows))
    }


@settings(max_examples=150)
@given(affine_cases())
def test_affine_sets_agree_with_enumeration(case):
    p, n, off_a, rows_a, off_b, rows_b, b = case
    space = [np.array(x, dtype=np.int64) for x in itertools.product(range(p), repeat=n)]
    set_a, set_b = brute_coset(off_a, rows_a, p), brute_coset(off_b, rows_b, p)
    zero = np.zeros(n, dtype=np.int64)
    assert spans_equal(rows_a, rows_b, p) == (
        brute_coset(zero, rows_a, p) == brute_coset(zero, rows_b, p)
    )
    assert affine_sets_equal(off_a, rows_a, off_b, rows_b, p) == (set_a == set_b)
    tv = sum(
        abs(Fraction(tuple(x) in set_a, len(set_a)) - Fraction(tuple(x) in set_b, len(set_b)))
        for x in space
    )
    assert branch_tv((off_a, rows_a), (off_b, rows_b), [], p) == tv / 2
    coset = coset_system(off_a, rows_a, p)
    assert {tuple(x) for x in space if coset.contains(x)} == set_a
    assert p ** coset.dim() == len(set_a)
    assert tuple(coset.solve()) in set_a
    system = AffineSystem(rows_a, b, p)
    sols = {tuple(x) for x in space if not np.any((rows_a @ x - b) % p)}
    assert {tuple(x) for x in space if system.contains(x)} == sols
    if sols:
        assert p ** system.dim() == len(sols)
        assert tuple(system.solve()) in sols
    else:
        assert system.solve() is None and system.dim() is None


def test_affine_system_eliminates_once(monkeypatch):
    import zkpcp.linalg as linalg

    calls = []

    def counting(a, p):
        calls.append(np.shape(a))
        return rref(a, p)

    monkeypatch.setattr(linalg, "rref", counting)
    system = AffineSystem(np.array([[1, 2, 0, 1], [2, 4, 1, 0]]), [3, 1], 5)
    assert system.solve() is not None
    assert system.dim() == 2
    assert system.contains(system.solve())
    assert system.contains(system.sample(random.Random(0)))
    assert calls == [(2, 5)]
