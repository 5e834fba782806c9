import hashlib
import itertools
import random

import numpy as np
import pytest

from zkpcp.antisym import (
    antisym_locate,
    complement_prefixes,
    enumerate_cube_points,
    is_prefix_free,
    prefix_free,
    rev_cube_intersection_size,
    sym_sets,
    union_size,
)
from zkpcp.domains import ProductSet, hypercube, rev_point, sort_points
from zkpcp.field import Field
from zkpcp.linalg import AffineSystem, kernel_basis, spans_equal
from zkpcp.oracles import affine_sets_equal, antisym_basis, attainable_answers_antisym


def all_prefix_points(a):
    out = []
    for i in range(a.m + 1):
        out.extend(a.prefix_points(i))
    return out


def test_rev_cube_intersection_examples():
    a2 = hypercube((0, 1), 2)
    assert rev_cube_intersection_size((0,), (0,), a2) == 1
    assert rev_cube_intersection_size((), (), a2) == 4
    a3 = hypercube((0, 1), 3)
    assert rev_cube_intersection_size((1,), (0,), a3) == 2


def test_rev_cube_intersection_matches_enumeration():
    for m in (1, 2, 3):
        a = hypercube((0, 1), m)
        pool = all_prefix_points(a)
        for x in pool:
            for y in pool:
                want = len(
                    set(a.cube_of(x))
                    & {rev_point(q) for q in a.cube_of(y)}
                )
                assert rev_cube_intersection_size(x, y, a) == want


def test_rev_cube_rejects_asymmetric_cube():
    a = ProductSet(((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        rev_cube_intersection_size((), (), a)


def test_sym_sets_rejects_points_outside_the_prefix_domain():
    a = hypercube((0, 1), 2)
    for g in ([(3,)], [(0,), (1, 2)], [(0, 1, 1)]):
        with pytest.raises(ValueError, match="prefix domain"):
            sym_sets(g, a)
    with pytest.raises(ValueError, match="A_i = A_"):
        sym_sets([(0,)], ProductSet(((0, 1), (0, 2))))


def test_prefix_free_identity_when_already_free():
    a = hypercube((0, 1), 2)
    fam = prefix_free([(0, 1), (1,)], a)
    assert set(fam.g) == {(0, 1), (1,)}
    assert fam.lam[(0, 1)] == frozenset({(0, 1)})


def test_prefix_free_splits_overlap():
    a = hypercube((0, 1), 2)
    fam = prefix_free([(0,), (0, 1)], a)
    assert set(fam.g) == {(0, 0), (0, 1)}
    assert fam.lam[(0,)] == frozenset({(0, 0), (0, 1)})
    assert fam.lam[(0, 1)] == frozenset({(0, 1)})


def test_prefix_free_bot_expansion():
    a = hypercube((0, 1), 2)
    fam = prefix_free([(), (1,)], a)
    assert set(fam.g) == {(0,), (1,)}
    assert fam.lam[()] == frozenset({(0,), (1,)})


def test_prefix_free_cover_and_size_bound():
    rng = random.Random(1)
    for m in (2, 3):
        a = hypercube((0, 1), m)
        pool = all_prefix_points(a)
        for _ in range(40):
            pts = rng.sample(pool, rng.randrange(1, 5))
            fam = prefix_free(pts, a)
            assert is_prefix_free(fam.g)
            assert len(fam.g) <= len(set(pts)) * max(m, 1)
            for pt in set(pts):
                cover = set()
                for piece in fam.lam[pt]:
                    cover |= set(a.cube_of(piece))
                assert cover == set(a.cube_of(pt))
                # pieces are pairwise disjoint
                assert sum(a.suffix_size(len(q)) for q in fam.lam[pt]) == len(cover)


def random_prefix_sets(rng, count):
    """Seeded (product set, prefix points) pairs: m <= 4, |A_i| <= 3 and at
    most 6 points, duplicates and the empty prefix included."""
    for _ in range(count):
        m = rng.randint(0, 4)
        a = ProductSet(tuple(tuple(rng.sample(range(5), rng.randint(1, 3))) for _ in range(m)))
        pts = [
            tuple(rng.choice(a.factors[i]) for i in range(rng.randint(0, m)))
            for _ in range(rng.randint(1, 6))
        ]
        yield a, pts


def test_prefix_free_is_the_coarsest_cover():
    """Each input cube is the disjoint union of its pieces, the pieces are
    exactly g, and a piece that is not an input was cut off a node lying
    between an input and a longer input it prefixes."""
    for a, pts in random_prefix_sets(random.Random(7), 300):
        fam = prefix_free(pts, a)
        inputs = set(pts)
        assert is_prefix_free(fam.g) and set(fam.lam) == inputs
        assert set().union(*fam.lam.values()) == set(fam.g)
        for x in inputs:
            assert all(q[: len(x)] == x for q in fam.lam[x])
            cover = [c for q in fam.lam[x] for c in a.cube_of(q)]
            assert sorted(cover) == sorted(a.cube_of(x))
        for q in set(fam.g) - inputs:
            parent = q[:-1]
            assert any(
                parent[: len(x)] == x and len(parent) < len(y) and y[: len(parent)] == parent
                for x in inputs
                for y in inputs
            ), (pts, q)


def test_prefix_free_sweep_is_pinned():
    # recorded on the iterative split-until-fixpoint construction
    digest = hashlib.sha256()
    for a, pts in random_prefix_sets(random.Random(19), 500):
        fam = prefix_free(pts, a)
        lam = sorted((x, sorted(v)) for x, v in fam.lam.items())
        digest.update(repr((fam.g, lam)).encode())
    assert digest.hexdigest() == "e401d488bb324f7cbca0563a18e95c6b156d13e3087a1a6161d023245e9b275a"


def brute_sigma_antisym_dual(g_pts, a, p):
    """Dual of {sum word of r restricted to g_pts : r antisymmetric}."""
    rows = []
    for vec in antisym_basis(a, p):
        rows.append(
            [
                sum(vec.get(x, 0) for x in a.cube_of(pt)) % p
                for pt in g_pts
            ]
        )
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(g_pts))
    return kernel_basis(rows, p)


def indicator_rows(family, g_pts, p):
    idx = {pt: i for i, pt in enumerate(g_pts)}
    rows = np.zeros((len(family), len(g_pts)), dtype=np.int64)
    for k, h in enumerate(family):
        for pt in h:
            rows[k, idx[pt]] = 1
    return rows


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sym_sets_spans_brute_dual_all_small_prefix_free(p, m):
    a = hypercube((0, 1), m)
    pool = all_prefix_points(a)
    count = 0
    for size in range(1, 6):
        for comb in itertools.combinations(pool, size):
            if not is_prefix_free(comb):
                continue
            g_pts = sort_points(comb)
            fam = sym_sets(g_pts, a)
            got = indicator_rows(fam, g_pts, p)
            want = brute_sigma_antisym_dual(g_pts, a, p)
            assert spans_equal(got, want, p), g_pts
            count += 1
    assert count > 0


def test_minimal_symmetric_decomposition_disjoint():
    for m in (2, 3):
        a = hypercube((0, 1), m)
        pool = all_prefix_points(a)
        for size in range(1, 5):
            for comb in itertools.combinations(pool, size):
                if not is_prefix_free(comb):
                    continue
                fam = sym_sets(sort_points(comb), a)
                seen = set()
                for h in fam:
                    assert not (set(h) & seen)
                    seen |= set(h)
                    # each member is symmetric: covered cube equals reversal
                    cover = set()
                    for pt in h:
                        cover |= set(a.cube_of(pt))
                    assert cover == {rev_point(x) for x in cover}
                    # minimality: no proper nonempty symmetric subset
                    for k in range(1, len(h)):
                        for sub in itertools.combinations(h, k):
                            sub_cover = set()
                            for pt in sub:
                                sub_cover |= set(a.cube_of(pt))
                            assert sub_cover != {rev_point(x) for x in sub_cover}


def test_reverse_set_bounds_exact():
    # For every minimal symmetric set found at m = 3: with K = |cube| and
    # t = |H|^2, |union H| falls outside the open middle band whenever
    # 4t <= K, certified by exact integer arithmetic on (2u - K)^2.
    m = 3
    a = hypercube((0, 1), m)
    pool = all_prefix_points(a)
    k_cube = a.size
    checked = 0
    for size in range(1, 6):
        for comb in itertools.combinations(pool, size):
            if not is_prefix_free(comb):
                continue
            fam = sym_sets(sort_points(comb), a)
            for h in fam:
                t = len(h) ** 2
                if 4 * t > k_cube:
                    continue
                u = union_size(h, a)
                assert (2 * u - k_cube) ** 2 >= k_cube**2 - 4 * t * k_cube, h
                checked += 1
    assert checked > 0


def figure_matrix_index_set(n=5):
    """Two full rows plus seven single entries forming a symmetric pattern."""
    rows = {2, 3}
    singles = {(1, 2), (1, 3), (4, 2), (4, 3), (5, 2), (5, 3), (5, 5)}
    cells = {(i, j) for i in rows for j in range(1, n + 1)} | singles
    return cells


def test_figure_dual_element_2d_model():
    n = 5
    cells = figure_matrix_index_set(n)
    assert len(cells) == 2 * n + 7
    # indicator is symmetric, so the sum vanishes on antisymmetric matrices
    assert {(j, i) for i, j in cells} == cells
    rng = random.Random(99)
    p = 101
    for _ in range(10_000):
        mat = np.zeros((n + 1, n + 1), dtype=np.int64)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = rng.randrange(p)
                mat[i, j] = v
                mat[j, i] = (-v) % p
        total = sum(int(mat[i, j]) for i, j in cells) % p
        assert total == 0


def test_complement_prefixes_cover():
    a = hypercube((0, 1), 3)
    rng = random.Random(5)
    pool = all_prefix_points(a)
    for _ in range(30):
        pts = rng.sample(pool, rng.randrange(1, 4))
        fam = prefix_free(pts, a)
        comp = complement_prefixes(fam.g, a)
        covered = set(enumerate_cube_points(fam.g, a))
        rest = set(enumerate_cube_points(comp, a))
        assert covered | rest == set(a.points())
        assert not (covered & rest)


@pytest.mark.parametrize("p", [3, 5])
def test_antisym_locate_contract_exhaustive_m2(p):
    fld = Field(p)
    a = hypercube((0, 1), 2)
    pool = all_prefix_points(a)
    rng = random.Random(60 + p)
    cube = list(a.points())
    query_sets = [[()], [(0, 1)], [(0, 0)], [(0,), (1, 0)], [(), (0,), (0, 1)]]
    for _ in range(6):
        query_sets.append(rng.sample(pool, rng.randrange(1, 4)))
    for pts in query_sets:
        out = antisym_locate(fld, a, pts)
        for _ in range(5):
            msg = {pt: rng.randrange(p) for pt in cube}
            msg[()] = sum(msg.values()) % p
            off, rows = attainable_answers_antisym(a, p, msg, list(pts))
            fixed = np.array(
                [msg[q] for kind, q in out.cols if kind == "m"], dtype=np.int64
            )
            mcols = [j for j, (kind, _) in enumerate(out.cols) if kind == "m"]
            ccols = [j for j, (kind, _) in enumerate(out.cols) if kind == "c"]
            if out.z.shape[0]:
                a_mat = out.z[:, ccols]
                b_vec = (-(out.z[:, mcols] @ fixed)) % p
            else:
                a_mat = np.zeros((0, len(ccols)), dtype=np.int64)
                b_vec = np.zeros(0, dtype=np.int64)
            sys = AffineSystem(a_mat, b_vec, p)
            x0 = sys.solve()
            assert x0 is not None
            assert affine_sets_equal(x0, sys.kernel(), off, rows, p), (pts, msg)


def test_antisym_locate_bot_forced():
    fld = Field(3)
    a = hypercube((0, 1), 2)
    out = antisym_locate(fld, a, [()])
    assert out.r == ((),)
    assert out.z.shape[0] == 1
    z = out.z[0]
    assert (z[0] + z[1]) % 3 == 0 and z[0] != 0


def test_antisym_locate_palindrome_forced():
    fld = Field(3)
    a = hypercube((0, 1), 2)
    out = antisym_locate(fld, a, [(0, 0)])
    assert (0, 0) in out.r
    ci = out.cols.index(("c", (0, 0)))
    mi = out.cols.index(("m", (0, 0)))
    forced = [row for row in out.z if row[ci] % 3]
    assert len(forced) == 1
    assert (forced[0][ci] + forced[0][mi]) % 3 == 0


def test_antisym_locate_non_palindrome_free():
    fld = Field(3)
    a = hypercube((0, 1), 2)
    out = antisym_locate(fld, a, [(0, 1)])
    ci = out.cols.index(("c", (0, 1)))
    assert not any(row[ci] % 3 for row in out.z)


def test_antisym_locate_g_bound():
    fld = Field(5)
    a = hypercube((0, 1), 3)
    pool = all_prefix_points(a)
    rng = random.Random(77)
    for _ in range(100):
        pts = rng.sample(pool, rng.randrange(1, 5))
        out = antisym_locate(fld, a, pts)
        assert len(out.meta["prefix_free"].g) <= a.m * len(set(pts))


def test_antisym_locate_rejects_char2():
    fld = Field(2)
    a = hypercube((0, 1), 2)
    with pytest.raises(ValueError):
        antisym_locate(fld, a, [()])


def test_antisym_basis_char2_is_symmetric_space():
    a = hypercube((0, 1), 2)
    basis = antisym_basis(a, 2)
    # over GF(2) palindromic coordinates are free: one pair + two palindromes
    assert len(basis) == 3
    supports = [frozenset(b) for b in basis]
    assert frozenset({(0, 0)}) in supports
    assert frozenset({(1, 1)}) in supports
    assert frozenset({(0, 1), (1, 0)}) in supports
