import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zkpcp.domains import ProductSet, a_closure, is_a_closed
from zkpcp.field import Field
from zkpcp.linalg import AffineSystem, kernel_basis, rank
from zkpcp.poly import eval_monomial, monomial_exponents
from zkpcp.rm import CodeView, cd_rm, cd_zero_rm, code_restriction_basis, rm_generator


def all_codewords(view, pts, zero_on=None):
    """Restrictions of every polynomial of the view's degrees to pts, or of
    those vanishing on the product set ``zero_on``.

    Vectorised over the coefficient space; intended for spaces of at most a
    few hundred thousand polynomials.
    """
    shape = tuple(d + 1 for d in view.dv)
    n = int(np.prod(shape)) if all(d >= 0 for d in view.dv) else 0
    p = view.p
    total = p**n
    assert total <= 2_000_000, "enumeration too large for a test oracle"
    eval_pts = list(pts)
    extra = list(zero_on.points()) if zero_on is not None else []
    g = rm_generator(view, eval_pts + extra)
    digits = np.empty((n, total), dtype=np.int64)
    reps = 1
    for j in range(n):
        digits[j] = np.tile(np.repeat(np.arange(p, dtype=np.int64), reps), total // (reps * p))
        reps *= p
    vals = (g.astype(np.float64) @ digits.astype(np.float64)) % p
    vals = vals.astype(np.int64)
    if extra:
        keep = ~np.any(vals[len(eval_pts):], axis=0)
        vals = vals[: len(eval_pts), keep]
    return vals.T.copy()  # one row per codeword restriction


def test_generator_empty_domain():
    f = Field(5)
    g = rm_generator(CodeView(f, 1, (1,)), [])
    assert g.shape[0] == 0


def reference_generator(view, pts):
    """The evaluation matrix entry by entry, one monomial at a time."""
    exps = list(monomial_exponents(view.dv))
    g = np.zeros((len(pts), len(exps)), dtype=np.int64)
    for i, pt in enumerate(pts):
        for j, e in enumerate(exps):
            g[i, j] = eval_monomial(e, pt, view.p)
    return g


@pytest.mark.parametrize("p", [2, 5, 13])
def test_generator_matches_per_entry_monomials(p):
    # negative degrees, empty domains, arity 0 and coordinates >= p included
    rng = random.Random(50 + p)
    f = Field(p)
    for m in range(4):
        for _ in range(12):
            dv = tuple(rng.randrange(-2, 4) for _ in range(m))
            pts = [
                tuple(rng.randrange(3 * p) for _ in range(m))
                for _ in range(rng.randrange(6))
            ]
            view = CodeView(f, m, dv)
            g = rm_generator(view, pts)
            assert g.dtype == np.int64
            assert np.array_equal(g, reference_generator(view, pts))
    assert rm_generator(CodeView(f, 0, ()), [(), ()]).tolist() == [[1], [1]]
    assert rm_generator(CodeView(f, 2, (1, 2)), []).shape == (0, 6)
    assert rm_generator(CodeView(f, 2, (1, -1)), [(0, 1)]).shape == (1, 0)


def test_generator_interpolation_square():
    f = Field(5)
    g = rm_generator(CodeView(f, 1, (1,)), [(0,), (1,)])
    assert g.shape == (2, 2)
    assert rank(g, 5) == 2


def test_generator_three_points_rank2():
    f = Field(5)
    g = rm_generator(CodeView(f, 1, (1,)), [(0,), (1,), (2,)])
    assert rank(g, 5) == 2


def test_cd_rm_line_through_three_points():
    f = Field(5)
    out = cd_rm(CodeView(f, 1, (1,)), [(0,), (1,), (2,)])
    assert out.z.shape[0] == 1
    # proportional to (1, 3, 1): w(0) - 2 w(1) + w(2) = 0
    z = out.z[0]
    mult = [(z * c) % 5 for c in range(1, 5)]
    assert any(np.array_equal(m, np.array([1, 3, 1])) for m in mult)
    # verify against all 25 linear polynomials
    words = all_codewords(CodeView(f, 1, (1,)), out.domain)
    assert len(words) == 25
    assert not np.any((words @ z) % 5)


def test_cd_rm_single_point_free():
    f = Field(5)
    assert cd_rm(CodeView(f, 1, (1,)), [(3,)]).is_empty()


def test_cd_rm_two_points_free():
    f = Field(5)
    assert cd_rm(CodeView(f, 1, (1,)), [(0,), (1,)]).is_empty()


def test_cd_rm_dedups_points():
    f = Field(5)
    out = cd_rm(CodeView(f, 1, (2,)), [(0,), (0,), (1,)])
    assert out.domain == ((0,), (1,))


@st.composite
def small_point_sets(draw):
    """A view of arity at most 3 over p in {5, 7, 11} with mixed degrees,
    and at most min(dv) + 1 distinct points with coordinates in [0, p)."""
    p = draw(st.sampled_from([5, 7, 11]))
    m = draw(st.integers(1, 3))
    dv = tuple(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    point = st.tuples(*[st.integers(0, p - 1)] * m)
    pts = draw(st.lists(point, max_size=min(dv) + 1, unique=True))
    return CodeView(Field(p), m, dv), pts


@settings(max_examples=150, deadline=None)
@given(small_point_sets())
def test_cd_rm_small_sets_are_unconstrained(case):
    """The closed form agrees with the elimination it skips."""
    view, pts = case
    out = cd_rm(view, pts)
    want = kernel_basis(rm_generator(view, pts).T, view.p)
    assert out.domain == tuple(pts)
    assert out.z.shape == want.shape == (0, len(pts))
    assert out.z.dtype == want.dtype


def test_cd_rm_small_sets_outside_the_closed_form():
    f = Field(5)
    # (0,) and (5,) are one field point: the set is small, but its copy
    # constraint must still be found by elimination
    out = cd_rm(CodeView(f, 1, (1,)), [(0,), (5,), (0,)])
    assert out.domain == ((0,), (5,))
    assert out.z.tolist() == [[1, 4]]
    # a wrong arity is refused, however small the set
    for pts in ([(1,)], [(1, 2), (3,)], [(1, 2, 3)]):
        with pytest.raises(ValueError, match="arity"):
            cd_rm(CodeView(f, 2, (2, 2)), pts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cd_rm_correctness_sweep(p):
    """Every detector row annihilates every enumerated codeword, and the rank
    matches |I| - dim(code restricted to I)."""
    rng = random.Random(p)
    f = Field(p)
    cases = []
    for m in (1, 2):
        for d in range(0, 4 if m == 1 else 3):
            dv = (d,) * m
            if p ** ((d + 1) ** m) > 200_000:
                continue
            pts_pool = list(itertools.product(range(p), repeat=m))
            for _ in range(6):
                size = rng.randrange(1, min(4, len(pts_pool)) + 1)
                cases.append((m, dv, rng.sample(pts_pool, size)))
    assert cases
    for m, dv, pts in cases:
        view = CodeView(f, m, dv)
        out = cd_rm(view, pts)
        words = all_codewords(view, out.domain)
        if out.z.shape[0]:
            assert not np.any((words @ out.z.T) % p)
        uniq = np.unique(words, axis=0)
        dim = rank(uniq, p)
        assert out.z.shape[0] == len(out.domain) - dim


def indicator_extends(view, pts, x):
    """Whether some codeword is 1 at x and 0 on the rest of pts."""
    g = rm_generator(view, pts)
    b = np.array([1 if pt == x else 0 for pt in pts], dtype=np.int64)
    return AffineSystem(g, b, view.p).solve() is not None


@pytest.mark.parametrize("p", [3, 5])
def test_unconstrained_equivalence(p):
    rng = random.Random(20 + p)
    f = Field(p)
    for _ in range(25):
        m = rng.choice([1, 2])
        dv = tuple(rng.randrange(0, 3) for _ in range(m))
        pool = list(itertools.product(range(p), repeat=m))
        pts = rng.sample(pool, rng.randrange(1, min(5, len(pool) + 1)))
        view = CodeView(f, m, dv)
        empty = cd_rm(view, pts).is_empty()
        every_indicator = all(indicator_extends(view, pts, x) for x in pts)
        assert empty == every_indicator


def test_cd_zero_rm_example_single_point_free():
    # m=1, d=2, S={0,1}: codewords c (X^2 - X); at x=2 the value 2c covers F5.
    f = Field(5)
    view = CodeView(f, 1, (2,))
    assert cd_zero_rm(view, ProductSet(((0, 1),)), [(2,)]).is_empty()


def test_cd_zero_rm_example_two_points_row():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    out = cd_zero_rm(view, ProductSet(((0, 1),)), [(2,), (3,)])
    assert out.z.shape[0] == 1
    z = out.z[0]
    mult = [(z * c) % 5 for c in range(1, 5)]
    assert any(np.array_equal(v, np.array([1, 3])) for v in mult)


def test_cd_zero_rm_empty_domain():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    assert cd_zero_rm(view, ProductSet(((0, 1),)), []).is_empty()


def test_cd_zero_rm_arity_zero():
    # the only arity-0 word vanishing on the one-point cube is 0
    view = CodeView(Field(5), 0, ())
    out = cd_zero_rm(view, ProductSet(()), [(), ()])
    assert out.domain == ((),)
    assert out.z.tolist() == [[1]]
    assert cd_zero_rm(view, ProductSet(()), []).z.shape == (0, 0)


@pytest.mark.parametrize(
    "s", [ProductSet(((0, 1), (0, 1))), ProductSet(((0, 1, 2),))], ids=["arity", "degree"]
)
def test_cd_zero_rm_refuses_a_zero_set_it_cannot_serve(s):
    # m=1, d=1: a zero set of arity 2, or one with |S_1| - 1 = 2 > d_1,
    # is refused before the empty domain is answered
    view = CodeView(Field(5), 1, (1,))
    for pts in ([], [(3,)]):
        with pytest.raises(ValueError):
            cd_zero_rm(view, s, pts)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cd_zero_rm_is_the_reduced_dual_of_the_zero_code(p):
    # the reduced dual is unique, so the detector must equal the one computed
    # from the brute-force restriction of the zero code
    rng = random.Random(60 + p)
    f = Field(p)
    for _ in range(15):
        m = rng.choice([1, 2, 3])
        s = ProductSet(
            tuple(tuple(rng.sample(range(p), rng.randrange(1, 3))) for _ in range(m))
        )
        dv = tuple(rng.randrange(len(fac) - 1, 4) for fac in s.factors)
        view = CodeView(f, m, dv)
        pts = [
            tuple(rng.randrange(p) for _ in range(m)) for _ in range(rng.randrange(1, 8))
        ]
        out = cd_zero_rm(view, s, pts)
        code = code_restriction_basis(view, out.domain, s)
        assert np.array_equal(out.z, kernel_basis(code, p))


@pytest.mark.parametrize("p", [3, 5])
def test_cd_zero_rm_correctness_sweep(p):
    rng = random.Random(30 + p)
    f = Field(p)
    for _ in range(20):
        m = rng.choice([1, 2])
        s = ProductSet(tuple(tuple(rng.sample(range(p), 2)) for _ in range(m)))
        dv = tuple(rng.randrange(2, 4) for _ in range(m)) if m == 1 else (2, 2)
        if p ** int(np.prod([d + 1 for d in dv])) > 200_000:
            continue
        view = CodeView(f, m, dv)
        pts = rng.sample(
            [x for x in itertools.product(range(p), repeat=m)], rng.randrange(1, 4)
        )
        out = cd_zero_rm(view, s, pts)
        words = all_codewords(view, out.domain, s)
        if out.z.shape[0] and len(words):
            assert not np.any((words @ out.z.T) % p)
        uniq = np.unique(words, axis=0) if len(words) else np.zeros((0, len(out.domain)), dtype=np.int64)
        dim = rank(uniq, p) if uniq.size else 0
        assert out.z.shape[0] == len(out.domain) - dim


@pytest.mark.parametrize("p", [3, 5])
def test_zero_code_transfer(p):
    """I union S constrained w.r.t. the code iff I minus S constrained w.r.t.
    the zero code, whenever the grid is within degree."""
    rng = random.Random(40 + p)
    f = Field(p)
    for _ in range(20):
        m = rng.choice([1, 2])
        s = ProductSet(tuple(tuple(rng.sample(range(p), 2)) for _ in range(m)))
        dv = tuple(rng.randrange(2, 4) for _ in range(m))
        view = CodeView(f, m, dv)
        pts = rng.sample(
            list(itertools.product(range(p), repeat=m)), rng.randrange(1, 4)
        )
        union = list(dict.fromkeys(list(pts) + list(s.points())))
        lhs = not cd_rm(view, union).is_empty()
        outside = [x for x in pts if not s.contains(x)]
        rhs = not cd_zero_rm(view, s, outside).is_empty()
        assert lhs == rhs


def random_linear_code(rng, p, domain_size, dim):
    g = np.array(
        [[rng.randrange(p) for _ in range(dim)] for _ in range(domain_size)]
    )
    return g


def test_padded_message_claim():
    """For U inside V with matching zero codes on I, membership of (u, x) in
    the restriction to U + I transfers to every compatible padding on V."""
    rng = random.Random(50)
    p = 3
    for _ in range(40):
        n = 6
        g = random_linear_code(rng, p, n, 3)
        dom = list(range(n))
        u_set = rng.sample(dom, 2)
        v_set = u_set + [x for x in dom if x not in u_set][:2]
        i_set = rng.sample([x for x in dom if x not in v_set], 2)
        words = [tuple((g @ np.array(c)) % p) for c in itertools.product(range(p), repeat=3)]

        def restr(w, idx):
            return tuple(w[i] for i in idx)

        zero_u = {restr(w, i_set) for w in words if all(w[i] == 0 for i in u_set)}
        zero_v = {restr(w, i_set) for w in words if all(w[i] == 0 for i in v_set)}
        if zero_u != zero_v:
            continue
        for w in words:
            u, x = restr(w, u_set), restr(w, i_set)
            compatible = [
                wv for wv in words if restr(wv, u_set) == u
            ]
            ok = all(
                any(
                    restr(w2, v_set) == restr(wv, v_set) and restr(w2, i_set) == x
                    for w2 in words
                )
                for wv in compatible
            )
            assert ok  # (u, x) always extends across all paddings here


def test_a_closure_example():
    a = ProductSet(((0, 1), (0, 1)))
    got = a_closure([(2, 3)], a)
    assert set(got) == {(), (0,), (1,), (2,), (2, 0), (2, 1), (2, 3)}


def test_a_closure_empty_and_bot():
    a = ProductSet(((0, 1), (0, 1)))
    assert a_closure([], a) == []
    assert a_closure([()], a) == [()]


def test_a_closure_closed_minimal():
    rng = random.Random(60)
    a = ProductSet(((0, 1), (0, 1, 2)))
    for _ in range(20):
        pts = [
            tuple(rng.randrange(4) for _ in range(rng.randrange(0, 3)))
            for _ in range(rng.randrange(1, 4))
        ]
        closed = a_closure(pts, a)
        assert is_a_closed(closed, a)
        assert set(pts) <= set(closed)
        assert len(closed) <= (sum(len(f) for f in a.factors) + a.m + 1) * max(
            len(set(pts)), 1
        )
        # minimality: dropping any added point breaks closure or containment
        for q in closed:
            if q in pts:
                continue
            smaller = [x for x in closed if x != q]
            assert not is_a_closed(smaller, a) or not set(pts) <= set(smaller)


def test_code_restriction_basis_matches_enumeration():
    f = Field(3)
    view, s = CodeView(f, 1, (2,)), ProductSet(((0, 1),))
    pts = [(0,), (2,)]
    rows = code_restriction_basis(view, pts, s)
    words = {tuple(int(v) for v in w) for w in all_codewords(view, pts, s)}
    spanned = set()
    for coeffs in itertools.product(range(3), repeat=rows.shape[0]):
        v = np.zeros(len(pts), dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = (v + c * r) % 3
        spanned.add(tuple(v))
    assert spanned == words
