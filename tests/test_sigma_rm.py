import itertools
import random

import numpy as np
import pytest

from zkpcp.domains import a_closure, hypercube, starred
from zkpcp.field import Field
from zkpcp.linalg import AffineSystem, kernel_basis, spans_equal
from zkpcp.oracles import (
    affine_sets_equal,
    attainable_answers_sigma,
    sigma_brute_dual,
)
from zkpcp.rm import CodeView, cd_rm, cd_zero_rm
from zkpcp.sigma_rm import sigma_rm_locate


def theorem_span_rows(view, a, s_pts, zero_on_cube):
    """Summation rows plus per-arity detector rows, per the decomposition."""
    p = view.p
    idx = {pt: i for i, pt in enumerate(s_pts)}
    rows = []
    sset = set(s_pts)
    for pt in starred(s_pts, a):
        row = np.zeros(len(s_pts), dtype=np.int64)
        row[idx[pt]] = 1
        for v in a.factors[len(pt)]:
            row[idx[pt + (v,)]] = (row[idx[pt + (v,)]] - 1) % p
        rows.append(row)
    for i in range(view.m + 1):
        layer = [pt for pt in s_pts if len(pt) == i]
        if not layer:
            continue
        view_i = CodeView(view.field, i, view.dv[:i])
        if zero_on_cube:
            cb = cd_zero_rm(view_i, a.prefix(i), layer)
        else:
            cb = cd_rm(view_i, layer)
        for z in cb.z:
            row = np.zeros(len(s_pts), dtype=np.int64)
            for pt, c in zip(cb.domain, z):
                row[idx[pt]] = c
            rows.append(row)
    return (
        np.array(rows, dtype=np.int64).reshape(len(rows), len(s_pts))
        if rows
        else np.zeros((0, len(s_pts)), dtype=np.int64)
    )


def random_closed_set(rng, a, p, max_size=20):
    pool = []
    for i in range(a.m + 1):
        pool.extend(itertools.product(range(p), repeat=i))
    while True:
        seeds = rng.sample(pool, rng.randrange(1, 4))
        closed = a_closure(seeds, a)
        if len(closed) <= max_size:
            return closed


@pytest.mark.parametrize("dv", [(2, 2), (3, 3)])
@pytest.mark.parametrize("zero_on_cube", [False, True])
def test_dual_decomposition_random_closed_sets(dv, zero_on_cube):
    p = 3
    f = Field(p)
    a = hypercube((0, 1), 2)
    view = CodeView(f, 2, dv)
    rng = random.Random(hash((dv, zero_on_cube)) & 0xFFFF)
    for _ in range(12):
        s_pts = random_closed_set(rng, a, p)
        brute = sigma_brute_dual(view, a, s_pts, zero_on_cube)
        span = theorem_span_rows(view, a, s_pts, zero_on_cube)
        assert spans_equal(brute, span, p), f"S={s_pts}"


def test_dual_decomposition_corner_cases():
    p = 3
    f = Field(p)
    a = hypercube((0, 1), 2)
    view = CodeView(f, 2, (2, 2))
    for s_pts in [[()], [(), (0,), (1,)], a_closure([(2, 2)], a)]:
        for zero_on_cube in (False, True):
            brute = sigma_brute_dual(view, a, s_pts, zero_on_cube)
            span = theorem_span_rows(view, a, s_pts, zero_on_cube)
            assert spans_equal(brute, span, p), (s_pts, zero_on_cube)


def test_sigma_rm_locate_refuses_views_whatever_the_queries():
    # layers inside the product set skip the plain locator's search, so the
    # view is checked up front, even for a total-sum query alone
    f = Field(5)
    a = hypercube((0, 1), 2)
    for view in (CodeView(f, 2, (1, 1)), CodeView(f, 1, (2,))):
        for pts in ([()], [(0, 1)], [(2, 3)]):
            with pytest.raises(ValueError):
                sigma_rm_locate(view, a, pts)


def test_sigma_rm_locate_refuses_a_point_longer_than_the_arity():
    view, a = CodeView(Field(5), 2, (2, 2)), hypercube((0, 1), 2)
    for pts in ([(0, 1, 1)], [(), (0, 2), (1, 1, 0)]):
        with pytest.raises(ValueError, match="longer than arity 2"):
            sigma_rm_locate(view, a, pts)


def sum_word_of(msg_cube, a, p):
    word = {}
    for i in range(a.m + 1):
        for prefix in a.prefix_points(i):
            word[prefix] = (
                sum(msg_cube[prefix + tail] for tail in a.suffix_points(i)) % p
            )
    return word


@pytest.mark.parametrize("dv", [(2, 2), (3, 3)])
def test_sigma_locator_contract_vs_affine_oracle(dv):
    p = 3
    f = Field(p)
    a = hypercube((0, 1), 2)
    view = CodeView(f, 2, dv)
    rng = random.Random(11)
    pool = []
    for i in range(3):
        pool.extend(itertools.product(range(p), repeat=i))
    for _ in range(10):
        pts = rng.sample(pool, rng.randrange(1, 4))
        out = sigma_rm_locate(view, a, pts)
        for _ in range(4):
            msg_cube = {pt: rng.randrange(p) for pt in a.points()}
            word = sum_word_of(msg_cube, a, p)
            off, rows = attainable_answers_sigma(view, a, msg_cube, pts)
            # locator side: solve for the answer fiber given the message
            fixed = np.array(
                [word[q] for kind, q in out.cols if kind == "m"], dtype=np.int64
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
            assert x0 is not None, "locator claims unattainable for a real message"
            ker = sys.kernel()
            assert affine_sets_equal(x0, ker, off, rows, p), (pts, msg_cube)


def test_sigma_locator_locality_bound():
    p = 3
    f = Field(p)
    a = hypercube((0, 1), 2)
    view = CodeView(f, 2, (2, 2))
    rng = random.Random(12)
    pool = []
    for i in range(3):
        pool.extend(itertools.product(range(p), repeat=i))
    amax = max(len(fac) for fac in a.factors)
    m = a.m
    for _ in range(150):
        pts = rng.sample(pool, rng.randrange(1, 5))
        out = sigma_rm_locate(view, a, pts)
        bound = len(pts) * m * (m * (amax + 1) + 1) ** 2
        assert len(out.r) <= bound


def zero_pinned_restriction(p, f, dv, pin_pts, s_pts):
    """Rows spanning restrictions to s_pts of polynomials of degree dv that
    vanish on pin_pts, built directly from coefficient space."""
    view = CodeView(f, len(dv), dv)
    from zkpcp.rm import rm_generator

    pin = rm_generator(view, list(pin_pts)) if pin_pts else np.zeros(
        (0, 0), dtype=np.int64
    )
    full = rm_generator(view, list(s_pts))
    if pin_pts:
        coeff = kernel_basis(pin, p)
    else:
        coeff = np.eye(full.shape[1], dtype=np.int64)
    return (coeff @ full.T) % p


def test_locator_internal_zero_code_restriction_equality():
    # The code pinned to zero on the whole cube and the code pinned to zero
    # only on the located message positions restrict identically to the
    # query set: the locator's R carries all the cube dependence.
    from zkpcp.rm_locator import rm_locate

    p = 3
    f = Field(p)
    a = hypercube((0, 1), 2)
    dv = (2, 2)
    view = CodeView(f, 2, dv)
    rng = random.Random(13)
    pool = list(itertools.product(range(p), repeat=2))
    for _ in range(12):
        pts = rng.sample(pool, rng.randrange(1, 4))
        out = rm_locate(view, a, pts)
        cube = list(a.points())
        via_cube = zero_pinned_restriction(p, f, dv, cube, pts)
        via_r = zero_pinned_restriction(p, f, dv, list(out.r), pts)
        assert spans_equal(via_cube, via_r, p), (pts, out.r)

