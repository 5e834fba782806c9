import itertools
import random

import numpy as np
import pytest

from zkpcp.antisym import antisym_locate
from zkpcp.audit import LinearLaw
from zkpcp.domains import hypercube
from zkpcp.encoding import (
    InconsistentQueryAnswers,
    SimSession,
    antisym_spec,
    compose,
    constraint_rows_for,
    enc_pcp_spec,
    identity_spec,
)
from zkpcp.field import Field
from zkpcp.oracles import affine_sets_equal, antisym_basis
from zkpcp.poly import MultiPoly, embed, interpolate, subcube_sum, zero_code_poly_basis


def xy_poly(p):
    c = np.zeros((2, 2), dtype=np.int64)
    c[1, 1] = 1
    return MultiPoly(p, c)


def make_pcp_spec(p=3, d=3):
    fld = Field(p)
    poly = xy_poly(p)
    gamma = sum(poly.eval((a, b)) for a in (0, 1) for b in (0, 1)) % p
    spec = enc_pcp_spec(fld, 2, d, (0, 1), poly.eval, gamma)
    return fld, poly, gamma, spec


def test_repeated_query_returns_cached_value():
    _, _, _, spec = make_pcp_spec()
    s = SimSession(spec, random.Random(3))
    v1 = s.query((2, 0))
    assert s.query((2, 0)) == v1


def test_bot_query_deterministic_gamma():
    _, _, gamma, spec = make_pcp_spec()
    for seed in range(10):
        assert SimSession(spec, random.Random(seed)).query(()) == gamma


def test_fresh_unconstrained_query_uniform():
    p = 3
    _, _, _, spec = make_pcp_spec(p)
    counts = {v: 0 for v in range(p)}
    for seed in range(900):
        counts[SimSession(spec, random.Random(seed)).query((2,))] += 1
    assert set(counts) == set(range(p))
    expected = 900 / p
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16


def test_antisym_session_bot_forced():
    p = 3
    fld = Field(p)
    a = hypercube((0, 1), 2)
    rng = random.Random(0)
    msg = {pt: rng.randrange(p) for pt in a.points()}
    gamma = sum(msg.values()) % p
    msg[()] = gamma
    spec = antisym_spec(fld, a, lambda q: msg[q])
    for seed in range(8):
        assert SimSession(spec, random.Random(seed)).query(()) == gamma


def test_antisym_spec_locates_each_query_tuple_once():
    fld = Field(5)
    a = hypercube((0, 1), 2)
    spec = antisym_spec(fld, a, lambda q: 0)
    pts = [(0,), (1, 0), ()]
    first = spec.locator(pts)
    assert spec.locator([list(q) for q in pts]) is first
    want = antisym_locate(fld, a, pts)
    assert (first.r, first.queries) == (want.r, want.queries)
    assert np.array_equal(first.z, want.z)
    # another order is another query tuple; another spec starts empty
    assert spec.locator(pts[::-1]).queries == tuple(pts[::-1])
    assert antisym_spec(fld, a, lambda q: 0).locator(pts) is not first


def test_inconsistent_state_raises():
    _, _, gamma, spec = make_pcp_spec()
    s = SimSession(spec, random.Random(1))
    s.answers[()] = (gamma + 1) % 3  # poison the cache with a wrong total
    with pytest.raises(InconsistentQueryAnswers):
        s.query((0,))  # bot and its children are tied by a summation row


def kernel_as_set(loc, p):
    """All (column assignment) tuples in the locator's kernel, keyed by col."""
    out = set()
    for assign in itertools.product(range(p), repeat=len(loc.cols)):
        vec = np.array(assign, dtype=np.int64)
        if loc.z.shape[0] == 0 or not np.any((loc.z @ vec) % p):
            out.add(tuple(sorted(zip(loc.cols, assign))))
    return out


def test_compose_with_identity_both_sides():
    p = 3
    fld = Field(p)
    a = hypercube((0, 1), 2)
    rng = random.Random(0)
    msg = {pt: rng.randrange(p) for pt in a.points()}
    msg[()] = sum(v for q, v in msg.items() if q) % p
    inner = antisym_spec(fld, a, lambda q: msg[q])
    ident = identity_spec(fld)
    pool = [(), (0,), (1, 0), (0, 1)]
    for k in (1, 2):
        for pts in itertools.combinations(pool, k):
            direct = inner.locator(list(pts))
            over = compose(inner, ident).locator(list(pts))
            assert set(over.cols) == set(direct.cols)
            assert kernel_as_set(over, p) == kernel_as_set(direct, p)
            under = compose(ident, inner).locator(list(pts))
            assert set(under.cols) == set(direct.cols)
            assert kernel_as_set(under, p) == kernel_as_set(direct, p)


def sigma_answers_real_law(fld, m, d, h, msg_cube, pts):
    """(offset, rows) of the sum-word answers under the composed encoding's
    own randomness: antisymmetric mask plus cube-vanishing extension noise."""
    p = fld.p
    a = hypercube(h, m)
    dv = (d,) * m
    base = embed(interpolate(msg_cube, a, p), dv, p)
    off = np.array([subcube_sum(base, a, pt) for pt in pts], dtype=np.int64)
    rows = []
    for vec in antisym_basis(a, p):
        filled = {pt: vec.get(pt, 0) for pt in a.points()}
        poly = embed(interpolate(filled, a, p), dv, p)
        rows.append([subcube_sum(poly, a, pt) for pt in pts])
    for poly in zero_code_poly_basis(a, dv, p):
        rows.append([subcube_sum(poly, a, pt) for pt in pts])
    return off, np.array(rows, dtype=np.int64).reshape(len(rows), len(pts))


def session_symbolic_law(spec, steps):
    """Accumulate the session's rows for a fixed sigma-only script."""
    law = LinearLaw(spec.p)
    supp = []
    for pt in steps:
        if pt not in supp:
            supp.append(pt)
            a, b, _ = constraint_rows_for(spec, supp)
            law.add_step(1, a, b)
    return law, [supp.index(pt) for pt in steps]


def test_chained_session_law_equals_real_law():
    p = 3
    fld, poly, gamma, spec = make_pcp_spec(p)
    msg_cube = {pt: poly.eval(pt) for pt in hypercube((0, 1), 2).points()}
    rng = random.Random(17)
    pool = [(), (0,), (2,), (1, 2), (2, 2), (0, 1), (2, 0)]
    scripts = [
        [(), (0,)],
        [(2,), (2, 0), (2, 1)],
        [(1, 2), (2, 1)],
        [(2, 2), (0, 1), (2,)],
    ]
    for _ in range(6):
        scripts.append(rng.sample(pool, rng.randrange(1, 5)))
    for pts in scripts:
        law, cols = session_symbolic_law(spec, pts)
        sim_off, sim_dirs = law.marginal(cols)
        re_off, re_rows = sigma_answers_real_law(fld, 2, 3, (0, 1), msg_cube, pts)
        assert affine_sets_equal(sim_off, sim_dirs, re_off, re_rows, p), pts


def test_session_locality_accounting():
    p = 3
    fld, poly, gamma, spec = make_pcp_spec(p)
    a = hypercube((0, 1), 2)
    m, amax = 2, 2
    rng = random.Random(23)
    pool = [(), (0,), (1,), (2,), (0, 1), (2, 2), (1, 0), (2, 1)]
    for _ in range(20):
        pts = rng.sample(pool, rng.randrange(1, 5))
        sess = SimSession(spec, random.Random(rng.randrange(10**6)))
        for pt in pts:
            sess.query(pt)
        k = len(pts)
        ell_out = k * m * (m * (amax + 1) + 1) ** 2
        ell_in = 1 + 2 * (m * ell_out) ** 2
        assert len(sess.messages_read) <= ell_in
        # reads never leave the message domain: cube points plus the total
        assert all(q == () or a.contains(q) for q in sess.messages_read)


def test_composed_pcp_locator_kernel_vs_direct_oracle():
    # Composed-locator kernels agree with attainability computed from the
    # full prover randomness model, messages fixed.
    p = 3
    fld, poly, gamma, spec = make_pcp_spec(p, d=3)
    msg_cube = {pt: poly.eval(pt) for pt in hypercube((0, 1), 2).points()}
    rng = random.Random(31)
    pool = [(), (0,), (2,), (1, 2), (2, 2), (0, 1)]
    for _ in range(8):
        pts = rng.sample(pool, rng.randrange(1, 4))
        loc = spec.locator(pts)
        re_off, re_rows = sigma_answers_real_law(fld, 2, 3, (0, 1), msg_cube, pts)
        # answer fiber from the locator with messages substituted
        a_mat, b_vec, _ = constraint_rows_for(spec, pts)
        from zkpcp.linalg import AffineSystem

        sys = AffineSystem(a_mat, b_vec, p)
        x0 = sys.solve()
        assert x0 is not None
        assert affine_sets_equal(x0, sys.kernel(), re_off, re_rows, p), pts
