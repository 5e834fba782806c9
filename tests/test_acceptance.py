"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every check is exact
(enumeration or linear algebra over the prime field); Monte Carlo appears
only where a rejection *rate* is the claim itself.
"""
import itertools
import random
import time

import numpy as np
import pytest

from zkpcp.antisym import antisym_locate, is_prefix_free, sym_sets, union_size
from zkpcp.audit import audit_script, script_battery
from zkpcp.domains import a_closure, hypercube, sort_points
from zkpcp.field import Field
from zkpcp.linalg import spans_equal
from zkpcp.oracles import _digit_matrix
from zkpcp.pcp import (
    CnfInstance,
    SumcheckParams,
    arithmetize,
    line_test_count,
    pcp_for_sharp_sat,
    proof_from_tables,
    prove,
    prove_shifted,
    verify,
)
from zkpcp.poly import MultiPoly, subcube_sum
from zkpcp.rm import CodeView
from zkpcp.rm_locator import rm_locate
from zkpcp.sigma_rm import sigma_rm_locate


def report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


class _BucketOracle:
    """Buckets all p^k polynomials of a view by (cube restriction, answers).

    The cube rows of the evaluation map are fixed across query sets, so
    their packed contribution is computed once; each query set only adds its
    own |I| evaluation rows.
    """

    def __init__(self, view, a):
        from zkpcp.oracles import _digit_matrix_f64
        from zkpcp.rm import rm_generator

        self.view, self.a = view, a
        self.p = view.p
        self.cube = list(a.points())
        k = len(list(np.ndindex(*(d + 1 for d in view.dv))))
        self.digits = _digit_matrix_f64(self.p, k)
        e_cube = rm_generator(view, self.cube).astype(np.float64)
        vals = (e_cube @ self.digits) % self.p
        w = (self.p ** np.arange(len(self.cube))).astype(np.float64)
        self.cube_packed = (w @ vals).astype(np.int64)

    def attainable_mask(self, pts) -> np.ndarray:
        """Boolean table over packed (cube values, answers) keys."""
        from zkpcp.rm import rm_generator

        p = self.p
        e = rm_generator(self.view, pts).astype(np.float64)
        vals = (e @ self.digits) % p
        w = (p ** (len(self.cube) + np.arange(len(pts)))).astype(np.float64)
        packed = self.cube_packed + (w @ vals).astype(np.int64)
        seen = np.zeros(p ** (len(self.cube) + len(pts)), dtype=bool)
        seen[packed] = True
        return seen


def _kernel_vs_attainable(view, a, pts, oracle: _BucketOracle) -> int:
    """Number of (message, answer) assignments where locator and brute-force
    enumeration disagree; fully vectorised."""
    p = view.p
    out = rm_locate(view, a, pts)
    cube = list(a.points())
    seen = oracle.attainable_mask(pts)
    n = len(cube) + len(pts)
    combos = _digit_matrix(p, n)
    weights = p ** np.arange(n, dtype=np.int64)
    keys = weights @ combos
    attain_ok = seen[keys]
    if out.z.shape[0] == 0:
        kernel_ok = np.ones(combos.shape[1], dtype=bool)
    else:
        sel = []
        for kind, q in out.cols:
            idx = cube.index(q) if kind == "m" else len(cube) + pts.index(q)
            sel.append(combos[idx])
        v = np.stack(sel)
        kernel_ok = ~np.any((out.z @ v) % p, axis=0)
    return int(np.sum(kernel_ok != attain_ok))


def test_criterion_1_rm_locator_oracle_equivalence():
    t0 = time.time()
    p = 5
    fld = Field(p)
    view = CodeView(fld, 2, (2, 2))
    a = hypercube((0, 1), 2)
    oracle = _BucketOracle(view, a)
    mismatches = 0
    sets_checked = 0
    for pt in itertools.product(range(p), repeat=2):
        mismatches += _kernel_vs_attainable(view, a, [pt], oracle)
        sets_checked += 1
    rng = random.Random(20240)
    pool = list(itertools.product(range(p), repeat=2))
    for _ in range(100):
        pts = rng.sample(pool, rng.randrange(1, 4))
        mismatches += _kernel_vs_attainable(view, a, pts, oracle)
        sets_checked += 1
    dt = time.time() - t0
    report(
        1,
        "rm locator vs full 5^9 enumeration (F5, m=2, d=(2,2))",
        mismatches == 0 and dt <= 60,
        f"{sets_checked} query sets, {mismatches} mismatches, {dt:.1f}s",
    )


def test_criterion_2_locality_bounds():
    p = 5
    fld = Field(p)
    view = CodeView(fld, 2, (2, 2))
    a = hypercube((0, 1), 2)
    rng = random.Random(777)
    pool = list(itertools.product(range(p), repeat=2))
    rm_viol = 0
    for _ in range(1000):
        pts = rng.sample(pool, rng.randrange(1, 7))
        out = rm_locate(view, a, pts)
        rm_viol += len(out.r) > len(pts)

    p3 = Field(3)
    view3 = CodeView(p3, 2, (2, 2))
    a3 = hypercube((0, 1), 2)
    amax, m = 2, 2
    pool3 = []
    for i in range(3):
        pool3.extend(itertools.product(range(3), repeat=i))
    sig_viol = 0
    for _ in range(300):
        pts = rng.sample(pool3, rng.randrange(1, 5))
        out = sigma_rm_locate(view3, a3, pts)
        bound = len(pts) * m * (m * (amax + 1) + 1) ** 2
        sig_viol += len(out.r) > bound

    a_m3 = hypercube((0, 1), 3)
    pool_m3 = []
    for i in range(4):
        pool_m3.extend(itertools.product((0, 1), repeat=i))
    anti_viol = 0
    fld5 = Field(5)
    for _ in range(300):
        pts = rng.sample(pool_m3, rng.randrange(1, 6))
        out = antisym_locate(fld5, a_m3, pts)
        anti_viol += len(out.meta["prefix_free"].g) > 3 * len(set(pts))
    ok = rm_viol == sig_viol == anti_viol == 0
    report(
        2,
        "locality bounds (|R|<=|I|; sum-code closure bound; |G|<=m|I|)",
        ok,
        f"violations rm={rm_viol}/1000 sigma={sig_viol}/300 antisym={anti_viol}/300",
    )


def _theorem_span_rows(view, a, s_pts, zero_on_cube):
    from zkpcp.rm import cd_rm, cd_zero_rm

    p = view.p
    idx = {pt: i for i, pt in enumerate(s_pts)}
    rows = []
    sset = set(s_pts)
    for pt in sorted(sset, key=lambda q: (len(q), q)):
        if len(pt) < a.m and any(pt + (v,) in sset for v in a.factors[len(pt)]):
            row = np.zeros(len(s_pts), dtype=np.int64)
            row[idx[pt]] = 1
            for v in a.factors[len(pt)]:
                row[idx[pt + (v,)]] = (row[idx[pt + (v,)]] - 1) % p
            rows.append(row)
    for i in range(view.m + 1):
        layer = [pt for pt in s_pts if len(pt) == i]
        if not layer:
            continue
        if zero_on_cube:
            zview = CodeView(view.field, i, view.dv[:i], zero_on=a.prefix(i))
            cb = cd_zero_rm(zview, layer)
        else:
            cb = cd_rm(CodeView(view.field, i, view.dv[:i]), layer)
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


def test_criterion_3_sum_code_dual_decomposition():
    from zkpcp.oracles import sigma_brute_dual

    t0 = time.time()
    p = 3
    fld = Field(p)
    a = hypercube((0, 1), 2)
    rng = random.Random(31337)
    pool = []
    for i in range(3):
        pool.extend(itertools.product(range(p), repeat=i))
    failures = 0
    checked = 0
    for dv in [(2, 2), (3, 3)]:
        view = CodeView(fld, 2, dv)
        closed_sets = [[()], [(), (0,), (1,)]]
        while len(closed_sets) < 50:
            seeds = rng.sample(pool, rng.randrange(1, 4))
            s_pts = a_closure(seeds, a)
            if len(s_pts) <= 20:
                closed_sets.append(s_pts)
        for s_pts in closed_sets:
            for zero_on_cube in (False, True):
                brute = sigma_brute_dual(view, a, list(s_pts), zero_on_cube)
                span = _theorem_span_rows(view, a, list(s_pts), zero_on_cube)
                if not spans_equal(brute, span, p):
                    failures += 1
                checked += 1
    dt = time.time() - t0
    report(
        3,
        "sum-code dual decomposition vs brute force (F3, 50 closed sets x2 dv x2 subcodes)",
        failures == 0 and dt <= 300,
        f"{checked} comparisons, {failures} failures, {dt:.1f}s",
    )


def test_criterion_4_antisym_basis_and_bounds():
    from zkpcp.linalg import kernel_basis
    from zkpcp.oracles import antisym_basis

    t0 = time.time()
    failures = 0
    sqrt_failures = 0
    checked = 0
    for p in (3, 5):
        for m in (1, 2, 3):
            a = hypercube((0, 1), m)
            pool = []
            for i in range(m + 1):
                pool.extend(itertools.product((0, 1), repeat=i))
            k_cube = a.size
            for size in range(1, 6):
                for comb in itertools.combinations(pool, size):
                    if not is_prefix_free(comb):
                        continue
                    g_pts = sort_points(comb)
                    fam = sym_sets(g_pts, a)
                    idx = {pt: i for i, pt in enumerate(g_pts)}
                    got = np.zeros((len(fam.sets), len(g_pts)), dtype=np.int64)
                    for k, h in enumerate(fam.sets):
                        for pt in h:
                            got[k, idx[pt]] = 1
                    rows = []
                    for vec in antisym_basis(a, p):
                        rows.append(
                            [
                                sum(vec.get(x, 0) for x in a.cube_of(pt)) % p
                                for pt in g_pts
                            ]
                        )
                    rows = np.array(rows, dtype=np.int64).reshape(-1, len(g_pts))
                    want = kernel_basis(rows, p)
                    if not spans_equal(got, want, p):
                        failures += 1
                    checked += 1
                    if p == 3:  # combinatorial part is field-independent
                        for h in fam.sets:
                            t = len(h) ** 2
                            if 4 * t > k_cube:
                                continue
                            u = union_size(h, a)
                            if (2 * u - k_cube) ** 2 < k_cube**2 - 4 * t * k_cube:
                                sqrt_failures += 1

    # 2-D matrix model of the highlighted dual element (n=5, r=2, t=7)
    n = 5
    rows_idx = {2, 3}
    singles = {(1, 2), (1, 3), (4, 2), (4, 3), (5, 2), (5, 3), (5, 5)}
    cells = {(i, j) for i in rows_idx for j in range(1, n + 1)} | singles
    fig_ok = len(cells) == 2 * n + 7 and {(j, i) for i, j in cells} == cells
    rng = random.Random(4242)
    fig_failures = 0
    for _ in range(10_000):
        mat = np.zeros((n + 1, n + 1), dtype=np.int64)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = rng.randrange(101)
                mat[i, j] = v
                mat[j, i] = (-v) % 101
        if sum(int(mat[c]) for c in cells) % 101 != 0:
            fig_failures += 1
    dt = time.time() - t0
    ok = failures == 0 and sqrt_failures == 0 and fig_ok and fig_failures == 0
    report(
        4,
        "antisym sum-code basis, square-root bound, 2-D dual element",
        ok,
        f"{checked} prefix-free families, {failures} span failures, "
        f"{sqrt_failures} bound failures, figure failures {fig_failures}/10000, {dt:.1f}s",
    )


def test_criterion_5_perfect_zero_knowledge_exact():
    from zkpcp.pcp import SumcheckParams

    t0 = time.time()
    failures = 0
    scripts_run = 0
    neg_detected = 0
    for p in (3, 5):
        params = SumcheckParams(p, 2, 3, (0, 1))
        coeffs = np.zeros((2, 2), dtype=np.int64)
        coeffs[1, 1] = 1
        poly = MultiPoly(p, coeffs)
        gamma = 1
        battery = script_battery(params, 20, seed=90 + p)
        for script in battery:
            rep = audit_script(params, poly, gamma, script)
            failures += rep.tv != 0
            scripts_run += 1
        for script in battery[:4]:
            rep = audit_script(params, poly, gamma, script, include_mask_row=False)
            neg_detected += rep.tv > 0
    dt = time.time() - t0
    ok = failures == 0 and neg_detected >= 2 and dt <= 120
    report(
        5,
        "perfect zero knowledge: exact TV=0 on adaptive scripts (F3 and F5)",
        ok,
        f"{scripts_run} scripts, {failures} nonzero distances, "
        f"negative control detected on {neg_detected} scripts, {dt:.1f}s",
    )


def test_criterion_6_completeness():
    t0 = time.time()
    # exhaustive verifier-coin sweep at p=11, m=1, d=3
    params = SumcheckParams(11, 1, 3, (0, 1))
    poly = MultiPoly(11, np.array([1, 2, 3, 4], dtype=np.int64))
    gamma_proof = prove(poly, params, random.Random(5))
    r = line_test_count(params)
    lines = [[(0, (0,))] * r for _ in range(params.m + 1)]
    sweep_rejects = 0
    for c1 in range(11):
        res = verify(
            poly.eval, params, gamma_proof, random.Random(0),
            path=(c1,), line_choices=lines,
        )
        sweep_rejects += not res.accepted
    # 1000 seeded trials at p=101, m=3, d=3
    params3 = SumcheckParams(101, 3, 3, (0, 1))
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[1, 1, 1] = 1
    c[2, 0, 1] = 7
    poly3 = MultiPoly(101, c)
    trial_rejects = 0
    for seed in range(1000):
        proof = prove(poly3, params3, random.Random(f"p:{seed}"))
        res = verify(poly3.eval, params3, proof, random.Random(f"v:{seed}"))
        trial_rejects += not res.accepted
    dt = time.time() - t0
    ok = sweep_rejects == 0 and trial_rejects == 0
    report(
        6,
        "completeness = 1 (exhaustive p=11 sweep; 1000 trials p=101 m=3)",
        ok,
        f"sweep rejects {sweep_rejects}/11, trial rejects {trial_rejects}/1000, {dt:.1f}s",
    )


def test_criterion_7_soundness_empirical():
    t0 = time.time()
    cnf = CnfInstance(2, ((1, 2),))  # truth: 3 models
    bundle = pcp_for_sharp_sat(cnf, 2, p=101)  # wrong claim
    rejected = 0
    for seed in range(1000):
        cheat = prove_shifted(bundle, random.Random(f"c:{seed}"))
        res = bundle.verify(cheat, random.Random(f"cv:{seed}"))
        rejected += not res.accepted

    params = SumcheckParams(101, 2, 3, (0, 1))
    coeffs = np.zeros((2, 2), dtype=np.int64)
    coeffs[1, 1] = 1
    poly = MultiPoly(101, coeffs)
    caught = 0
    for seed in range(1000):
        proof = prove(poly, params, random.Random(f"h:{seed}"))
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 101, size=proof.q.shape)
        proof = proof_from_tables(params, proof.sigma, q, proof.t)
        res = verify(poly.eval, params, proof, random.Random(f"hv:{seed}"))
        caught += not res.accepted
    dt = time.time() - t0
    ok = rejected >= 500 and caught >= 500
    report(
        7,
        "soundness >= 1/2 empirically (wrong-count shift; random q corruption)",
        ok,
        f"shift rejected {rejected}/1000, corruption caught {caught}/1000, {dt:.1f}s",
    )


def test_criterion_8_arithmetization_exact():
    rng = random.Random(55)
    p = 211
    failures = 0
    for _ in range(200):
        n = rng.randrange(1, 5)
        clauses = []
        for _ in range(rng.randrange(1, 6)):
            width = rng.randrange(1, n + 1)
            vars_ = rng.sample(range(1, n + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        cnf = CnfInstance(n, tuple(clauses))
        poly = arithmetize(cnf, p)
        total = subcube_sum(poly, hypercube((0, 1), n), ())
        if total != cnf.model_count() % p:
            failures += 1
    report(
        8,
        "arithmetization counts match truth tables (200 random CNFs)",
        failures == 0,
        f"{failures} mismatches",
    )
